"""Seeded random generation of theories and formulas.

The same seed always yields the same family. Channels are sampled from
isometry-based templates that act exactly on the named universe
(preparations, tracing, constant channels, deterministic basis-frame
functions); occasionally a raw random isometry channel is attempted and
kept only if its images land within the matching radius of named states,
otherwise it is rejected and the slot is resampled from the exact
templates. More than _MAX_RESAMPLES rejections in one theory raise
GenerationError.

``generate_qrts`` makes many indices' theories at once: it draws each
one's declarations as ``generate_qrt`` does, derives all their channels
in one pass, closes each under composition, and derives and checks all
the closed theories in one more pass (``qrt.derive``), so the batch pays
numpy's per-call cost once, not once per theory. ``generate_qrt`` is its
batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Iterable, Iterator

import numpy as np

from .config import DEFAULT_TOL
from .errors import GenerationError, QrtModalError
from .formulas import _UNARY, Atom, Formula, Implies
from .linalg import (
    KrausChannel,
    constant_channel,
    density_matrices,
    function_channel,
    preparation_channel,
    random_cptp_channel,
    random_density_matrix,
    random_isometry,
    scalar_one,
    trace_channel,
    within_trace_distances,
)
from .qrt import (
    ChannelDecl,
    LabeledTheory,
    Qrt,
    SystemDecl,
    _derive_maps,
    _induced_maps,
    complete_composition,
    derive,
)

_SYSTEM_NAMES = ("A", "B", "G", "H")
_MIN_STATE_GAP = 1e-2  # named states must be clearly separated
_MAX_RESAMPLES = 200  # rejected samples allowed per theory
_RAW_PROBABILITY = 0.1  # chance that a channel slot first tries a raw isometry


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    n_systems: int = 3
    dims: tuple = (1, 2, 3)
    states_per_system: int = 3
    channel_density: float = 0.5
    ensure_trivial: bool = True

    def __post_init__(self):
        if not 1 <= self.n_systems <= 4:
            raise ValueError("n_systems must be between 1 and 4")
        if not self.dims or not set(self.dims) <= {1, 2, 3}:
            raise ValueError("dims must be a non-empty subset of {1, 2, 3}")
        if not 1 <= self.states_per_system <= 4:
            raise ValueError("states_per_system must be between 1 and 4")
        if not 0.0 <= self.channel_density <= 1.0:
            raise ValueError("channel_density must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")


def _reject(rejections: Iterator[int]) -> None:
    """Count one rejected sample of a theory, whose ``rejections`` is
    ``count(1)``; the one past _MAX_RESAMPLES raises GenerationError."""
    if next(rejections) > _MAX_RESAMPLES:
        raise GenerationError(f"resampling budget of {_MAX_RESAMPLES} rejections exhausted")


def _distinct_states(
    rng: np.random.Generator, dim: int, n: int, rejections: Iterator[int], drawn: list
) -> list[int]:
    """Draw random states of dim until n lie at least _MIN_STATE_GAP apart,
    appending every candidate to ``drawn`` unchecked; the positions in
    ``drawn`` of the n kept."""
    kept: list[int] = []
    while len(kept) < n:
        drawn.append(random_density_matrix(rng, dim, pure=bool(rng.integers(2))))
        if kept and within_trace_distances(drawn[-1][None], np.array([drawn[k] for k in kept]), _MIN_STATE_GAP).any():
            _reject(rejections)
        else:
            kept.append(len(drawn) - 1)
    return kept


def generate_qrt(cfg: GeneratorConfig, index: int = 0) -> Qrt:
    """One deterministic theory from (seed, index): validated and
    composition-complete. ``generate_qrts`` of the one index."""
    (q,) = generate_qrts(cfg, (index,))
    return q


def generate_qrts(cfg: GeneratorConfig, indices: Iterable[int]) -> list[Qrt]:
    """``generate_qrt`` of each index, in order, in five steps: draw each
    index's declarations, derive all their channels in one pass, close
    each theory under composition, derive all the closed theories in one
    pass (``derive``), and validate each one.

    Raises what generating the indices one at a time raises first: the
    failure of the lowest failing index, whether its draw, its closure or
    its validation failed. A failed draw is not derived, and no index
    after it is drawn."""
    declared: list[Qrt] = []
    # the failure of the lowest index so far: it is raised only once every
    # earlier index has closed and validated
    failure: QrtModalError | None = None
    for index in indices:
        try:
            declared.append(_declared_qrt(cfg, index))
        except QrtModalError as exc:
            failure = exc
            break
    _derive_maps(declared)
    closed: list[Qrt] = []
    declared.reverse()  # popped in index order: a declared theory goes once closed
    while declared:
        try:
            closed.append(complete_composition(declared.pop()))
        except QrtModalError as exc:
            failure = exc
            break
    derive(closed)
    for q in closed:
        report = q.validate()
        if not report.ok:
            raise GenerationError(f"generated theory failed validation: {report.text()}")
    if failure is not None:
        raise failure
    return closed


def _declared_qrt(cfg: GeneratorConfig, index: int) -> Qrt:
    """The theory of (seed, index) as drawn, before its closure: its
    systems and the channels drawn between them. Every state matrix the
    systems draw, a rejected candidate too, is checked in one
    ``density_matrices`` call before any channel is drawn, and the first
    that is no state raises."""
    rng = np.random.default_rng([cfg.seed, index])
    rejections = count(1)

    nontrivial_dims = [d for d in cfg.dims if d > 1] or [2]
    systems: list[SystemDecl] = []
    # each classical system's frame and the frame indices of its named states
    classical: dict[str, tuple[np.ndarray, list[int]]] = {}
    if cfg.ensure_trivial:
        systems.append(SystemDecl("c", 1, {"one": scalar_one()}))
    drawn: list = []  # every state matrix drawn, in order, rejected candidates too
    named: dict = {}  # system id -> (dim, the positions in drawn of its named states)
    for sid in _SYSTEM_NAMES[: cfg.n_systems - len(systems)]:
        dim = int(rng.choice(nontrivial_dims))
        if rng.random() < 0.6:
            n_states = int(rng.integers(1, min(cfg.states_per_system, dim) + 1))
            frame = random_isometry(rng, dim, dim)
            idx = [int(j) for j in rng.permutation(dim)[:n_states]]
            classical[sid] = frame, idx
            named[sid] = dim, range(len(drawn), len(drawn) + n_states)
            drawn += (np.outer(frame[:, j], frame[:, j].conj()) for j in idx)
        else:
            n_states = int(rng.integers(1, cfg.states_per_system + 1))
            named[sid] = dim, _distinct_states(rng, dim, n_states, rejections, drawn)
    states = density_matrices(drawn)
    for sid, (dim, kept) in named.items():
        systems.append(SystemDecl(sid, dim, {f"s{i}": states[k] for i, k in enumerate(kept)}))

    channels: list[ChannelDecl] = []
    for src in systems:
        for dst in systems:
            if src.dim == 1 and dst.dim == 1:
                continue  # only the identity lives there
            if rng.random() >= cfg.channel_density:
                continue
            channel = None
            # an occasional raw isometry channel, kept only if it happens
            # to induce a map on the named universe
            if src.dim > 1 and dst.dim > 1 and rng.random() < _RAW_PROBABILITY:
                raw = random_cptp_channel(rng, src.dim, dst.dim)
                if isinstance(_induced_maps([(raw, src, dst)], DEFAULT_TOL)[0], dict):
                    channel = raw
                else:
                    _reject(rejections)
            if channel is None:
                channel = _template_channel(rng, src, dst, classical)
            channels.append(ChannelDecl(f"ch{len(channels) + 1}", src.id, dst.id, channel))
    return Qrt(systems, channels)


def _template_channel(rng, src: SystemDecl, dst: SystemDecl, classical: dict) -> KrausChannel:
    """A channel from src to dst that acts exactly on the named states: a
    preparation out of the trivial system, the trace into it, a
    deterministic function of basis indices between two classical
    systems, and a constant channel otherwise."""
    dst_names = sorted(dst.states)
    if src.dim == 1:
        return preparation_channel(dst.states[dst_names[int(rng.integers(len(dst_names)))]])
    if dst.dim == 1:
        return trace_channel(src.dim)
    if src.id in classical and dst.id in classical:
        # named states map to named states exactly, unnamed basis vectors
        # go to a named target
        (src_frame, src_named), (dst_frame, dst_named) = classical[src.id], classical[dst.id]
        f = [dst_named[int(rng.integers(len(dst_named)))] for _ in range(src.dim)]
        for k in src_named:
            f[k] = dst_named[int(rng.integers(len(dst_named)))]
        return function_channel(f, src.dim, dst.dim, src_frame, dst_frame)
    return constant_channel(dst.states[dst_names[int(rng.integers(len(dst_names)))]], src.dim)


# -- random relabelings and restrictions ---------------------------------------


def random_renaming(q: Qrt | LabeledTheory, rng: np.random.Generator) -> tuple[dict, dict]:
    """A random renaming of q's systems and states, as the (sys_map,
    state_maps) pair that ``relabeled`` takes."""
    sys_ids = [s.id for s in q.systems]
    new_sys = [f"X{i}" for i in rng.permutation(len(sys_ids))]
    sys_map = dict(zip(sys_ids, new_sys))
    state_maps = {}
    for s in q.systems:
        names = sorted(s.states)
        perm = rng.permutation(len(names))
        state_maps[s.id] = {names[i]: f"t{int(perm[i])}" for i in range(len(names))}
    return sys_map, state_maps


def random_relabeling(q: Qrt | LabeledTheory, rng: np.random.Generator) -> Qrt | LabeledTheory:
    """q with systems and states renamed at random (``random_renaming``): a
    fresh ``Qrt`` of a ``Qrt``, a label map of a ``LabeledTheory``."""
    return q.relabeled(*random_renaming(q, rng))


def random_sub_qrt(q: Qrt | LabeledTheory, rng: np.random.Generator) -> LabeledTheory:
    """``q.labeled`` restricted to a random proper subset of its systems
    (to all of them when it has one)."""
    sys_ids = sorted(s.id for s in q.systems)
    if len(sys_ids) == 1:
        return q.labeled.restricted(sys_ids)
    n_keep = int(rng.integers(1, len(sys_ids)))
    return q.labeled.restricted(sys_ids[i] for i in sorted(rng.permutation(len(sys_ids))[:n_keep]))


# -- random formulas (for the logic kernel checks) -----------------------------


def random_formula(
    rng: np.random.Generator, atoms: list[str], max_depth: int = 5
) -> Formula:
    if max_depth == 0 or rng.random() < 0.3:
        return Atom(atoms[int(rng.integers(len(atoms)))])
    kinds = (*_UNARY.values(), Implies)
    node = kinds[int(rng.integers(len(kinds)))]
    if node is Implies:
        return Implies(random_formula(rng, atoms, max_depth - 1), random_formula(rng, atoms, max_depth - 1))
    return node(random_formula(rng, atoms, max_depth - 1))
