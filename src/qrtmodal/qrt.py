"""Finite quantum resource theories over a named state universe.

A theory is a set of named systems (each with finitely many named states),
a set of CPTP channels between them, and an optional trivial
one-dimensional system. Free states are never supplied: they are computed
as the states convertible from the trivial system's unique state.

Channels are identified extensionally by the function they induce on the
named universe; matching an output matrix to a named state uses the
unique-within-tol rule, with ambiguity treated as a validation error.

A theory derives those functions once, in one stacked pass per output
dim of its channels (``_induced_maps``): one Kraus sum per input dim,
one state check over all the images, and one array of Frobenius bounds
per destination system. Only a channel that fits its systems is applied:
both endpoints declared, its Kraus shape their dims, and no state of
another dim in either. Every other channel induces nothing, and settles
unapplied as a StructuralError that says why. The pass settles every
channel it applies, failures included: the first state in order whose
image fails, misses or matches ambiguously decides the channel's
outcome, and a failure is kept as its error, which every later use
raises again.

``derive`` runs that pass, and the CPTP verdicts validation reads, for
many theories at once: the theories of one tolerance share each pass, so
numpy's fixed cost per call is paid once per batch, not once per theory.
A lone theory derives as the batch of one, and the operands of an
isomorphism decision (``qrt_isomorphic``, ``translate.iso_conditions``)
as one batch.

All that is read after validation is labels, and ``Qrt.labeled``, the
one validity gate, returns them as a ``LabeledTheory``: nothing numeric.
Both types share the label rules (``_LabelRules``); relabeling and
restricting a labeled theory are pure maps on its labels. The label
rules include the isomorphism search's view of the theory (``_view``)
and the flow key compared before a search of condition (iii)
(``flow_key``), each cached per dim rule.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOL, MAX_CHANNELS
from .errors import DimensionMismatchError, ResourceLimitError, StructuralError
from .linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channels,
    compose,
    identity_channel,
    is_cptp,
    settle_cptp,
    trace_distance,
    within_trace_distances,
)
from .relations import bijection, reflexive_transitive_closure

ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

Node = tuple  # (system id, state id)


def node_name(node: Node) -> str:
    """The globally unique qualified name, 'system.state'."""
    return f"{node[0]}.{node[1]}"


@dataclass(frozen=True, eq=False)
class SystemDecl:
    id: str
    dim: int
    states: Mapping[str, DensityMatrix] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ChannelDecl:
    id: str
    src: str
    dst: str
    channel: KrausChannel


@dataclass(frozen=True)
class Issue:
    code: str
    subject: str
    message: str

    def to_dict(self) -> dict:
        return {"code": self.code, "subject": self.subject, "message": self.message}


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple

    @property
    def ok(self) -> bool:
        return not self.issues

    def to_dict(self) -> dict:
        return {"ok": self.ok, "issues": [i.to_dict() for i in self.issues]}

    def text(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{i.code}] {i.subject}: {i.message}" for i in self.issues)


def _matrix_is_identity(c: KrausChannel) -> bool:
    """The single Kraus operator is the identity entrywise within
    1e-12 + 1e-5 |I| (numpy's allclose rule with atol 1e-12)."""
    if c.in_dim != c.out_dim or len(c.kraus_ops) != 1:
        return False
    eye = np.eye(c.in_dim)
    return bool((np.abs(c.kraus_ops[0] - eye) <= 1e-12 + 1e-5 * eye).all())


def _settled(outcome):
    """A derivation's outcome as its result: a map, a named state or None,
    or its (error type, message) raised."""
    if isinstance(outcome, tuple):
        kind, message = outcome
        raise kind(message)
    return outcome


def _matches(dst: SystemDecl, images: np.ndarray, tol: float) -> list:
    """The outcome of matching each image of the (n, d, d) stack to the
    named states of dst, each of dim d, in order: the one named state
    within trace distance tol, None when there is none, or
    (StructuralError, message) when there are several."""
    dim = images.shape[-1]
    names = list(dst.states)
    named = np.array([dm.mat for dm in dst.states.values()]).reshape(len(names), dim, dim)
    hit = within_trace_distances(images, named, tol)
    counts = hit.sum(axis=1).tolist()
    first = (hit @ np.arange(len(names))).tolist()  # the hit of a row with exactly one

    def several(i: int) -> tuple:
        hits = sorted(names[j] for j in np.flatnonzero(hit[i]))
        return StructuralError, f"ambiguous match in system {dst.id}: {hits}"

    return [names[f] if n == 1 else several(i) if n else None for i, (n, f) in enumerate(zip(counts, first))]


def _induced_maps(derivations: Sequence[tuple], tol: float) -> list:
    """The outcome of each (channel, src, dst) triple, in order: the
    induced map, None, or (error type, message) for what deriving it one
    state at a time raises first. Every named state of src has the
    channel's input dim, and every named state of dst its output dim.

    The triples are derived in one pass per output dim: one
    ``apply_channels`` over the channels' states, whatever their input
    dims, with the channels of one destination system side by side, then
    one ``_matches`` per destination system over all of its images. A
    channel's outcome is read in state order: a failing image, a miss or
    an ambiguity, whichever comes first; else its map."""
    outcomes: list = [None] * len(derivations)
    groups: dict = {}
    for k, (c, src, dst) in enumerate(derivations):
        groups.setdefault(c.out_dim, {}).setdefault(dst, []).append((k, src.states))
    for by_dst in groups.values():
        members = [m for mine in by_dst.values() for m in mine]
        images, errors = apply_channels(
            [derivations[k][0] for k, _ in members], [tuple(states.values()) for _, states in members], tol
        )
        if errors:  # a failing image is matched as a zero matrix, and never read
            images = images.copy()
            images[list(errors)] = 0
        row = 0
        for dst, mine in by_dst.items():
            base = row
            matched = _matches(dst, images[base:base + sum(len(states) for _, states in mine)], tol)
            for k, states in mine:
                fn: dict | tuple | None = {}
                for st, r in zip(states, range(row, row + len(states))):
                    m = (type(errors[r]), str(errors[r])) if r in errors else matched[r - base]
                    if not isinstance(m, str):  # a failure or a miss settles the channel
                        fn = m
                        break
                    fn[st] = m
                outcomes[k] = fn
                row += len(states)
    return outcomes


# a system as a LabeledTheory holds it: id, dim and state names in declaration order
SystemLabels = namedtuple("SystemLabels", "id dim states")


class _LabelRules:
    """The label rules of a theory, read off its ``systems`` (each with an
    ``id``, a ``dim`` and ``states`` that iterate as the state names), its
    ``trivial_id`` and its ``rows``: (channel id, src, dst, function key)
    per channel in declaration order, the key being the sorted item tuple
    of the channel's induced function. Each is computed once."""

    @cached_property
    def _by_id(self) -> dict:
        return {s.id: s for s in self.systems}

    def system(self, sid: str):
        return self._by_id[sid]

    @cached_property
    def nodes(self) -> tuple:
        return tuple((s.id, st) for s in self.systems for st in sorted(s.states))

    @cached_property
    def functions(self) -> dict:
        """{(src, dst): {function key: representative channel id}}: the
        first channel of each key represents it."""
        table: dict = {}
        for cid, src, dst, key in self.rows:
            table.setdefault((src, dst), {}).setdefault(key, cid)
        return table

    @cached_property
    def edges(self) -> frozenset:
        """The conversion edges: (source node, target node, channel id) for
        every channel and named source state."""
        return frozenset(((src, st), (dst, img), cid) for cid, src, dst, key in self.rows for st, img in key)

    @cached_property
    def trivial_node(self) -> Node | None:
        if self.trivial_id is None:
            return None
        if self.trivial_id not in self._by_id:
            raise StructuralError(f"trivial system {self.trivial_id} not declared")
        states = sorted(self._by_id[self.trivial_id].states)
        return (self.trivial_id, states[0]) if len(states) == 1 else None

    @cached_property
    def preorder(self) -> frozenset:
        """Convertibility: reflexive-transitive reachability over edges."""
        return reflexive_transitive_closure(((a, b) for a, b, _ in self.edges), self.nodes)

    @cached_property
    def free_states(self) -> frozenset:
        """Named states convertible from the trivial state: its up-set in
        the preorder. The trivial state itself is excluded (it is neither
        free nor a resource)."""
        start = self.trivial_node
        if start is None:
            if any(self._by_id[src].dim == 1 for _, src, _, _ in self.rows):
                raise StructuralError("preparations declared but no trivial system")
            return frozenset()
        return frozenset(b for a, b in self.preorder if a == start and b != start)

    @cached_property
    def true_nodes(self) -> frozenset:
        """The states whose atoms are true in the translation: the free
        states, and the trivial state by the unit axiom."""
        return self.free_states | {self.trivial_node} if self.trivial_node else self.free_states

    def _view(self, match_dims: bool) -> tuple:
        """``_search_view``, built once per dim rule and cached on the
        theory."""
        views = self.__dict__.setdefault("_views", {})
        if match_dims not in views:
            views[match_dims] = _search_view(self, match_dims)
        return views[match_dims]

    @cached_property
    def _flow(self) -> dict:
        """{system id: (out, in, hit)}: its out- and in-degree in the
        relation "some function runs a -> b, with a != b and a holding a
        named state", and how many of its states functions from other
        systems hit."""
        runs = [(a, b) for a, b in self.functions if a != b and self._by_id[a].states]
        hit = {s.id: set() for s in self.systems}
        for (a, b), fns in self.functions.items():
            if a != b:
                hit[b].update(img for key in fns for _, img in key)
        outs, ins = Counter(a for a, _ in runs), Counter(b for _, b in runs)
        return {sid: (outs[sid], ins[sid], len(states)) for sid, states in hit.items()}

    def flow_key(self, match_dims: bool) -> tuple:
        """The sorted (system colour in ``_view(match_dims)``, flow) pairs,
        one per system: the key ``translate.iso_conditions`` compares
        before (iii) searches, and the harness buckets theories by. Built
        once per dim rule and cached on the theory."""
        keys = self.__dict__.setdefault("_flow_keys", {})
        if match_dims not in keys:
            colour = self._view(match_dims)[1]
            keys[match_dims] = tuple(sorted((colour[(sid,)], flow) for sid, flow in self._flow.items()))
        return keys[match_dims]


@dataclass(frozen=True)
class LabeledTheory(_LabelRules):
    """A valid theory's labels (``_LabelRules``) and nothing numeric, as
    ``Qrt.labeled`` makes them. Its copies are label maps: they validate
    nothing and derive nothing."""

    systems: tuple  # of SystemLabels
    trivial_id: str | None
    rows: tuple

    @property
    def labeled(self) -> LabeledTheory:
        return self

    def relabeled(self, sys_map: Mapping[str, str], state_maps: Mapping[str, Mapping[str, str]]) -> LabeledTheory:
        """``Qrt.relabeled`` of the labels: the same names, and errors."""
        new = _renaming(self.systems, sys_map, state_maps)
        return LabeledTheory(
            tuple(SystemLabels(new[s.id][0], s.dim, tuple(new[s.id][1].values())) for s in self.systems),
            new[self.trivial_id][0] if self.trivial_id else None,
            tuple(
                (cid, new[a][0], new[b][0], tuple(sorted((new[a][1][x], new[b][1][y]) for x, y in key)))
                for cid, a, b, key in self.rows
            ),
        )

    def restricted(self, keep: Iterable[str]) -> LabeledTheory:
        """The restriction to the given systems: rows with a dropped
        endpoint go, and so does the trivial id when its system does."""
        kept = set(keep)
        systems = tuple(s for s in self.systems if s.id in kept)
        if not systems:
            raise StructuralError("a sub-theory needs at least one system")
        rows = tuple(r for r in self.rows if r[1] in kept and r[2] in kept)
        return LabeledTheory(systems, self.trivial_id if self.trivial_id in kept else None, rows)


def _renaming(systems: Sequence, sys_map: Mapping[str, str], state_maps: Mapping[str, Mapping[str, str]]) -> dict:
    """{system id: (new id, {state: new name})}; an id the maps leave out
    keeps its name. Raises StructuralError when two systems, or two states
    of one system, would share a name."""
    names: dict = {}
    for sid in dict.fromkeys(s.id for s in systems):
        new = sys_map.get(sid, sid)
        if names.setdefault(new, sid) != sid:
            raise StructuralError(f"relabeling maps systems {names[new]} and {sid} both to {new}")
    out: dict = {}
    for s in systems:
        smap, seen = state_maps.get(s.id, {}), set()
        renamed = out.setdefault(s.id, (sys_map.get(s.id, s.id), {}))[1]
        for st in s.states:
            renamed[st] = new = smap.get(st, st)
            if new in seen:
                raise StructuralError(f"relabeling maps two states of system {s.id} to {new}")
            seen.add(new)
    return out


class Qrt(_LabelRules):
    """An immutable finite theory.

    Every derived artifact (the induced function of each channel, the
    validation report, the label rules' artifacts and the labeled theory)
    is computed at most once per instance and memoised on it. Changing a
    ``SystemDecl.states`` mapping after construction is therefore
    unsupported: the memos would go stale."""

    def __init__(
        self,
        systems: Sequence[SystemDecl],
        channels: Sequence[ChannelDecl] = (),
        trivial: str | None = None,
        tol: float = DEFAULT_TOL,
    ):
        self._systems = tuple(systems)
        chans = list(channels)
        taken = {c.id for c in chans}
        # the identity channel on every system is mandatory; add it when absent
        for s in self._systems:
            if any(c.src == s.id == c.dst and _matrix_is_identity(c.channel) for c in chans):
                continue
            cid = f"id_{s.id}"
            while cid in taken:
                cid += "_"
            taken.add(cid)
            chans.append(ChannelDecl(cid, s.id, s.id, identity_channel(s.dim)))
        self._channels = tuple(chans)
        if trivial is None:
            ones = [s.id for s in self._systems if s.dim == 1]
            trivial = ones[0] if len(ones) == 1 else None
        self._trivial = trivial
        self.tol = tol
        # ChannelDecl -> the outcome of _induced_maps: the induced function,
        # None (an image misses the named universe) or (error type, message)
        self._induced: dict = {}
        # {(src, dst): function keys} of the closure that made this theory,
        # whose last sweep found no composite missing; None for any other
        self._closure_keys: dict | None = None

    @property
    def systems(self) -> tuple:
        return self._systems

    @property
    def channels(self) -> tuple:
        return self._channels

    @property
    def trivial_id(self) -> str | None:
        return self._trivial

    def match_named(self, sid: str, dm: DensityMatrix) -> str | None:
        """The unique named state of system sid within trace distance tol,
        or None: ``_matches`` of the one state.

        Raises StructuralError when more than one named state matches, and
        DimensionMismatchError when a named state has another dim than dm."""
        dst = self._by_id[sid]
        odd = next((s.dim for s in dst.states.values() if s.dim != dm.dim), None)
        if odd is not None:
            raise DimensionMismatchError(f"dims differ: {dm.dim} vs {odd}")
        (outcome,) = _matches(dst, dm.mat[None], self.tol)
        return _settled(outcome)

    def _outcome(self, decl: ChannelDecl):
        """The channel's ``_induced_maps`` outcome, derived once per channel
        and shared, so readers must not change it. The first lookup of a
        channel not yet derived derives every such channel, in one pass
        (``_derive_maps`` of this theory)."""
        if decl not in self._induced:
            _derive_maps((self,))
        return self._induced[decl]

    def _function(self, decl: ChannelDecl) -> dict | None:
        """The channel's induced map, or None; a failure raises its error
        again on every call."""
        return _settled(self._outcome(decl))

    @cached_property
    def rows(self) -> tuple:
        """(channel id, src, dst, function key) for every channel, in
        declaration order. Raises StructuralError for the first channel
        whose function leaves the named universe."""
        rows = []
        for decl in self._channels:
            fn = self._function(decl)
            if fn is None:
                raise StructuralError(f"channel {decl.id} does not preserve the named universe")
            rows.append((decl.id, decl.src, decl.dst, tuple(sorted(fn.items()))))
        return tuple(rows)

    @cached_property
    def labeled(self) -> LabeledTheory:
        """The theory's labels: the one validity gate, which raises
        StructuralError for an invalid theory."""
        report = self.validate()
        if not report.ok:
            raise StructuralError(f"source theory is invalid: {report.text()}")
        systems = tuple(SystemLabels(s.id, s.dim, tuple(s.states)) for s in self._systems)
        return LabeledTheory(systems, self._trivial, self.rows)

    def relabeled(self, sys_map: Mapping[str, str], state_maps: Mapping[str, Mapping[str, str]]) -> Qrt:
        """A fresh theory over this one's channel and state matrices with
        systems and states renamed; an id the maps leave out keeps its
        name. It derives its induced functions itself. Raises
        StructuralError when two systems, or two states of one system,
        would share a name."""
        new = _renaming(self._systems, sys_map, state_maps)
        systems = [SystemDecl(new[s.id][0], s.dim, {new[s.id][1][st]: dm for st, dm in s.states.items()}) for s in self._systems]
        channels = [ChannelDecl(d.id, sys_map.get(d.src, d.src), sys_map.get(d.dst, d.dst), d.channel) for d in self._channels]
        trivial = sys_map.get(self._trivial, self._trivial) if self._trivial else None
        return Qrt(systems, channels, trivial, self.tol)

    # -- validation -----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """The validation report, computed once per instance."""
        return self._report

    @cached_property
    def _report(self) -> ValidationReport:
        issues: list[Issue] = []
        seen_sys: set[str] = set()
        for s in self._systems:
            if not ID_RE.match(s.id):
                issues.append(Issue("bad-id", s.id, "system id is not an identifier"))
            if s.id in seen_sys:
                issues.append(Issue("duplicate-id", s.id, "duplicate system id"))
            seen_sys.add(s.id)
            for st, dm in s.states.items():
                if not ID_RE.match(st):
                    issues.append(Issue("bad-id", f"{s.id}.{st}", "state id is not an identifier"))
                if dm.dim != s.dim:
                    why = f"state dim {dm.dim} != system dim {s.dim}"
                    issues.append(Issue("dim-mismatch", f"{s.id}.{st}", why))
            # ambiguity: two named states of one dim closer than the matching radius allows
            by_dim: dict = {}
            for st in sorted(s.states):
                by_dim.setdefault(s.states[st].dim, []).append(st)
            near = []
            for names in by_dim.values():
                if len(names) > 1:
                    stack = np.array([s.states[st].mat for st in names])
                    rows = within_trace_distances(stack, stack, 2 * self.tol).tolist()
                    for i, st1 in enumerate(names):
                        near += ((st1, st2) for st2, hit in zip(names[i + 1:], rows[i][i + 1:]) if hit)
            for st1, st2 in sorted(near):
                why = f"named states only {trace_distance(s.states[st1], s.states[st2]):.3e} apart"
                issues.append(Issue("ambiguous-states", f"{s.id}.{st1}/{st2}", why))

        ones = [s for s in self._systems if s.dim == 1]
        if len(ones) > 1:
            issues.append(
                Issue("bad-trivial", ",".join(s.id for s in ones), "more than one one-dimensional system")
            )
        for s in ones:
            if len(s.states) != 1:
                issues.append(
                    Issue("bad-trivial", s.id, "the trivial system must have exactly one state")
                )
        if self._trivial is not None:
            t = self._by_id.get(self._trivial)
            if t is None:
                issues.append(Issue("bad-trivial", self._trivial, "trivial system not declared"))
            elif t.dim != 1:
                issues.append(Issue("bad-trivial", self._trivial, "trivial system must have dim 1"))

        derive((self,))
        closure_ok = all(misfit is None for _, _, misfit in self._checked)
        for decl, found, misfit in self._checked:
            issues += found
            if misfit is not None:
                continue
            ok, why = is_cptp(decl.channel, self.tol)
            if not ok:
                issues.append(Issue("non-cptp", decl.id, why))
                closure_ok = False
                continue
            fn = self._outcome(decl)
            if fn is None or isinstance(fn, tuple):
                # a miss, an ambiguous match or an image that fails the state checks
                why = fn[1] if fn else "some named state's image matches no named state"
                issues.append(Issue("state-closure", decl.id, why))
                closure_ok = False

        if closure_ok:
            for s in self._systems:
                fns = self.functions.get((s.id, s.id), {})
                ident = tuple(sorted((st, st) for st in s.states))
                if ident not in fns:
                    issues.append(
                        Issue("missing-identity", s.id, "no channel induces the identity")
                    )
            issues += (
                Issue(
                    "composition-closure",
                    f"{a}->{b}->{c}",
                    "composite state function is not induced by any channel",
                )
                for a, b, _, c, _, _ in self._missing_compositions
            )
        return ValidationReport(tuple(issues))

    @cached_property
    def _checked(self) -> tuple:
        """(channel, its issues before the CPTP check, why it does not fit
        its systems or None) for every channel, in declaration order. Only
        a channel that fits reaches the CPTP check, and only it is applied."""
        # its named states cannot pass through a system with a state of
        # another dim; the validation report names that state
        misdimensioned = {s.id for s in self._systems if any(dm.dim != s.dim for dm in s.states.values())}
        seen: set[str] = set()
        checked = []
        for decl in self._channels:
            found = []
            if decl.id in seen:
                found.append(Issue("duplicate-id", decl.id, "duplicate channel id"))
            seen.add(decl.id)
            src, dst = self._by_id.get(decl.src), self._by_id.get(decl.dst)
            if src is None or dst is None:
                misfit = f"endpoints {decl.src}->{decl.dst} undeclared"
                found.append(Issue("unknown-system", decl.id, misfit))
            elif decl.channel.in_dim != src.dim or decl.channel.out_dim != dst.dim:
                misfit = f"kraus shape {decl.channel.out_dim}x{decl.channel.in_dim} != {dst.dim}x{src.dim}"
                found.append(Issue("dim-mismatch", decl.id, misfit))
            else:
                odd = next((sid for sid in (decl.src, decl.dst) if sid in misdimensioned), None)
                misfit = None if odd is None else f"system {odd} holds a state of another dim"
            checked.append((decl, found, misfit))
        return tuple(checked)

    @cached_property
    def _missing_compositions(self) -> list:
        """The composable function pairs whose composite no channel
        induces: ``_missing_composites`` of ``functions``, in its
        (a, b, f, c, g) order. Empty without a sweep when ``functions``
        has exactly the pairs and function keys of the closure that made
        this theory: that closure's last sweep found nothing missing, and
        a sweep reads nothing else."""
        if {pair: fns.keys() for pair, fns in self.functions.items()} == self._closure_keys:
            return []
        return _missing_composites(self.functions)


def _derive_maps(theories: Iterable[Qrt]) -> None:
    """Settle the outcome of every channel of the theories that has none
    yet, with one ``_induced_maps`` call per tolerance: theories of one
    tolerance share its passes. A theory given twice is taken once, by
    identity. Only the channels that fit their systems (``Qrt._checked``)
    are applied; every other one settles, unapplied, as a StructuralError
    naming it and why it does not fit."""
    todo: dict = {}  # tol -> [(theory, channel)]
    for q in dict.fromkeys(theories):
        for d, _, misfit in q._checked:
            if d in q._induced:
                continue
            if misfit is None:
                todo.setdefault(q.tol, []).append((q, d))
            else:
                q._induced[d] = (StructuralError, f"channel {d.id}: {misfit}")
    for tol, pending in todo.items():
        outcomes = _induced_maps([(d.channel, q._by_id[d.src], q._by_id[d.dst]) for q, d in pending], tol)
        for (q, d), outcome in zip(pending, outcomes):
            q._induced[d] = outcome


def derive(theories: Iterable[Qrt]) -> None:
    """Settle what validating each theory derives, for all of them at
    once: the outcome of every channel not yet derived (``_derive_maps``,
    one state check per output dim and one match per destination system)
    and the CPTP verdict of every channel validation checks, with one
    ``settle_cptp`` call per tolerance. A theory given twice is taken
    once. A batch only adds rows to the one-theory passes, and every sum
    runs in Kraus-term order, so each outcome and verdict is the one the
    theory would settle alone. An eigensolve that fails leaves its
    channel unsettled, and validating its theory raises the error."""
    theories = list(theories)
    _derive_maps(theories)
    checked: dict = {}  # tol -> the channels validation checks
    for q in theories:
        checked.setdefault(q.tol, []).extend(d.channel for d, _, misfit in q._checked if misfit is None)
    for tol, channels in checked.items():
        settle_cptp(channels, tol)


def _missing_composites(table: Mapping) -> list:
    """Every composable pair of functions in ``table``, {(src, dst):
    {function key: representative}} with each key a function's sorted item
    tuple, whose composite g . f is not in the table, as (a, b, f, c, g,
    composite key) with f and g representatives.
    Listed in (a, b, f, c, g) order: pairs, then function keys, sorted."""
    # each pair's functions as sorted (key, map, representative) rows
    rows = {pair: [(key, dict(key), fns[key]) for key in sorted(fns)] for pair, fns in table.items()}
    after: dict = {}  # b -> [(c, rows of (b, c))], by c
    for b, c in sorted(table):
        after.setdefault(b, []).append((c, rows[(b, c)]))
    missing = []
    for a, b in sorted(table):
        nexts = [(c, grows, table.get((a, c), {})) for c, grows in after.get(b, ())]
        for fkey, _, fd in rows[(a, b)]:
            for c, grows, have in nexts:
                for _, g, gd in grows:
                    # fkey is in source-state order, and so is the composite
                    comp = tuple((s, g[t]) for s, t in fkey)
                    if comp not in have:
                        missing.append((a, b, fd, c, gd, comp))
    return missing


def complete_composition(q: Qrt) -> Qrt:
    """Close the channel set under composition at the induced-function
    level. Each function keeps its last declared channel. Each pass walks
    ``_missing_composites`` in its (a, b, f, c, g) order and synthesizes
    comp_N = g . f by Kraus composition for every composite still missing;
    passes repeat until none is. Idempotent on already-closed theories.
    More than MAX_CHANNELS functions raise ResourceLimitError."""
    table: dict = {}
    for d, (_, a, b, key) in zip(q.channels, q.rows):
        table.setdefault((a, b), {})[key] = d
    size = sum(len(fns) for fns in table.values())
    taken = {d.id for fns in table.values() for d in fns.values()}
    counter = 0
    while missing := _missing_composites(table):
        for a, _, fd, c, gd, key in missing:
            have = table.setdefault((a, c), {})
            if key in have:
                continue
            if size + 1 > MAX_CHANNELS:
                raise ResourceLimitError(f"composition closure exceeds {MAX_CHANNELS} functions")
            while f"comp_{counter}" in taken:
                counter += 1
            cid = f"comp_{counter}"
            counter += 1
            taken.add(cid)
            have[key] = ChannelDecl(cid, a, c, compose(gd.channel, fd.channel))
            size += 1
    order = {d.id: i for i, d in enumerate(q.channels)}
    out = sorted(
        (d for fns in table.values() for d in fns.values()),
        key=lambda d: (order.get(d.id, len(order)), d.id),
    )
    closed = Qrt(q.systems, out, q.trivial_id, q.tol)
    # the same channel and system objects at the same tolerance: q's settled outcomes hold
    closed._induced.update((d, q._induced[d]) for d in out if d in q._induced)
    closed._closure_keys = {pair: frozenset(fns) for pair, fns in table.items()}
    return closed


def _search_view(q: _LabelRules, match_dims: bool) -> tuple:
    """The (key, colour, links) view of q that ``bijection`` searches,
    with q's ``true_nodes`` marked, over the vertices (system,) and
    (system, state), each state linked to its system. A system's colour
    is (profile, -1), its profile being (dim if match_dims else 0, state
    count, marked-state count); a state's is (its system's profile, 1 if
    marked else 0).

    Under matched dims, marking the trivial state besides the free ones
    changes no decision: a valid theory's one dim-1 system is its trivial
    system, so a bijection that keeps dims sends it, and its one state,
    onto the other theory's, and a theory without a trivial state has
    ``true_nodes == free_states``. There each is alone in its colour
    class under either mark, so the search order is the same too."""
    nodes = q.true_nodes
    held = Counter(sid for sid, _ in nodes)
    colour, links = {}, {}
    for s in q.systems:
        profile = (s.dim if match_dims else 0, len(s.states), held[s.id])
        colour[(s.id,)], links[(s.id,)] = (profile, -1), {}
        for st in sorted(s.states):
            colour[(s.id, st)] = (profile, int((s.id, st) in nodes))
            links[(s.id,)][(s.id, st)] = 1
            links[(s.id, st)] = {(s.id,): 1}
    return tuple(sorted(colour.values())), colour, links


def _labeled_bijection(view_x: tuple, view_y: tuple, pair_ok: Callable) -> dict | None:
    """The first bijection of two ``_search_view``s, one map on the
    vertices, that keeps each system's profile, sends each state into its
    system's image and marked states onto marked ones, and satisfies
    ``pair_ok(a, b, m)`` on every ordered pair of x's systems once both
    are complete; None when there is none."""
    members = {v[0]: (v, *states) for v, states in view_x[2].items() if len(v) == 1}

    def fits(v, w, m) -> bool:
        # only a placement that completes its system brings new pairs to check
        a = v[0]
        if not all(u in m for u in members[a]):
            return True
        done = [b for b, vs in members.items() if all(u in m for u in vs)]
        return all(pair_ok(a, b, m) and pair_ok(b, a, m) for b in done)

    return bijection(view_x, view_y, fits)


def qrt_isomorphic(x: _LabelRules, y: _LabelRules) -> tuple[bool, tuple[dict, dict] | None]:
    """Labeled-structure isomorphism: a bijection of systems (matching
    dims) plus per-system bijections of named states that carry x's
    induced state functions and free set onto y's.

    A positive answer certifies isomorphism of the induced labeled
    structures only; whether the bijection lifts to Hilbert-space
    isomorphisms intertwining the channel matrices is not decided here.

    The operands that are ``Qrt``s derive in one pass before either is
    read; a ``LabeledTheory`` has nothing to derive. Nothing is validated."""

    def transported(a: str, b: str, m: dict) -> bool:
        fx = x.functions.get((a, b), {})
        fy = y.functions.get((m[(a,)][0], m[(b,)][0]), {})
        return len(fx) == len(fy) and {
            tuple(sorted((m[(a, s)][1], m[(b, i)][1]) for s, i in key)) for key in fx
        } == fy.keys()

    _derive_maps(t for t in (x, y) if isinstance(t, Qrt))
    m = _labeled_bijection(x._view(True), y._view(True), transported)
    if m is None:
        return False, None
    sys_map = {v[0]: w[0] for v, w in m.items() if len(v) == 1}
    return True, (sys_map, {v: w for v, w in m.items() if len(v) == 2})

