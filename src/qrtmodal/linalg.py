"""Complex matrix substrate: density matrices, Kraus-form channels,
CPTP verification, channel application and composition.

Matrices are plain numpy arrays of complex128. Channels are stored in
Kraus form only, as one read-only (n_ops, out_dim, in_dim) array; the
Choi matrix is derived on demand.

The theory layer asks four questions of its channels, and each costs one
pass: ``apply_channels`` applies a group of channels of one output dim,
each to its own stack of states, with one Kraus sum per input dim over
their zero-padded Kraus lists, checks all the images with one eigensolve
call and returns the error of each image that fails;
``within_trace_distances`` decides, for every (state, candidate) pair
at once, whether the two lie within a radius, from one array of
Frobenius bounds, and diagonalises only a pair the bounds leave open;
its candidates are either one stack shared by every state or each
state's own row of a stack, padded to one width;
``settle_cptp`` decides whether each channel of a group is CPTP, with
one Kraus sum per (in_dim, out_dim) for every trace-preservation defect
and one eigensolve over the Choi matrices of each Choi size, and keeps
the verdict on the immutable channel, per tolerance; ``compose`` forms
every Kraus product of two channels in one broadcast product.
``apply_channel`` and ``is_cptp`` are the one-state and one-channel
cases of the first and third. A sum over Kraus terms runs in term
order, one stacked term at a time, so a zero-padded term adds exact
zeros and every result has the bits of its channel's own sum; the
stacks are cut into blocks of bounded size, so memory stays linear.
The tolerance semantics are those of the plain rules: a bound only
skips an eigensolve whose outcome it proves.
"""

from __future__ import annotations

import math
from functools import cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_TOL, MAX_DIM
from .errors import DimensionMismatchError, NumericalError, ShapeError


def as_matrix(obj) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeError("matrix has a non-finite (NaN or infinite) entry")
    return m


# Matrix entries a stacked kernel holds at once: Kraus sums, CPTP groups
# and the trace-distance bounds run over blocks no larger than this
_BOUND_BLOCK = 1 << 20


def _eigh(m: np.ndarray, vectors: bool = False):
    """Eigenvalues (and, with vectors, eigenvectors) of a Hermitian
    matrix; a LAPACK failure is raised as a NumericalError."""
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc


def _check_dim_cap(dim: int) -> None:
    if dim > MAX_DIM:
        raise ShapeError(f"dimension {dim} exceeds the configured cap {MAX_DIM}")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dag) / 2, of a matrix or of each matrix of a stack."""
    # only unchecked input can overflow here, and the inf or NaN then fails
    # the caller's positivity test, so numpy's warning would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        return (m + np.swapaxes(m, -1, -2).conj()) / 2


def is_density_matrix(m, tol: float = DEFAULT_TOL) -> tuple[bool, str | None]:
    """Check the three state invariants: Hermitian, PSD, unit trace.

    Returns (ok, diagnostic); the diagnostic names the first violated
    invariant. Non-square or 0x0 input raises ShapeError. Eigenvalues are
    taken on the Hermitian part once Hermiticity itself has passed, which
    keeps the PSD test stable.
    """
    defect = _density_defect(as_matrix(m)[None], tol).get(0)
    if isinstance(defect, NumericalError):
        raise defect
    return defect is None, defect


def _density_defect(ms: np.ndarray, tol: float) -> dict:
    """{index: defect} for every matrix of the (n, d, d) stack ``ms`` that
    fails a state invariant. The defect is the diagnostic of the first
    invariant the matrix fails, in the order Hermitian, PSD, unit trace,
    as a check of that matrix alone gives it, or the NumericalError of its
    failed eigensolve.

    The PSD test is one eigensolve over the Hermitian matrices."""
    # finite entries can still overflow to NaN on the way, so every test
    # is written to fail, not pass, on a NaN
    if ms.shape[1] != ms.shape[2]:
        raise ShapeError(f"density matrix must be square, got {ms.shape[1:]}")
    if not ms.shape[1]:
        raise ShapeError("density matrix must have dim at least 1, got 0")
    herm = np.abs(ms - ms.conj().swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
    ok = herm <= tol
    if ok.all():
        defects: dict = {}
        keep, head = range(len(ms)), ms
    else:
        defects = {int(i): f"not Hermitian (defect {float(herm[i]):.3e})" for i in np.flatnonzero(~ok)}
        keep = np.flatnonzero(ok)
        head = ms[keep]
    lo, failed = _min_eigenvalues(hermitian_part(head))
    defects.update((int(keep[k]), exc) for k, exc in failed.items())
    tr = head.trace(axis1=1, axis2=2)
    ok = (lo >= -tol) & (np.abs(tr - 1.0) <= tol)
    for k in () if ok.all() else np.flatnonzero(~ok):
        why = (
            f"not positive semidefinite (eigenvalue {float(lo[k]):.3e})"
            if not lo[k] >= -tol else f"trace is {tr[k].real:.6f}, not 1"
        )
        defects.setdefault(int(keep[k]), why)
    return defects


def _min_eigenvalues(ms: np.ndarray) -> tuple[np.ndarray, dict]:
    """The least eigenvalue of each Hermitian matrix of the (n, d, d)
    stack ``ms``, from one eigensolve, and {index: NumericalError} for
    each matrix whose own solve fails; its least eigenvalue reads 0."""
    try:
        return _eigh(ms).min(axis=1), {}
    except NumericalError:
        # LAPACK cannot say which matrix failed the stacked solve
        lo = np.zeros(len(ms))
        failed = {}
        for k in range(len(ms)):
            try:
                lo[k] = _eigh(ms[k]).min()
            except NumericalError as exc:
                failed[k] = exc
        return lo, failed


def _state_errors(ms: np.ndarray, tol: float) -> dict:
    """{index: error} for every matrix of the (n, d, d) stack ``ms`` that
    is not a state: the ShapeError or NumericalError that
    ``DensityMatrix`` raises for it alone."""
    if ms.shape[1:] == (0, 0):  # no 0x0 matrix is a state, and each says so alone
        return {i: ShapeError("density matrix must have dim at least 1, got 0") for i in range(len(ms))}
    finite = np.isfinite(ms).all(axis=(1, 2))
    odd = () if finite.all() else np.flatnonzero(~finite)
    # a non-finite matrix is checked as a zero stand-in, whose defect is replaced
    defects = _density_defect(np.where(finite[:, None, None], ms, 0) if len(odd) else ms, tol)
    errors = {
        i: defect if isinstance(defect, NumericalError) else ShapeError(f"not a density matrix: {defect}")
        for i, defect in defects.items()
    }
    errors.update((int(i), ShapeError("matrix has a non-finite (NaN or infinite) entry")) for i in odd)
    return errors


class DensityMatrix:
    """A validated quantum state: a PSD, self-adjoint, trace-one matrix."""

    __slots__ = ("dim", "mat")

    def __init__(self, matrix, tol: float = DEFAULT_TOL):
        m = as_matrix(matrix)
        errors = _state_errors(m[None], tol)
        if errors:
            raise errors[0]
        _check_dim_cap(m.shape[0])
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "dim", int(m.shape[0]))
        object.__setattr__(self, "mat", m)

    @classmethod
    def _checked(cls, m: np.ndarray) -> "DensityMatrix":
        """Wrap a read-only matrix that has already passed the state checks."""
        dm = object.__new__(cls)
        object.__setattr__(dm, "dim", int(m.shape[0]))
        object.__setattr__(dm, "mat", m)
        return dm

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def density_matrices(matrices: Sequence[np.ndarray], tol: float = DEFAULT_TOL) -> tuple:
    """``DensityMatrix(m, tol)`` of each matrix, in order. The matrices of
    one shape are checked as one stack, and the first failing matrix in
    order raises what it raises alone."""
    by_shape: dict = {}
    for i, m in enumerate(matrices):
        by_shape.setdefault(np.shape(m), []).append(i)
    out: list = [None] * len(matrices)
    errors: dict = {}
    for shape, where in by_shape.items():
        stack = np.array([matrices[i] for i in where], dtype=complex)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] > MAX_DIM:
            # a shape no state has: every matrix of the shape fails, the first says why
            try:
                DensityMatrix(stack[0], tol)
            except (ShapeError, NumericalError) as exc:
                errors[where[0]] = exc
            continue
        errors.update((where[k], exc) for k, exc in _state_errors(stack, tol).items())
        stack.flags.writeable = False
        for i, m in zip(where, stack):
            out[i] = DensityMatrix._checked(m)
    if errors:
        raise errors[min(errors)]
    return tuple(out)


def pure_state(vec) -> DensityMatrix:
    return DensityMatrix(_projector(vec))


def _projector(vec) -> np.ndarray:
    """|v><v| for the unit vector along vec."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def basis_state(dim: int, k: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return pure_state(v)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


@cache
def scalar_one() -> DensityMatrix:
    """The single state on the trivial one-dimensional space, shared."""
    return DensityMatrix([[1.0]])


class KrausChannel:
    """A channel given by Kraus operators, each out_dim x in_dim, held as
    one read-only (n_ops, out_dim, in_dim) array ``kraus_ops``.

    Construction checks shapes only; CPTP verification is a separate
    predicate so that deliberately broken channels can be represented.
    """

    __slots__ = ("in_dim", "out_dim", "kraus_ops", "_cptp")

    def __init__(self, kraus_ops: Iterable):
        ops = list(kraus_ops)
        try:
            stack = np.array(ops, dtype=complex)
        except Exception:  # whatever the one array fails on, the per-operator checks raise
            stack = None
        if stack is None or stack.ndim != 3 or not np.isfinite(stack).all():
            # some operator fails a check: the checks of one operator at a time word it
            stack = _kraus_stack(ops)
        _check_dim_cap(max(stack.shape[1:]))
        self._init(stack)

    def _init(self, stack: np.ndarray) -> None:
        stack.flags.writeable = False
        object.__setattr__(self, "in_dim", int(stack.shape[2]))
        object.__setattr__(self, "out_dim", int(stack.shape[1]))
        object.__setattr__(self, "kraus_ops", stack)
        # tol -> is_cptp verdict; the operators never change
        object.__setattr__(self, "_cptp", {})

    @classmethod
    def _from_stack(cls, stack: np.ndarray) -> "KrausChannel":
        """The channel of a fresh (n_ops, out_dim, in_dim) array made from
        checked channels: only its entries, which can overflow, are checked."""
        if not np.isfinite(stack).all():
            raise ShapeError("matrix has a non-finite (NaN or infinite) entry")
        c = object.__new__(cls)
        c._init(np.ascontiguousarray(stack))
        return c

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __repr__(self):
        return (
            f"KrausChannel(in={self.in_dim}, out={self.out_dim}, "
            f"n_ops={len(self.kraus_ops)})"
        )


def _kraus_stack(ops: list) -> np.ndarray:
    """The one array of a list of Kraus operators, checked one operator at
    a time: the first that is no finite matrix, or has another shape than
    the first, raises."""
    mats = [as_matrix(k) for k in ops]
    if not mats:
        raise ShapeError("a channel needs at least one Kraus operator")
    for k in mats[1:]:
        if k.shape != mats[0].shape:
            raise ShapeError(f"inconsistent Kraus shapes: {k.shape} vs {mats[0].shape}")
    return np.array(mats)


def choi_matrix(c: KrausChannel) -> np.ndarray:
    """The channel's Choi matrix, sum_ij E_ij (x) Phi(E_ij): ``_choi``
    of the one channel.

    With row-major (i (x) k, j (x) l) indexing this equals
    sum_a |v_a><v_a| for v_a the column-stacked transpose of each Kraus
    operator; size (in*out) x (in*out).
    """
    return _choi(c.kraus_ops[None])[0]


def _choi(ops: np.ndarray) -> np.ndarray:
    """The Choi matrix of each channel of an (n, n_ops, out, in) stack of
    Kraus lists, zero-padded to one length: ``_term_sum`` of the outer
    products of the column-stacked operators."""
    n, terms, out_dim, in_dim = ops.shape
    vecs = ops.swapaxes(2, 3).reshape(n, terms, in_dim * out_dim)
    return _term_sum(vecs, lambda v: v[..., :, None] * v[..., None, :].conj(), (in_dim * out_dim,) * 2)


def _term_sum(ops: np.ndarray, term, shape: tuple) -> np.ndarray:
    """sum_a term(ops[:, a]) for each row of the (n, n_terms, ...) stack
    ``ops``: ``term`` maps a block of terms to the (n, block, *shape)
    stack of their images. The images are added one term at a time in
    term order, as a sum over one channel's list adds them, so a padded
    term adds exact zeros and each sum has the bits of its channel's own;
    the blocks hold at most _BOUND_BLOCK image entries, or one term."""
    n, terms = ops.shape[:2]
    acc = np.zeros((n, *shape), dtype=complex)
    step = max(1, _BOUND_BLOCK // (n * math.prod(shape) or 1))
    for lo in range(0, terms, step):
        images = term(ops[:, lo:lo + step])
        for a in range(images.shape[1]):
            acc += images[:, a]
        del images  # so that one block at a time is held
    return acc


def is_cptp(c: KrausChannel, tol: float = DEFAULT_TOL) -> tuple[bool, str | None]:
    """Trace preservation (sum K^dag K = I) and complete positivity
    (Choi matrix PSD), each within tol; a NaN fails either:
    ``settle_cptp`` of the one channel.

    The verdict is kept on the channel per tol: a channel is immutable,
    and the theories derived from one share its objects."""
    verdict = c._cptp.get(tol)
    if verdict is None:
        errors = settle_cptp((c,), tol)
        if errors:
            raise errors[c]
        verdict = c._cptp[tol]
    return verdict


def settle_cptp(channels: Iterable[KrausChannel], tol: float) -> dict:
    """Keep the ``is_cptp`` verdict at tol on each channel that has none
    yet: one trace-preservation sum per (in_dim, out_dim) group, and one
    eigensolve over the Choi matrices of every group with one in_dim *
    out_dim. Returns {channel: NumericalError} for each channel whose
    Choi eigensolve failed; such a channel keeps no verdict, and
    ``is_cptp`` raises the error again."""
    groups: dict = {}
    for c in channels:
        if tol not in c._cptp:
            groups.setdefault((c.in_dim, c.out_dim), {})[c] = None
    errors: dict = {}
    pending: dict = {}  # Choi size -> [(channels, Choi matrices)] that await their eigensolve
    for group in groups.values():
        for chunk in _chunks(list(group)):
            passed, choi = _settle_group(chunk, tol)
            if not passed:
                continue
            size = choi.shape[-1]
            # a solve holds at most _BOUND_BLOCK entries, or one run's
            held = sum(len(m) for _, m in pending.get(size, ())) * size * size
            if held and held + choi.size > _BOUND_BLOCK:
                errors.update(_settle_choi(pending.pop(size), tol))
            pending.setdefault(size, []).append((passed, choi))
    for parts in pending.values():
        errors.update(_settle_choi(parts, tol))
    return errors


def _chunks(channels: list) -> Iterator[list]:
    """The channels of one (in_dim, out_dim), longest Kraus list first, in
    runs whose zero-padded Kraus lists and Choi matrices each hold at most
    _BOUND_BLOCK entries, or of one channel."""
    channels = sorted(channels, key=lambda c: -len(c.kraus_ops))
    d = channels[0].in_dim * channels[0].out_dim
    lo = 0
    while lo < len(channels):
        hi = lo + max(1, _BOUND_BLOCK // (max(len(channels[lo].kraus_ops), d) * d or 1))
        yield channels[lo:hi]
        lo = hi


def _settle_group(channels: list, tol: float) -> tuple[list, np.ndarray | None]:
    """The trace-preservation half of ``settle_cptp`` for a run of
    channels of one (in_dim, out_dim), from one Kraus sum over the Kraus
    lists zero-padded to the longest: keep the verdict on each channel
    that fails it, and return the channels that pass with their Choi
    matrices, or None for none. Sums run in term order, so every defect
    and Choi matrix has the bits of its channel's own."""
    c0 = channels[0]
    ops = np.zeros((len(channels), max(len(c.kraus_ops) for c in channels), c0.out_dim, c0.in_dim), dtype=complex)
    for i, c in enumerate(channels):
        ops[i, :len(c.kraus_ops)] = c.kraus_ops
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        acc = _term_sum(ops, lambda k: k.conj().swapaxes(2, 3) @ k, (c0.in_dim, c0.in_dim))
        tp_defect = np.abs(acc - np.eye(c0.in_dim)).max(axis=(1, 2))
    tp = tp_defect <= tol
    for i in np.flatnonzero(~tp):
        channels[i]._cptp[tol] = False, f"not trace preserving (defect {float(tp_defect[i]):.3e})"
    passed = np.flatnonzero(tp)
    return [channels[i] for i in passed], _choi(ops[passed]) if len(passed) else None


def _settle_choi(parts: list, tol: float) -> dict:
    """Keep the complete-positivity verdict on each channel of the
    (channels, Choi matrices) parts, all of one Choi size, from one
    eigensolve; returns {channel: NumericalError} for each failed solve."""
    channels = [c for cs, _ in parts for c in cs]
    choi = parts[0][1] if len(parts) == 1 else np.concatenate([m for _, m in parts])
    lo, failed = _min_eigenvalues(hermitian_part(choi))
    for k, c in enumerate(channels):
        if k not in failed:
            c._cptp[tol] = (
                (True, None) if lo[k] >= -tol
                else (False, f"not completely positive (Choi eigenvalue {float(lo[k]):.3e})")
            )
    return {channels[k]: exc for k, exc in failed.items()}


def apply_channel(c: KrausChannel, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Evaluate sum_i K_i rho K_i^dag and re-check the state invariants:
    ``apply_channels`` of the one state.

    The caller is responsible for c being CPTP; an invariant violation in
    the output signals numerical breakdown (or a non-CPTP channel). Raises
    DimensionMismatchError for a state of the wrong dim, ShapeError for an
    image that is not a density matrix, or NumericalError."""
    if rho.dim != c.in_dim:
        raise DimensionMismatchError(f"state dim {rho.dim} does not match channel input dim {c.in_dim}")
    images, errors = apply_channels((c,), ((rho,),), tol)
    if errors:
        raise errors[0]
    return DensityMatrix._checked(images[0])


def apply_channels(
    channels: Sequence[KrausChannel], stacks: Sequence[Sequence[DensityMatrix]],
    tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, dict]:
    """The images sum_i K_i rho K_i^dag of every state of ``stacks[j]``
    under ``channels[j]``, in that order, as one read-only (n, out, out)
    array, and {row: error} for every image that is not a density matrix:
    the ShapeError, or the NumericalError of a failed eigensolve, that the
    image raises as a state. The channels share one out_dim; their in dims
    may differ, and the states of ``stacks[j]`` have ``channels[j]``'s.

    One Kraus sum runs per in dim, over the stack of every (channel, state)
    pair of that in dim, with each Kraus list zero-padded to the longest of
    that in dim and its terms kept in order: a padded term adds exact
    zeros, so each image has the bits of its channel's own sum, and the
    bits the call over that in dim's channels alone gives. One state check
    covers all the images."""
    out_dim = channels[0].out_dim
    ends = np.cumsum([len(states) for states in stacks])
    out = np.empty((int(ends[-1]), out_dim, out_dim), dtype=complex)
    by_in: dict = {}
    for j, c in enumerate(channels):
        by_in.setdefault(c.in_dim, []).append(j)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite image fails the check
        for in_dim, mine in by_in.items():
            group = [channels[j] for j in mine]
            rows = np.concatenate([np.arange(ends[j] - len(stacks[j]), ends[j]) for j in mine])
            pair_channel = np.repeat(np.arange(len(mine)), [len(stacks[j]) for j in mine])
            rhos = np.array([rho.mat for j in mine for rho in stacks[j]]).reshape(len(rows), in_dim, in_dim)
            acc = np.zeros((len(rows), out_dim, out_dim), dtype=complex)
            zero = np.zeros((out_dim, in_dim), dtype=complex)
            # term k of every pair's Kraus list, built one term at a time so
            # that the padding never holds more than one term per channel
            for k in range(max(len(c.kraus_ops) for c in group)):
                op = np.array([c.kraus_ops[k] if k < len(c.kraus_ops) else zero for c in group])[pair_channel]
                acc += op @ rhos @ op.conj().swapaxes(1, 2)
            out[rows] = acc
    out.flags.writeable = False
    return out, _state_errors(out, tol)


# Choi eigenvalues at or below this fraction of the largest are dropped
_KRAUS_CUTOFF = 1e-12


def reduce_kraus(c: KrausChannel) -> KrausChannel:
    """Canonical Kraus set recovered from the Choi eigendecomposition.

    Leaves the channel's action unchanged but bounds the number of
    operators by in_dim * out_dim; used to stop repeated composition from
    inflating the representation."""
    j = hermitian_part(choi_matrix(c))
    vals, vecs = _eigh(j, vectors=True)
    scale = max(float(vals.max()), 1.0)
    keep = vals > _KRAUS_CUTOFF * scale
    if not keep.any():
        return KrausChannel._from_stack(np.zeros((1, c.out_dim, c.in_dim), dtype=complex))
    ops = vecs.T[keep].reshape(-1, c.in_dim, c.out_dim).swapaxes(1, 2)
    return KrausChannel._from_stack(np.sqrt(vals[keep])[:, None, None] * ops)


def compose(g: KrausChannel, f: KrausChannel) -> KrausChannel:
    """The composite channel g after f, with Kraus set {G_i F_j}, i major."""
    if f.out_dim != g.in_dim:
        raise DimensionMismatchError(
            f"cannot compose: inner dims {f.out_dim} vs {g.in_dim}"
        )
    ops = g.kraus_ops[:, None] @ f.kraus_ops[None, :]
    out = KrausChannel._from_stack(ops.reshape(-1, g.out_dim, f.in_dim))
    if len(out.kraus_ops) > f.in_dim * g.out_dim:
        out = reduce_kraus(out)
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the absolute eigenvalue sum of a - b."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    eigs = _eigh(hermitian_part(a.mat - b.mat))
    return float(np.abs(eigs).sum() / 2)


# Rounding slack of the Frobenius bounds: a distance whose bounds come
# within this of the radius is computed by eigensolve instead
_GUARD = 1e-12


def within_trace_distances(a: np.ndarray, b: np.ndarray, eps: float, rows: np.ndarray | None = None) -> np.ndarray:
    """Whether the trace distance of a[i] and each of its candidates in b
    is at most eps, for two stacks of d x d states. Without rows every
    state of b is a candidate of every a[i], and the answer is the
    (len(a), len(b)) array over all pairs. With rows, an (len(a), k)
    integer array, a[i]'s c-th candidate is b[rows[i, c]]; an index below
    0 pads a row to the width k and reads False.

    For the Hermitian part D of a[i] - b[j], ||D||_F <= ||D||_1 <= sqrt(d)
    ||D||_F, so half the Frobenius norm decides a miss beyond eps + _GUARD
    and half of sqrt(d) times it a hit within eps - _GUARD; only a pair
    between the two is decided by ``trace_distance``. The rows of a are
    taken in blocks whose candidates hold at most _BOUND_BLOCK entries."""
    dim = a.shape[-1]
    width = len(b) if rows is None else rows.shape[1]
    step = max(1, _BOUND_BLOCK // max(1, width * dim * dim))
    # four times the half norms: the Frobenius norms of twice the Hermitian parts
    norm = np.concatenate([
        _hermitian_norms(a[lo:lo + step], b[None] if rows is None else b[rows[lo:lo + step]])
        for lo in range(0, max(len(a), 1), step)
    ])
    # the bounds scaled by 4, which is exact
    hit = norm * math.sqrt(dim) <= 4 * (eps - _GUARD)
    decided = hit | (norm > 4 * (eps + _GUARD))
    if rows is not None:
        pad = rows < 0
        hit &= ~pad
        decided |= pad
    if not decided.all():
        for i, c in zip(*np.nonzero(~decided)):
            j = c if rows is None else rows[i, c]
            hit[i, c] = trace_distance(DensityMatrix._checked(a[i]), DensityMatrix._checked(b[j])) <= eps
    return hit


def _hermitian_norms(a: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """The (len(a), k) Frobenius norms of d + d^dag for d = a[i] -
    cands[i, c], where the (len(a) or 1, k, d, d) stack ``cands`` holds
    each row's k candidates or one row that every row shares."""
    d = a[:, None] - cands
    sq = np.square((d + d.conj().swapaxes(-1, -2)).view(np.float64))  # squared real and imaginary parts
    return np.sqrt(sq.reshape(len(a), cands.shape[1], 2 * a.shape[-1] ** 2).sum(axis=-1))


# -- stock channels -----------------------------------------------------------


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel([np.eye(dim, dtype=complex)])


def preparation_channel(rho: DensityMatrix) -> KrausChannel:
    """The channel from the trivial space that prepares rho: z -> z*rho."""
    vals, vecs = _eigh(hermitian_part(rho.mat), vectors=True)
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > 1e-14:
            ops.append(np.sqrt(lam) * v.reshape(-1, 1))
    return KrausChannel(ops)


def trace_channel(dim: int) -> KrausChannel:
    """The unique channel into the trivial space: rho -> Tr(rho)."""
    return KrausChannel([np.eye(dim, dtype=complex)[k].reshape(1, -1) for k in range(dim)])


def constant_channel(sigma: DensityMatrix, in_dim: int) -> KrausChannel:
    """Maps every state of the input space to sigma."""
    return compose(preparation_channel(sigma), trace_channel(in_dim))


def function_channel(
    f: Sequence[int], in_dim: int, out_dim: int,
    in_frame: np.ndarray | None = None, out_frame: np.ndarray | None = None,
) -> KrausChannel:
    """Deterministic classical channel |k><k| -> |f(k)><f(k)|.

    Kraus set {W_out |f(k)><k| W_in^dag}; maps the k-th in_frame basis
    state exactly onto the f(k)-th out_frame basis state."""
    if len(f) != in_dim:
        raise ShapeError(f"need {in_dim} function values, got {len(f)}")
    w_in = np.eye(in_dim, dtype=complex) if in_frame is None else as_matrix(in_frame)
    w_out = np.eye(out_dim, dtype=complex) if out_frame is None else as_matrix(out_frame)
    ops = []
    for k, fk in enumerate(f):
        ops.append(np.outer(w_out[:, fk], w_in[:, k].conj()))
    return KrausChannel(ops)


def isometry_channel(v: np.ndarray, out_dim: int) -> KrausChannel:
    """Channel from a Stinespring isometry v: in -> out (x) env, sliced
    into out_dim x in_dim Kraus blocks."""
    v = as_matrix(v)
    rows, in_dim = v.shape
    if rows % out_dim:
        raise ShapeError(f"isometry rows {rows} not divisible by out dim {out_dim}")
    env = rows // out_dim
    # rows are indexed (out, env) in row-major order
    blocks = v.reshape(out_dim, env, in_dim)
    return KrausChannel([blocks[:, e, :] for e in range(env)])


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if rows < cols:
        raise ShapeError("an isometry needs rows >= cols")
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    # fix the phase so the result is unique given the input
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_cptp_channel(rng: np.random.Generator, in_dim: int, out_dim: int) -> KrausChannel:
    # the Stinespring isometry needs out_dim * env >= in_dim
    env = max(2, -(-in_dim // out_dim))
    v = random_isometry(rng, out_dim * env, in_dim)
    return isometry_channel(v, out_dim)


def random_density_matrix(rng: np.random.Generator, dim: int, pure: bool = False) -> np.ndarray:
    """A random state's matrix, unchecked: a pure state's projector from
    a Gaussian vector, or a Gaussian matrix's g g^dag at unit trace."""
    if pure:
        return _projector(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real
