"""Complex matrix substrate: density matrices, Kraus-form channels,
CPTP verification, channel application and composition.

Matrices are plain numpy arrays of complex128. Channels are stored in
Kraus form only; the Choi matrix is derived on demand.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, max_dim
from .errors import DimensionMismatchError, NumericalError, ShapeError


def as_matrix(obj) -> np.ndarray:
    """Coerce to a 2-D complex array with finite entries."""
    m = np.asarray(obj, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"expected a matrix, got array of ndim {m.ndim}")
    if not np.isfinite(m).all():
        raise ShapeError("matrix has a non-finite (NaN or infinite) entry")
    return m


def _eigh(m: np.ndarray, vectors: bool = False):
    """Eigenvalues (and, with vectors, eigenvectors) of a Hermitian
    matrix; a LAPACK failure is raised as a NumericalError."""
    try:
        return np.linalg.eigh(m) if vectors else np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc


def _check_dim_cap(dim: int) -> None:
    cap = max_dim()
    if dim > cap:
        raise ShapeError(f"dimension {dim} exceeds the configured cap {cap}")


def hermitian_part(m: np.ndarray) -> np.ndarray:
    # only unchecked input can overflow here, and the inf or NaN then fails
    # the caller's positivity test, so numpy's warning would only be noise
    with np.errstate(over="ignore", invalid="ignore"):
        return (m + m.conj().T) / 2


def is_density_matrix(
    m, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, str | None]:
    """Check the three state invariants: Hermitian, PSD, unit trace.

    Returns (ok, diagnostic); the diagnostic names the first violated
    invariant. Non-square input raises ShapeError. Eigenvalues are taken
    on the Hermitian part once Hermiticity itself has passed, which keeps
    the PSD test stable.
    """
    return _density_defect(as_matrix(m), tol)


def _density_defect(m: np.ndarray, tol: Tolerances) -> tuple[bool, str | None]:
    # finite entries can still overflow to NaN on the way, so every test
    # is written to fail, not pass, on a NaN
    if m.shape[0] != m.shape[1]:
        raise ShapeError(f"density matrix must be square, got {m.shape}")
    herm_defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not herm_defect <= tol.eps_herm:
        return False, f"not Hermitian (defect {herm_defect:.3e})"
    eigs = _eigh(hermitian_part(m))
    lo = float(eigs.min())
    if not lo >= -tol.eps_psd:
        return False, f"not positive semidefinite (eigenvalue {lo:.3e})"
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= tol.eps_tr:
        return False, f"trace is {tr.real:.6f}, not 1"
    return True, None


class DensityMatrix:
    """A validated quantum state: a PSD, self-adjoint, trace-one matrix."""

    __slots__ = ("dim", "mat")

    def __init__(self, matrix, tol: Tolerances = DEFAULT_TOLERANCES):
        m = as_matrix(matrix)
        ok, why = _density_defect(m, tol)
        if not ok:
            raise ShapeError(f"not a density matrix: {why}")
        _check_dim_cap(m.shape[0])
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "dim", int(m.shape[0]))
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


def pure_state(vec) -> DensityMatrix:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    v = v / np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return pure_state(v)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def scalar_one() -> DensityMatrix:
    """The single state on the trivial one-dimensional space."""
    return DensityMatrix([[1.0]])


class KrausChannel:
    """A channel given by Kraus operators, each out_dim x in_dim.

    Construction checks shapes only; CPTP verification is a separate
    predicate so that deliberately broken channels can be represented.
    """

    __slots__ = ("in_dim", "out_dim", "kraus_ops")

    def __init__(self, kraus_ops: Iterable):
        ops = tuple(as_matrix(k) for k in kraus_ops)
        if not ops:
            raise ShapeError("a channel needs at least one Kraus operator")
        out_dim, in_dim = ops[0].shape
        for k in ops[1:]:
            if k.shape != (out_dim, in_dim):
                raise ShapeError(
                    f"inconsistent Kraus shapes: {k.shape} vs {(out_dim, in_dim)}"
                )
        _check_dim_cap(max(in_dim, out_dim))
        frozen = []
        for k in ops:
            k = k.copy()
            k.flags.writeable = False
            frozen.append(k)
        object.__setattr__(self, "in_dim", int(in_dim))
        object.__setattr__(self, "out_dim", int(out_dim))
        object.__setattr__(self, "kraus_ops", tuple(frozen))

    def __setattr__(self, name, value):
        raise AttributeError("KrausChannel is immutable")

    def __repr__(self):
        return (
            f"KrausChannel(in={self.in_dim}, out={self.out_dim}, "
            f"n_ops={len(self.kraus_ops)})"
        )


def choi_matrix(c: KrausChannel) -> np.ndarray:
    """The channel's Choi matrix, sum_ij E_ij (x) Phi(E_ij).

    With row-major (i (x) k, j (x) l) indexing this equals
    sum_a |v_a><v_a| for v_a the column-stacked transpose of each Kraus
    operator; size (in*out) x (in*out).
    """
    d = c.in_dim * c.out_dim
    j = np.zeros((d, d), dtype=complex)
    for k in c.kraus_ops:
        v = k.T.reshape(-1)
        j += np.outer(v, v.conj())
    return j


def is_cptp(
    c: KrausChannel, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[bool, str | None]:
    """Trace preservation (sum K^dag K = I) and complete positivity
    (Choi matrix PSD), each within tolerance; a NaN fails either."""
    acc = np.zeros((c.in_dim, c.in_dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the test below
        for k in c.kraus_ops:
            acc += k.conj().T @ k
        tp_defect = float(np.max(np.abs(acc - np.eye(c.in_dim))))
    if not tp_defect <= tol.eps_tp:
        return False, f"not trace preserving (defect {tp_defect:.3e})"
    eigs = _eigh(hermitian_part(choi_matrix(c)))
    lo = float(eigs.min())
    if not lo >= -tol.eps_psd:
        return False, f"not completely positive (Choi eigenvalue {lo:.3e})"
    return True, None


def apply_channel(
    c: KrausChannel, rho: DensityMatrix, tol: Tolerances = DEFAULT_TOLERANCES
) -> DensityMatrix:
    """Evaluate sum_i K_i rho K_i^dag and re-check the state invariants.

    The caller is responsible for c being CPTP; an invariant violation in
    the output signals numerical breakdown (or a non-CPTP channel)."""
    if rho.dim != c.in_dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} does not match channel input dim {c.in_dim}"
        )
    out = np.zeros((c.out_dim, c.out_dim), dtype=complex)
    for k in c.kraus_ops:
        out += k @ rho.mat @ k.conj().T
    return DensityMatrix(out, tol)


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
    ops = []
    for lam, v in zip(vals, vecs.T):
        if lam > _KRAUS_CUTOFF * scale:
            ops.append(np.sqrt(lam) * v.reshape(c.in_dim, c.out_dim).T)
    if not ops:
        ops = [np.zeros((c.out_dim, c.in_dim), dtype=complex)]
    return KrausChannel(ops)


def compose(g: KrausChannel, f: KrausChannel) -> KrausChannel:
    """The composite channel g after f, with Kraus set {G_i F_j}."""
    if f.out_dim != g.in_dim:
        raise DimensionMismatchError(
            f"cannot compose: inner dims {f.out_dim} vs {g.in_dim}"
        )
    ops = [gi @ fj for gi in g.kraus_ops for fj in f.kraus_ops]
    out = KrausChannel(ops)
    if len(ops) > f.in_dim * g.out_dim:
        out = reduce_kraus(out)
    return out


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the absolute eigenvalue sum of a - b."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    eigs = _eigh(hermitian_part(a.mat - b.mat))
    return float(np.abs(eigs).sum() / 2)


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


def depolarizing_channel() -> KrausChannel:
    """The fully depolarizing qubit channel, Kraus (1/2){I, X, Y, Z}."""
    i2 = np.eye(2, dtype=complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.array([[1, 0], [0, -1]], dtype=complex)
    return KrausChannel([0.5 * i2, 0.5 * x, 0.5 * y, 0.5 * z])


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


def random_cptp_channel(
    rng: np.random.Generator, in_dim: int, out_dim: int, env_dim: int = 2
) -> KrausChannel:
    # the Stinespring isometry needs out_dim * env >= in_dim
    env = max(env_dim, -(-in_dim // out_dim))
    v = random_isometry(rng, out_dim * env, in_dim)
    return isometry_channel(v, out_dim)


def random_density(rng: np.random.Generator, dim: int, pure: bool = False) -> DensityMatrix:
    if pure:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return pure_state(v)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m).real)
