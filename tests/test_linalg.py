"""Matrix substrate tests: density predicates, Choi matrices, CPTP
verification, application, composition, trace distance, and the
one-array channel kernels against the per-operator code."""

import itertools
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qrtmodal.linalg as linalg_module
from qrtmodal.config import DEFAULT_TOL, MAX_DIM
from qrtmodal.errors import DimensionMismatchError, NumericalError, QrtModalError, ShapeError
from qrtmodal.io import FormatError, qrt_from_dict
from qrtmodal.linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    apply_channels,
    basis_state,
    choi_matrix,
    compose,
    constant_channel,
    density_matrices,
    function_channel,
    identity_channel,
    is_cptp,
    is_density_matrix,
    isometry_channel,
    maximally_mixed,
    preparation_channel,
    random_cptp_channel,
    random_isometry,
    reduce_kraus,
    scalar_one,
    settle_cptp,
    trace_channel,
    trace_distance,
    within_trace_distances,
)

from helpers import (
    depolarizing_channel,
    random_density,
    random_kraus_channel,
    reference_choi_matrix,
    reference_compose,
    reference_cptp_verdict,
    reference_kraus_ops,
    reference_reduce_kraus,
    within_trace_distance,
)


def hand_choi(channel):
    """Independent oracle: sum_ij E_ij (x) Phi(E_ij) with Phi evaluated
    entry by entry through explicit Kraus sums."""
    din, dout = channel.in_dim, channel.out_dim
    j = np.zeros((din * dout, din * dout), dtype=complex)
    for i in range(din):
        for k in range(din):
            e = np.zeros((din, din), dtype=complex)
            e[i, k] = 1.0
            phi_e = sum(op @ e @ op.conj().T for op in channel.kraus_ops)
            block = np.zeros_like(j)
            block[i * dout: (i + 1) * dout, k * dout: (k + 1) * dout] = phi_e
            j += block
    return j


class TestIsDensityMatrix:
    def test_maximally_mixed_qubit(self):
        ok, why = is_density_matrix(np.eye(2) / 2)
        assert ok and why is None

    def test_pure_projector(self):
        ok, _ = is_density_matrix(np.diag([1.0, 0.0]))
        assert ok

    def test_negative_eigenvalue(self):
        ok, why = is_density_matrix(np.diag([1.5, -0.5]))
        assert not ok
        assert "positive" in why

    def test_not_hermitian(self):
        ok, why = is_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert not ok
        assert "Hermitian" in why

    def test_wrong_trace(self):
        ok, why = is_density_matrix(np.diag([0.9, 0.0]))
        assert not ok
        assert "trace" in why

    @pytest.mark.parametrize(
        "check",
        [DensityMatrix, is_density_matrix, lambda m: density_matrices([np.eye(1), m])],
        ids=["DensityMatrix", "is_density_matrix", "density_matrices"],
    )
    def test_a_0x0_matrix_is_a_shape_error(self, check):
        with pytest.raises(ShapeError, match=r"^density matrix must have dim at least 1, got 0$"):
            check(np.zeros((0, 0)))

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            is_density_matrix(np.zeros((2, 3)))

    def test_tolerance_override(self):
        loose = 1e-2
        ok, _ = is_density_matrix(np.diag([1.001, 0.0]), loose)
        assert ok

    def test_dim_cap(self):
        over = MAX_DIM + 1
        message = rf"^dimension {over} exceeds the configured cap {MAX_DIM}$"
        with pytest.raises(ShapeError, match=message):
            DensityMatrix(np.eye(over) / over)
        with pytest.raises(ShapeError, match=message):
            KrausChannel([np.eye(over)])
        data = {"systems": [{"id": "A", "dim": over}]}
        with pytest.raises(FormatError, match=f"not an integer from 1 to {MAX_DIM}$"):
            qrt_from_dict(data)
        assert DensityMatrix(np.eye(MAX_DIM) / MAX_DIM).dim == MAX_DIM

    def test_a_failed_eigensolve_is_raised(self, monkeypatch):
        def failing(m, vectors=False):
            raise NumericalError("eigenvalue solve failed: planted")

        monkeypatch.setattr(linalg_module, "_eigh", failing)
        with pytest.raises(NumericalError, match="^eigenvalue solve failed: planted$"):
            is_density_matrix(np.eye(2) / 2)


class TestBuilders:
    def test_states_and_channels_are_immutable(self):
        for obj in (maximally_mixed(2), identity_channel(2)):
            with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
                obj.dim = 3

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: function_channel([0], 2, 2), "need 2 function values, got 1"),
            (lambda: isometry_channel(np.eye(3), 2), "isometry rows 3 not divisible by out dim 2"),
            (lambda: random_isometry(np.random.default_rng(0), 1, 2), "an isometry needs rows >= cols"),
        ],
        ids=["function_channel", "isometry_channel", "random_isometry"],
    )
    def test_a_mismatched_shape_is_a_shape_error(self, build, message):
        with pytest.raises(ShapeError, match=f"^{message}$"):
            build()


class TestChoi:
    def test_identity_channel_is_unnormalized_bell(self):
        j = choi_matrix(identity_channel(2))
        expected = np.zeros((4, 4), dtype=complex)
        for a, b in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[a, b] = 1.0
        assert np.allclose(j, expected)

    def test_depolarizing_choi_is_maximally_mixed(self):
        # oracle first: the entry-by-entry Choi sum gives I/2 exactly
        dep = depolarizing_channel()
        oracle = hand_choi(dep)
        assert np.allclose(oracle, np.eye(4) / 2)
        assert np.allclose(choi_matrix(dep), oracle)

    def test_matches_hand_oracle_on_random_channels(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            c = random_cptp_channel(rng, 3, 2)
            assert np.allclose(choi_matrix(c), hand_choi(c), atol=1e-12)

    def test_mismatched_kraus_shapes(self):
        with pytest.raises(ShapeError):
            KrausChannel([np.eye(2), np.eye(3)])


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_density_matrix_rejects_non_finite(self, bad):
        with pytest.raises(ShapeError, match="non-finite"):
            DensityMatrix([[bad, 0], [0, bad]])

    def test_kraus_operator_rejects_nan(self):
        with pytest.raises(ShapeError, match="non-finite"):
            KrausChannel([[[np.nan, 0], [0, 1]]])

    def test_overflow_to_nan_eigenvalues_fails_positivity(self):
        # finite entries whose Hermitian part overflows to NaN eigenvalues
        with np.errstate(over="ignore", invalid="ignore"):
            ok, why = is_density_matrix([[0.5, 1e308], [1e308, 0.5]])
            assert not ok and "positive semidefinite" in why
            with pytest.raises(ShapeError, match="positive semidefinite"):
                DensityMatrix([[0.5, 1e308], [1e308, 0.5]])

    def test_overflowing_kraus_operator_is_not_trace_preserving(self):
        # K^dag K overflows to a NaN defect, which used to pass the trace
        # test and then stop the Choi eigen-solve with a LinAlgError
        with np.errstate(all="ignore"):
            ok, why = is_cptp(KrausChannel([[[1e200 + 1e200j, 0], [0, 1]]]))
        assert not ok and "trace preserving" in why

    def test_overflow_raises_no_numpy_warning(self):
        # the rejection is the only thing that surfaces
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ShapeError, match="positive semidefinite"):
                DensityMatrix([[0.5, 1e308], [1e308, 0.5]])
            ok, why = is_cptp(KrausChannel([[[1e200 + 1e200j, 0], [0, 1]]]))
        assert not ok and "trace preserving" in why

    def test_lapack_failure_becomes_numerical_error(self, monkeypatch):
        def failing(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        with pytest.raises(NumericalError, match="did not converge"):
            is_cptp(identity_channel(2))


class TestIsCptp:
    def test_identity(self):
        ok, why = is_cptp(identity_channel(2))
        assert ok and why is None

    def test_depolarizing(self):
        dep = depolarizing_channel()
        # normalization verified by hand before trusting the predicate
        acc = sum(k.conj().T @ k for k in dep.kraus_ops)
        assert np.allclose(acc, np.eye(2))
        ok, _ = is_cptp(dep)
        assert ok

    def test_trace_inflating_map(self):
        ok, why = is_cptp(KrausChannel([np.diag([1.0, 1.1])]))
        assert not ok
        assert "trace" in why


class TestApply:
    def test_identity_preserves_state(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 2)
        out = apply_channel(identity_channel(2), rho)
        assert trace_distance(out, rho) < 1e-12

    def test_depolarizing_sends_pure_to_mixed(self):
        dep = depolarizing_channel()
        rho = basis_state(2, 0)
        # hand oracle: sum_i K_i rho K_i^dag
        oracle = sum(k @ rho.mat @ k.conj().T for k in dep.kraus_ops)
        assert np.allclose(oracle, np.eye(2) / 2)
        out = apply_channel(dep, rho)
        assert trace_distance(out, maximally_mixed(2)) < 1e-12

    def test_preparation_from_scalar(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        out = apply_channel(preparation_channel(rho), scalar_one())
        assert trace_distance(out, rho) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_channel(identity_channel(3), basis_state(2, 0))


class TestCompose:
    def test_identity_is_neutral(self):
        rng = np.random.default_rng(5)
        f = random_cptp_channel(rng, 2, 3)
        c = compose(identity_channel(3), f)
        for k in range(2):
            rho = basis_state(2, k)
            assert trace_distance(
                apply_channel(c, rho), apply_channel(f, rho)
            ) < 1e-12

    def test_depolarizing_fixed_point(self):
        dep = depolarizing_channel()
        twice = compose(dep, dep)
        out = apply_channel(twice, basis_state(2, 0))
        assert trace_distance(out, maximally_mixed(2)) < 1e-12

    def test_preparation_after_trace_is_constant(self):
        rng = np.random.default_rng(9)
        sigma = random_density(rng, 2)
        const = compose(preparation_channel(sigma), trace_channel(3))
        for _ in range(5):
            rho = random_density(rng, 3)
            assert trace_distance(apply_channel(const, rho), sigma) < 1e-12

    def test_constant_channel_helper_agrees(self):
        rng = np.random.default_rng(13)
        sigma = random_density(rng, 2)
        const = constant_channel(sigma, 3)
        rho = random_density(rng, 3)
        assert trace_distance(apply_channel(const, rho), sigma) < 1e-12

    def test_composition_is_cptp(self):
        rng = np.random.default_rng(17)
        f = random_cptp_channel(rng, 2, 3)
        g = random_cptp_channel(rng, 3, 2)
        ok, why = is_cptp(compose(g, f))
        assert ok, why

    def test_inner_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(identity_channel(2), identity_channel(3))

    def test_an_all_zero_composite_reduces_to_one_zero_operator(self):
        # five operators exceed in_dim * out_dim, so the composite is reduced
        c = compose(identity_channel(2), KrausChannel([np.zeros((2, 2))] * 5))
        ops = np.asarray(c.kraus_ops)
        assert ops.shape == (1, 2, 2) and not ops.any()


class TestTraceDistance:
    def test_zero_on_equal(self):
        rho = maximally_mixed(3)
        assert trace_distance(rho, rho) == 0

    def test_orthogonal_pure_states(self):
        assert abs(trace_distance(basis_state(2, 0), basis_state(2, 1)) - 1.0) < 1e-12

    def test_pure_versus_mixed(self):
        d = trace_distance(basis_state(2, 0), maximally_mixed(2))
        assert abs(d - 0.5) < 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        a, b = random_density(rng, 3), random_density(rng, 3)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            trace_distance(basis_state(2, 0), maximally_mixed(3))


class TestRandomChannelProperties:
    def test_apply_preserves_state_invariants(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            din = int(rng.integers(2, 5))
            dout = int(rng.integers(2, 5))
            c = random_cptp_channel(rng, din, dout)
            rho = random_density(rng, din)
            out = apply_channel(c, rho)  # construction re-checks invariants
            assert out.dim == dout

    def test_choi_psd_and_trace(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            din = int(rng.integers(2, 4))
            c = random_cptp_channel(rng, din, int(rng.integers(2, 4)))
            j = choi_matrix(c)
            eigs = np.linalg.eigvalsh((j + j.conj().T) / 2)
            assert eigs.min() >= -1e-7
            assert abs(np.trace(j).real - din) < 1e-7

    def test_compose_associative_extensionally(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            f = random_cptp_channel(rng, 2, 3)
            g = random_cptp_channel(rng, 3, 2)
            h = random_cptp_channel(rng, 2, 2)
            rho = random_density(rng, 2)
            left = apply_channel(compose(h, compose(g, f)), rho)
            right = apply_channel(compose(compose(h, g), f), rho)
            assert trace_distance(left, right) < 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-9


# -- the stacked image check against the per-state rule ---------------------------


def reference_density_defect(m, tol):
    """The state check of one matrix, as it stood before the check was
    stacked: Hermitian, then PSD, then unit trace."""
    herm_defect = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if not herm_defect <= tol:
        return False, f"not Hermitian (defect {herm_defect:.3e})"
    with np.errstate(over="ignore", invalid="ignore"):
        h = (m + m.conj().T) / 2
    try:
        eigs = np.linalg.eigvalsh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue solve failed: {exc}") from exc
    lo = float(eigs.min())
    if not lo >= -tol:
        return False, f"not positive semidefinite (eigenvalue {lo:.3e})"
    tr = complex(np.trace(m))
    if not abs(tr - 1.0) <= tol:
        return False, f"trace is {tr.real:.6f}, not 1"
    return True, None


def reference_apply(c, rho, tol=DEFAULT_TOL):
    """One state through the channel, as a per-state apply_channel did it."""
    if rho.dim != c.in_dim:
        raise DimensionMismatchError(
            f"state dim {rho.dim} does not match channel input dim {c.in_dim}"
        )
    out = np.zeros((c.out_dim, c.out_dim), dtype=complex)
    with np.errstate(all="ignore"):
        for k in c.kraus_ops:
            out += k @ rho.mat @ k.conj().T
    if not np.isfinite(out).all():
        raise ShapeError("matrix has a non-finite (NaN or infinite) entry")
    ok, why = reference_density_defect(out, tol)
    if not ok:
        raise ShapeError(f"not a density matrix: {why}")
    return out


def outcome(run):
    """("ok", images) or (exception type, message) of one run."""
    try:
        return "ok", run()
    except QrtModalError as exc:
        return type(exc), str(exc)


def stacked(c, states, tol=DEFAULT_TOL):
    """The outcome of each state's image, in order: ("ok", image) or the
    type and text of its error from one ``apply_channels`` over the states
    before the first of another dim, then ``apply_channel``'s outcome for
    that state."""
    n = next((i for i, rho in enumerate(states) if rho.dim != c.in_dim), len(states))
    images, errors = apply_channels([c], [states[:n]], tol)
    got = [(type(errors[i]), str(errors[i])) if i in errors else ("ok", images[i]) for i in range(n)]
    if n < len(states):
        got.append(outcome(lambda: apply_channel(c, states[n], tol).mat))
    return got


def per_state(c, states, tol=DEFAULT_TOL):
    """reference_apply's outcome for each state, in order, up to the first
    state of another dim."""
    got = []
    for rho in states:
        got.append(outcome(lambda: reference_apply(c, rho, tol)))
        if rho.dim != c.in_dim:
            break
    return got


def same_outcome(got, want) -> bool:
    if len(got) != len(want):
        return False
    for (kind, value), (want_kind, want_value) in zip(got, want):
        if kind != want_kind:
            return False
        if not (np.array_equal(value, want_value) if kind == "ok" else value == want_value):
            return False
    return True


def skewed_state(defect):
    """|0><0| plus an anti-Hermitian part whose Hermiticity defect is defect."""
    skew = np.array([[0, defect / 2], [-defect / 2, 0]], dtype=complex)
    return DensityMatrix(basis_state(2, 0).mat + skew)


# states that pass their own check but fail through a non-unital map
STATE_POOL = {
    "zero": basis_state(2, 0),
    "one": basis_state(2, 1),
    "mixed": maximally_mixed(2),
    "skewed": skewed_state(0.9e-9),  # Hermitian to within tol
    "negative": DensityMatrix(np.diag([1 + 0.9e-9, -0.9e-9])),  # PSD to within tol
    "qutrit": basis_state(3, 0),  # of the wrong dim for every channel below
}

CHANNELS = {
    "identity": identity_channel(2),
    # 100 x the state: amplifies the skewed state's defect and the negative
    # state's eigenvalue past the tolerance; every image has trace 100
    "amplify": KrausChannel([10 * np.eye(2)]),
    "inflate": KrausChannel([np.diag([1.0, 1.1])]),  # trace 1.21 on |1><1|
    "overflow": KrausChannel([np.diag([1.0, 1e200])]),  # inf on |1><1|
}

# channels into dim 2 from dims 1, 2 and 3, each with its states, of
# Kraus lists of one to four terms
MIXED_POOL = {
    "prepare": (preparation_channel(maximally_mixed(2)), (scalar_one(),)),
    "identity": (identity_channel(2), (basis_state(2, 0), STATE_POOL["skewed"])),
    "depolarize": (depolarizing_channel(), (basis_state(2, 1), maximally_mixed(2))),
    "inflate": (CHANNELS["inflate"], (basis_state(2, 0), basis_state(2, 1))),  # not CPTP: |1>'s image fails
    "overflow": (CHANNELS["overflow"], (basis_state(2, 1),)),  # a non-finite image
    "narrow": (random_kraus_channel(np.random.default_rng(47), 3, 2, 3), (basis_state(3, 2), maximally_mixed(3))),
    "idle": (random_cptp_channel(np.random.default_rng(48), 3, 2), ()),  # no states
}


class TestApplyChannelStack:
    """``apply_channels``' image and error of every state, against the
    per-state rule."""

    def test_each_failure_kind_matches_the_per_state_rule(self):
        cases = {
            "non-Hermitian image": ("amplify", ["skewed"], "not Hermitian"),
            "non-PSD image": ("amplify", ["negative"], "positive semidefinite"),
            "trace not 1": ("inflate", ["zero", "one"], "trace is 1.210000"),
            "overflow to inf": ("overflow", ["zero", "one"], "non-finite"),
            "wrong dim": ("identity", ["zero", "qutrit"], "state dim 3"),
        }
        for name, (cname, names, text) in cases.items():
            states = [STATE_POOL[n] for n in names]
            got = stacked(CHANNELS[cname], states)
            assert any(kind != "ok" and text in value for kind, value in got), name
            assert same_outcome(got, per_state(CHANNELS[cname], states)), name

    def test_first_failing_state_in_order_matches_the_per_state_rule(self):
        # every state's outcome, so the failing images after the first too
        for c in CHANNELS.values():
            for names in itertools.permutations(STATE_POOL, 3):
                states = [STATE_POOL[n] for n in names]
                got, want = stacked(c, states), per_state(c, states)
                assert same_outcome(got, want), (c, names, got, want)

    def test_failed_eigensolve_reports_the_first_failure_in_order(self, monkeypatch):
        # a solve fails on any matrix whose (0, 0) entry is 0.3; one such
        # matrix fails a whole stacked solve, and each image then gets its
        # own verdict
        original = np.linalg.eigvalsh

        def failing(m):
            if np.any(np.isclose(np.asarray(m)[..., 0, 0], 0.3)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return original(m)

        pool = {
            "zero": basis_state(2, 0),
            "one": basis_state(2, 1),  # fails the trace through inflate
            "marked": DensityMatrix(np.diag([0.3 + 0j, 0.7])),
            "qutrit": basis_state(3, 0),
        }
        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        seen = set()
        for names in itertools.permutations(pool, 3):
            states = [pool[n] for n in names]
            got = stacked(CHANNELS["inflate"], states)
            assert same_outcome(got, per_state(CHANNELS["inflate"], states)), names
            seen.update(kind for kind, _ in got)
        assert seen == {"ok", NumericalError, ShapeError, DimensionMismatchError}

    def test_images_equal_the_per_state_products(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            din, dout = (int(d) for d in rng.integers(1, 4, 2))
            c = random_cptp_channel(rng, din, dout)
            states = [random_density(rng, din, pure=bool(k % 2)) for k in range(4)]
            got, want = stacked(c, states), per_state(c, states)
            assert all(kind == "ok" for kind, _ in got) and same_outcome(got, want)

    def test_apply_channel_is_the_one_state_stack(self):
        dep = depolarizing_channel()
        rho = basis_state(2, 0)
        images, errors = apply_channels([dep], [[rho]])
        assert errors == {}
        assert np.array_equal(apply_channel(dep, rho).mat, images[0])
        images, errors = apply_channels([dep], [[]])
        assert images.shape == (0, 2, 2) and errors == {}

    def test_mixed_in_dims_give_the_bits_of_each_in_dim_alone(self):
        # every row's image and error, against the call over the channels
        # of its (in_dim, out_dim) alone, in input order
        seen = set()
        for names in itertools.permutations(MIXED_POOL, 4):
            channels, stacks = zip(*(MIXED_POOL[n] for n in names))
            images, errors = apply_channels(channels, stacks)
            ends = list(itertools.accumulate(map(len, stacks), initial=0))
            for in_dim in {c.in_dim for c in channels}:
                mine = [j for j, c in enumerate(channels) if c.in_dim == in_dim]
                alone, alone_errors = apply_channels([channels[j] for j in mine], [stacks[j] for j in mine])
                rows = [r for j in mine for r in range(ends[j], ends[j + 1])]
                assert images[rows].tobytes() == alone.tobytes(), names
                got = {i: (type(errors[r]), str(errors[r])) for i, r in enumerate(rows) if r in errors}
                assert got == {i: (type(e), str(e)) for i, e in alone_errors.items()}, names
                seen.update(text for _, text in got.values())
        assert seen == {"not a density matrix: trace is 1.210000, not 1", "matrix has a non-finite (NaN or infinite) entry"}

    def test_images_are_read_only(self):
        images, _ = apply_channels([identity_channel(2)], [[basis_state(2, 0)]])
        with pytest.raises(ValueError):
            images[0, 0, 0] = 0
        image = apply_channel(identity_channel(2), basis_state(2, 0))
        with pytest.raises(ValueError):
            image.mat[0, 0] = 0


class TestDensityMatrices:
    def test_first_failing_matrix_in_order_raises_its_own_error(self):
        big = MAX_DIM + 1
        pool = {
            "qubit": np.diag([1.0, 0.0]),
            "qutrit": np.diag([1.0, 0.0, 0.0]),
            "trace": np.diag([1.5, 0.5]),
            "skew": np.array([[1.0, 1.0], [0.0, 0.0]]),
            "infinite": np.diag([np.inf, 0.0]),
            "oblong": np.full((2, 3), 0.5),
            "vector": np.array([1.0, 0.0]),
            "over_cap": np.eye(big) / big,
        }
        seen = set()
        for names in itertools.permutations(pool, 3):
            mats = [np.asarray(pool[n], dtype=complex) for n in names]
            got = outcome(lambda: [dm.mat for dm in density_matrices(mats)])
            want = outcome(lambda: [DensityMatrix(m).mat for m in mats])
            assert got[0] == want[0], names
            if got[0] == "ok":
                assert all(map(np.array_equal, got[1], want[1]))
            else:
                assert got[1] == want[1], names
            seen.add(got[1] if got[0] != "ok" else "ok")
        assert len(seen) == 6  # each failure kind
        mixed = [pool[n].astype(complex) for n in ("qubit", "qutrit", "qubit", "qubit")]
        assert all(map(np.array_equal, (dm.mat for dm in density_matrices(mixed)), mixed))


# -- the certified trace-distance predicate against the scalar rule ---------------

GUARD = linalg_module._GUARD
LOOSE = 1.0  # lets a state carry a trace away from 1


def scalar_rule(a, b, eps) -> bool:
    return trace_distance(a, b) <= eps


def count_eigensolves(monkeypatch) -> Counter:
    """Count the exact trace distances the predicate falls back to."""
    calls = Counter()
    original = linalg_module.trace_distance

    def counting(a, b):
        calls["trace_distance"] += 1
        return original(a, b)

    monkeypatch.setattr(linalg_module, "trace_distance", counting)
    return calls


def flat_pair(t, dim=2):
    """States at trace distance t whose difference diag(t, -t) has a flat
    spectrum, so the sqrt(d) Frobenius bound is tight."""
    base = maximally_mixed(dim)
    delta = np.zeros((dim, dim))
    delta[0, 0], delta[1, 1] = t, -t
    return DensityMatrix(base.mat + delta, LOOSE), base


def rank_one_pair(t):
    """States at trace distance t whose difference diag(2t, 0) has rank
    one, so the plain Frobenius bound is tight."""
    base = maximally_mixed(2)
    return DensityMatrix(base.mat + np.diag([2 * t, 0.0]), LOOSE), base


def random_pair(rng, t, dim=3):
    """base + a random traceless Hermitian direction scaled to distance t."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = g + g.conj().T
    h -= np.trace(h) / dim * np.eye(dim)
    h *= t / (np.abs(np.linalg.eigvalsh(h)).sum() / 2)
    base = maximally_mixed(dim)
    return DensityMatrix(base.mat + h, LOOSE), base


class TestWithinTraceDistance:
    RADII = (0.0, 1e-9, 2e-9, 1e-2, 0.2)

    def test_agrees_with_scalar_rule_at_the_radius(self):
        rng = np.random.default_rng(47)
        for eps in self.RADII:
            for k in (-10, -1, 0, 1, 10):
                t = eps + k * GUARD
                if t < 0:
                    continue
                pairs = [flat_pair(t), flat_pair(t, 3), rank_one_pair(t), random_pair(rng, t)]
                for a, b in pairs:
                    assert within_trace_distance(a, b, eps) == scalar_rule(a, b, eps), (eps, k)
                    assert within_trace_distance(b, a, eps) == scalar_rule(b, a, eps), (eps, k)

    def test_bounds_decide_without_an_eigensolve(self, monkeypatch):
        calls = count_eigensolves(monkeypatch)
        eps = 1e-9
        assert within_trace_distance(*flat_pair(eps - 10 * GUARD), eps)
        assert not within_trace_distance(*rank_one_pair(eps + 10 * GUARD), eps)
        assert within_trace_distance(basis_state(2, 0), basis_state(2, 0), eps)
        assert not within_trace_distance(basis_state(2, 0), basis_state(2, 1), eps)
        assert calls["trace_distance"] == 0
        # between the two bounds only the eigensolve decides
        assert not within_trace_distance(*flat_pair(eps + GUARD), eps)
        assert within_trace_distance(*rank_one_pair(eps - GUARD), eps)
        assert calls["trace_distance"] == 2

    def test_anti_hermitian_defect_is_not_a_distance(self):
        # the raw difference's Frobenius norm would certify a miss here;
        # the Hermitian part of the difference is zero
        a, b = skewed_state(0.98e-9), basis_state(2, 0)
        assert np.linalg.norm(a.mat - b.mat) / 2 > 1e-10 + GUARD
        for eps in (0.0, 1e-10, 1e-9):
            assert within_trace_distance(a, b, eps) is scalar_rule(a, b, eps) is True

    def test_random_states_agree_with_scalar_rule(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            dim = int(rng.integers(1, 4))
            a, b = random_density(rng, dim), random_density(rng, dim)
            eps = float(trace_distance(a, b)) * float(rng.choice([0.5, 1.0, 2.0]))
            assert within_trace_distance(a, b, eps) == scalar_rule(a, b, eps)

    def test_blocks_of_images_agree_with_the_pairs(self, monkeypatch):
        rng = np.random.default_rng(61)
        images = [random_density(rng, 3) for _ in range(7)]
        named = [random_density(rng, 3) for _ in range(5)]
        eps = float(np.median([trace_distance(a, b) for a in images for b in named]))
        pairs = [[within_trace_distance(a, b, eps) for b in named] for a in images]
        stacks = np.array([a.mat for a in images]), np.array([b.mat for b in named])
        for block in (1, 45, 10 ** 6):  # one image per block, two images, all at once
            monkeypatch.setattr(linalg_module, "_BOUND_BLOCK", block)
            assert within_trace_distances(*stacks, eps).tolist() == pairs


    def test_rows_of_candidates_agree_with_the_pairs(self, monkeypatch):
        rng = np.random.default_rng(67)
        a = np.array([random_density(rng, 3).mat for _ in range(9)])
        b = np.array([random_density(rng, 3).mat for _ in range(6)])
        eps = float(np.median([trace_distance(DensityMatrix(x), DensityMatrix(y)) for x in a for y in b]))
        rows = rng.integers(-1, len(b), size=(len(a), 4))
        rows[0] = -1  # a row of padding alone
        pairs = within_trace_distances(a, b, eps).tolist()
        want = [[c >= 0 and pairs[i][c] for c in row] for i, row in enumerate(rows.tolist())]
        for block in (1, 80, 10 ** 6):  # one row per block, two rows, all at once
            monkeypatch.setattr(linalg_module, "_BOUND_BLOCK", block)
            assert within_trace_distances(a, b, eps, rows).tolist() == want

    def test_padded_candidates_hold_bounded_memory(self, monkeypatch):
        # 2 000 rows of 8 x 8 images, each against the states of its own
        # destination, padded to the widest destination's 4: all the
        # candidates at once would hold 2 000 * 4 * 64 entries, 8 MiB
        rng = np.random.default_rng(71)
        b = np.array([np.diag(rng.dirichlet(np.ones(8))).astype(complex) for _ in range(10)])
        a = np.repeat(b[:4], 500, axis=0)
        rows = np.full((2000, 4), -1)
        for k, width in enumerate((4, 1, 2, 3)):
            rows[500 * k:500 * (k + 1), :width] = range(width)
        want = rows == np.repeat(np.arange(4), 500)[:, None]  # each image hits only itself
        block = 1 << 12
        monkeypatch.setattr(linalg_module, "_BOUND_BLOCK", block)
        hit, peak = traced(within_trace_distances, a, b, DEFAULT_TOL, rows)
        assert (hit == want).all()
        # a block of candidates and the temporaries made from it, plus the
        # bounds of every row: about 0.8 MiB
        bound = 8 * 16 * block + 4 * 8 * rows.size
        assert peak < bound
        monkeypatch.setattr(linalg_module, "_BOUND_BLOCK", 1 << 20)
        hit, peak = traced(within_trace_distances, a, b, DEFAULT_TOL, rows)
        assert (hit == want).all() and peak > 4 * bound


# -- one CPTP verdict per channel and tolerance ------------------------------------


def leaky_channel():
    """sum K^dag K = (1 + 1e-7) I: trace preserving only to within 1e-7."""
    return KrausChannel([np.sqrt(1 + 1e-7) * np.eye(2)])


class TestCptpVerdictCache:
    def test_verdict_per_tolerance_in_either_order(self):
        loose = 1e-6
        for order in ((loose, DEFAULT_TOL), (DEFAULT_TOL, loose)):
            c = leaky_channel()
            verdicts = {tol: is_cptp(c, tol) for tol in order}
            assert verdicts[loose] == (True, None)
            ok, why = verdicts[DEFAULT_TOL]
            assert not ok and "not trace preserving" in why
            assert is_cptp(c, loose) == (True, None)
            assert is_cptp(c, DEFAULT_TOL) == (ok, why)

    def test_worker_runs_once_per_channel_and_tolerance(self, monkeypatch):
        calls = Counter()
        original = linalg_module._settle_group

        def counting(channels, tol):
            calls.update((id(c), tol) for c in channels)
            return original(channels, tol)

        monkeypatch.setattr(linalg_module, "_settle_group", counting)
        channels = [leaky_channel(), depolarizing_channel()]
        for _ in range(3):
            for c in channels:
                for tol in (DEFAULT_TOL, 1e-6, 1e-9):  # 1e-9 is the default's value
                    is_cptp(c, tol)
        assert sorted(calls.values()) == [1, 1, 1, 1]


# -- one Kraus array per channel, against the per-operator code ------------------


def raised(call, *args):
    """(exception type, message) of a call, or ("ok", its value)."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # numpy's own errors included: parity is the point
        return type(exc), str(exc)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def drawn_channel(rng: np.random.Generator, in_dim: int, out_dim: int, n_ops: int, kind: str) -> KrausChannel:
    """A channel of n_ops operators, or of the fewest that a CPTP channel
    between the dims has if that is more: "cptp" is a Stinespring
    channel; "leaky" is one scaled by sqrt(1 + 1e-9 + u), |u| <= 1e-12, so
    that its trace-preservation defect lies within 1e-12 of the default
    tolerance; "raw" has Gaussian entries."""
    if kind == "raw":
        return KrausChannel(rng.normal(size=(n_ops, out_dim, in_dim)) + 1j * rng.normal(size=(n_ops, out_dim, in_dim)))
    ops = random_kraus_channel(rng, in_dim, out_dim, n_ops).kraus_ops
    if kind == "leaky":
        ops = ops * np.sqrt(1 + DEFAULT_TOL + float(rng.uniform(-1e-12, 1e-12)))
    return KrausChannel(ops)


_channel_specs = st.tuples(
    st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.sampled_from(["cptp", "leaky", "raw"])
)


def cptp_tolerances(c: KrausChannel) -> list:
    """The default tolerance, 0, and tolerances at the channel's own
    Choi floor: its lowest Choi eigenvalue is then -tol, or one step to
    either side of it."""
    lo = float(np.linalg.eigvalsh(hermitian_choi(c)).min())
    tols = [DEFAULT_TOL, 0.0]
    if lo < 0:
        tols += [-lo, float(np.nextafter(-lo, 0)), float(np.nextafter(-lo, 1))]
    return tols


def hermitian_choi(c: KrausChannel) -> np.ndarray:
    return linalg_module.hermitian_part(reference_choi_matrix(c))


class TestKrausArray:
    @pytest.mark.parametrize(
        "ops",
        [
            [],
            [np.eye(2), np.eye(3)],  # ragged
            [np.eye(2), np.zeros((2, 3))],
            [np.ones(2)],  # a 1-D operator
            [np.eye(2), np.ones(2)],
            [np.zeros((2, 2, 2))],  # a 3-D operator
            [np.eye(2), np.zeros((1, 2, 2))],
            [[[np.nan, 0], [0, 1]]],
            [np.eye(2), np.diag([1.0, np.inf])],
            [np.eye(2), np.ones(3), [[np.nan]]],  # the first failing operator in order words it
            [np.eye(MAX_DIM + 1)],
            [np.eye(MAX_DIM + 1), np.eye(MAX_DIM)],
            [np.diag([np.nan, 1.0]), np.eye(MAX_DIM + 1)],
            [[[1, 0], [0]]],  # nested lists, ragged
            [[[1, 0], [0, 1]], [[0, 1]]],
            ["ab"],
            [[[1, 0], [0, 1]]],  # nested lists that are a matrix
            [[[0.5, 0], [0, 0.5]], [[0.5j, 0], [0, -0.5j]]],
            [np.eye(2, dtype=int)],
            [np.zeros((0, 2))],
        ],
    )
    def test_construction_keeps_each_error_and_the_operators(self, ops):
        ours, want = raised(KrausChannel, ops), raised(reference_kraus_ops, ops)
        assert ours[0] == want[0]
        if want[0] == "ok":
            assert same_bits(ours[1].kraus_ops, np.array(want[1]))
            assert not ours[1].kraus_ops.flags.writeable
        else:
            assert ours[1] == want[1]

    def test_operators_from_a_generator(self):
        c = KrausChannel(np.eye(2) / np.sqrt(2) for _ in range(2))
        assert c.kraus_ops.shape == (2, 2, 2) and is_cptp(c) == (True, None)

    def test_the_channel_keeps_one_copy(self):
        ops = np.array([np.eye(2)], dtype=complex)
        c = KrausChannel(ops)
        assert not np.shares_memory(c.kraus_ops, ops)
        assert c.kraus_ops.flags.c_contiguous and c.kraus_ops.base is None

    def test_an_overflowing_composite_raises_as_before(self):
        for n_ops in (1, 3):  # three operators each: nine products, reduced
            big = KrausChannel([1e200 * np.eye(2)] * n_ops)
            with warnings.catch_warnings():  # numpy's own matmul warning, as before
                warnings.simplefilter("ignore", RuntimeWarning)
                assert raised(compose, big, big) == (ShapeError, "matrix has a non-finite (NaN or infinite) entry")
                with pytest.raises(ShapeError, match="non-finite"):
                    KrausChannel([gi @ fj for gi in big.kraus_ops for fj in big.kraus_ops])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_channel_specs, min_size=1, max_size=6), st.integers(0, 2 ** 32 - 1))
    def test_kernels_have_the_bits_of_the_per_operator_code(self, specs, seed):
        rng = np.random.default_rng(seed)
        channels = [drawn_channel(rng, *spec) for spec in specs]
        for c in channels:
            assert same_bits(choi_matrix(c), reference_choi_matrix(c))
            assert same_bits(reduce_kraus(c).kraus_ops, np.array(reference_reduce_kraus(c)))
            for g in channels:
                if g.in_dim == c.out_dim:
                    assert same_bits(compose(g, c).kraus_ops, np.array(reference_compose(g, c)))
        tols = sorted({tol for c in channels for tol in cptp_tolerances(c)})
        for tol in tols:
            fresh = [KrausChannel(c.kraus_ops) for c in channels]
            assert settle_cptp(fresh, tol) == {}
            assert [c._cptp[tol] for c in fresh] == [reference_cptp_verdict(c, tol) for c in channels]
            assert [is_cptp(KrausChannel(c.kraus_ops), tol) for c in channels] == [c._cptp[tol] for c in fresh]

    def test_verdicts_at_the_boundaries_take_both_sides(self):
        # leaky channels at the default tolerance reach both sides of the
        # trace test; exact ones at their own Choi floor both sides of the
        # positivity test
        rng = np.random.default_rng(83)
        seen = Counter()
        for _ in range(300):
            dims = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 10))
            leaky, exact = drawn_channel(rng, *dims, "leaky"), drawn_channel(rng, *dims, "cptp")
            for c, tols in ((leaky, [DEFAULT_TOL]), (exact, cptp_tolerances(exact)[2:])):
                for tol in tols:
                    ok, why = reference_cptp_verdict(c, tol)
                    seen[why.split(" (")[0] if why else ok] += 1
                    assert is_cptp(c, tol) == (ok, why)
        assert min(seen[True], seen["not trace preserving"], seen["not completely positive"]) >= 5, seen

    def test_a_failed_choi_eigensolve_fails_its_channel_only(self, monkeypatch):
        rng = np.random.default_rng(89)
        channels = [random_kraus_channel(rng, 2, 2, k) for k in (1, 2, 3, 4)]
        bad = channels[2]
        target = hermitian_choi(bad)
        original = linalg_module._eigh
        solved = Counter()

        def planted(m, vectors=False):
            stack = m if m.ndim == 3 else m[None]
            hit = any(np.array_equal(x, target) for x in stack)
            solved[len(stack), hit] += 1
            if hit:
                raise NumericalError("eigenvalue solve failed: planted")
            return original(m, vectors)

        monkeypatch.setattr(linalg_module, "_eigh", planted)
        errors = settle_cptp(channels, DEFAULT_TOL)
        assert list(errors) == [bad] and str(errors[bad]) == "eigenvalue solve failed: planted"
        # one stacked solve, then each channel alone
        assert solved == Counter({(4, True): 1, (1, True): 1, (1, False): 3})
        assert DEFAULT_TOL not in bad._cptp
        for c in channels:
            if c is not bad:
                assert c._cptp[DEFAULT_TOL] == reference_cptp_verdict(c, DEFAULT_TOL) == (True, None)
        solved.clear()
        for _ in range(2):
            with pytest.raises(NumericalError, match="planted"):
                is_cptp(bad)
            assert [is_cptp(c) for c in channels if c is not bad] == [(True, None)] * 3
        assert set(solved) == {(1, True)}  # only the failing channel is solved again

    def test_blocks_and_runs_keep_the_bits(self, monkeypatch):
        rng = np.random.default_rng(101)
        channels = [
            drawn_channel(rng, i, o, n, kind)
            for i, o in ((2, 2), (3, 1)) for n in (1, 3, 7) for kind in ("cptp", "leaky", "raw")
        ]
        tols = (DEFAULT_TOL, 0.0)
        want = {tol: [reference_cptp_verdict(c, tol) for c in channels] for tol in tols}
        assert {ok for verdicts in want.values() for ok, _ in verdicts} == {True, False}
        runs = Counter()
        original = linalg_module._settle_group

        def counting(group, tol):
            runs[block] += 1
            return original(group, tol)

        monkeypatch.setattr(linalg_module, "_settle_group", counting)
        # one term per block and one channel per run, a few of each, all at once
        for block in (1, 40, 10 ** 6):
            monkeypatch.setattr(linalg_module, "_BOUND_BLOCK", block)
            for c in channels:
                assert same_bits(choi_matrix(c), reference_choi_matrix(c))
                assert same_bits(reduce_kraus(c).kraus_ops, np.array(reference_reduce_kraus(c)))
                if c.in_dim == c.out_dim:
                    assert same_bits(compose(c, c).kraus_ops, np.array(reference_compose(c, c)))
            for tol in tols:
                fresh = [KrausChannel(c.kraus_ops) for c in channels]
                assert settle_cptp(fresh, tol) == {}
                assert [c._cptp[tol] for c in fresh] == want[tol]
        assert runs[1] == 2 * len(channels) and len(tols) * 2 < runs[40] < runs[1] and runs[10 ** 6] == 2 * len(tols)

    def test_kraus_sums_hold_bounded_memory(self):
        # every outer product of a sum at once would hold 256 MiB for the
        # composite's 4096 terms and 264 MiB for the group
        rng = np.random.default_rng(97)
        g, f = (random_kraus_channel(rng, 8, 8, 64) for _ in range(2))
        group = [random_kraus_channel(rng, 8, 8, n) for n in (1024, 16, 4, 1)]
        composite, peak = traced(compose, g, f)
        assert peak < 48 * 2 ** 20
        assert same_bits(composite.kraus_ops, np.array(reference_compose(g, f)))
        errors, peak = traced(settle_cptp, group, DEFAULT_TOL)
        assert errors == {} and peak < 48 * 2 ** 20
        assert [c._cptp[DEFAULT_TOL] for c in group] == [reference_cptp_verdict(c, DEFAULT_TOL) for c in group]


def traced(call, *args):
    """A call's value and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
