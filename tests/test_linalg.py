"""Matrix substrate tests: density predicates, Choi matrices, CPTP
verification, application, composition, trace distance."""

import warnings

import numpy as np
import pytest

from qrtmodal.config import Tolerances
from qrtmodal.errors import DimensionMismatchError, NumericalError, ShapeError
from qrtmodal.linalg import (
    DensityMatrix,
    KrausChannel,
    apply_channel,
    basis_state,
    choi_matrix,
    compose,
    constant_channel,
    depolarizing_channel,
    identity_channel,
    is_cptp,
    is_density_matrix,
    maximally_mixed,
    preparation_channel,
    random_cptp_channel,
    random_density,
    scalar_one,
    trace_channel,
    trace_distance,
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

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            is_density_matrix(np.zeros((2, 3)))

    def test_tolerance_override(self):
        loose = Tolerances.uniform(1e-2)
        ok, _ = is_density_matrix(np.diag([1.001, 0.0]), loose)
        assert ok

    def test_dim_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("QRTMODAL_MAX_DIM", "2")
        with pytest.raises(ShapeError):
            DensityMatrix(np.eye(3) / 3)
        DensityMatrix(np.eye(2) / 2)
        monkeypatch.setenv("QRTMODAL_MAX_DIM", "not-a-number")
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2) / 2)


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
