"""Kernel tests with brute-force oracles."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from conftest import integrate_linear_ode
from optbistab import numerics as numerics_mod
from optbistab.numerics import (
    ConditioningError,
    DivergenceError,
    SingularMatrixError,
    eigenbasis,
    integrate_ode,
    matrix_exponential,
    propagate,
    quadrature,
    solve_complex_linear,
)


def adjugate_solve(A, b):
    """Cramer-rule solve for n=3: an oracle independent of LAPACK."""
    det = np.linalg.det(A)
    n = A.shape[0]
    x = np.empty(n, dtype=complex)
    for j in range(n):
        M = A.copy()
        M[:, j] = b
        x[j] = np.linalg.det(M) / det
    return x


class TestSolveComplexLinear:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.5j])
        assert np.allclose(solve_complex_linear(np.eye(3), b), b)

    def test_two_by_two_block_closed_inverse(self):
        # field-polarization 2x2 block at s=0: closed inverse has determinant
        # xi (1 + 2C) = 11 for C=5, xi=1
        C, xi, s = 5.0, 1.0, 0.0
        A = np.array([[xi + s, -xi * 2 * C], [1.0, 1.0 + s]], dtype=complex)
        det = (xi + s) * (1 + s) + xi * 2 * C
        assert det == pytest.approx(11.0, abs=1e-14)
        inv_closed = np.array([[1 + s, xi * 2 * C], [-1.0, xi + s]]) / det
        for b in (np.array([1.0, 0.0]), np.array([0.3, -2.0])):
            assert np.allclose(solve_complex_linear(A, b), inv_closed @ b, atol=1e-14)

    def test_adjugate_oracle_3x3(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            b = rng.normal(size=3) + 1j * rng.normal(size=3)
            x = solve_complex_linear(A, b)
            assert np.allclose(x, adjugate_solve(A, b), atol=1e-10)

    def test_residual_bound_random_5x5(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            A = rng.normal(size=(5, 5))
            b = rng.normal(size=5)
            x = solve_complex_linear(A, b)
            resid = np.linalg.norm(A @ x - b, np.inf)
            bound = 1e-10 * (np.linalg.norm(A, np.inf) * np.linalg.norm(x, np.inf)
                             + np.linalg.norm(b, np.inf))
            assert resid <= bound

    def test_singular_raises_with_condition(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError) as err:
            solve_complex_linear(A, np.ones(2))
        assert err.value.condition is None or err.value.condition > 1e12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_complex_linear(np.array([[np.nan, 0], [0, 1.0]]), np.ones(2))

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            solve_complex_linear(np.eye(17), np.ones(17))


def _stack(m=12, n=5, seed=13):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n, n)) + 1j * rng.normal(size=(m, n, n))
    return A, rng.normal(size=n) + 1j * rng.normal(size=n)


def _singular_at(A, k):
    A = A.copy()
    A[k, -1] = A[k, 0]
    return A


def _off_at(j):
    """np.linalg.solve with the solution of stack matrix j off by a relative
    1e-6, which fails the residual bound."""
    solve = np.linalg.solve

    def off(A, b):
        x = solve(A, b)
        if x.ndim == 3 and len(x) > j:
            x[j] *= 1.0 + 1e-6
        return x
    return mock.patch.object(np.linalg, "solve", off)


class TestCheckedSolveStack:
    def test_stack_equals_per_matrix_calls_bit_for_bit(self):
        A, b = _stack()
        got = solve_complex_linear(A, b)
        assert got.shape == (len(A), A.shape[-1])
        assert np.array_equal(got, [solve_complex_linear(Ak, b) for Ak in A])

    @pytest.mark.parametrize("k, j", [(3, 8), (8, 3)])
    def test_first_failure_in_order_is_raised(self, k, j):
        # a singular matrix at k and a residual failure at j: the earlier wins
        A = _singular_at(_stack()[0], k)
        b = _stack()[1]
        with _off_at(j), pytest.raises((SingularMatrixError, ConditioningError)) as err:
            solve_complex_linear(A, b)
        assert err.value.index == min(k, j)
        assert type(err.value) is (SingularMatrixError if k < j else ConditioningError)
        sv = np.linalg.svd(A[min(k, j)], compute_uv=False)
        assert err.value.condition == (np.inf if sv[-1] == 0 else sv[0] / sv[-1])

    def test_one_matrix_error_names_no_index(self):
        with pytest.raises(SingularMatrixError) as err:
            solve_complex_linear(_singular_at(_stack()[0], 0)[0], np.ones(5))
        assert err.value.index is None

    def test_lower_bounds_that_clear_the_floor_skip_the_svd(self):
        A, b = _stack()
        ref = solve_complex_linear(A, b)
        svd = np.linalg.svd
        with mock.patch.object(np.linalg, "svd", wraps=svd) as spy:
            got = solve_complex_linear(A, b, lower=np.full(len(A), np.inf))
        spy.assert_not_called()
        assert np.array_equal(got, ref)

    def test_lower_bounds_at_the_floor_keep_the_svd_verdict(self):
        # a bound that does not clear twice the floor proves nothing
        A = _singular_at(_stack()[0], 5)
        with pytest.raises(SingularMatrixError) as err:
            solve_complex_linear(A, _stack()[1], lower=np.zeros(len(A)))
        assert err.value.index == 5


class TestMatrixExponential:
    def test_t_zero_is_identity(self):
        A = np.random.default_rng(0).normal(size=(4, 4))
        assert np.allclose(matrix_exponential(A, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        U = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(np.diag(U), [np.exp(-1), np.exp(-2)], atol=1e-13)

    def test_nilpotent_exact(self):
        # defective matrix: exercises the scaling-and-squaring fallback
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.5, 2.0, -1.25):
            U = matrix_exponential(A, t)
            assert np.allclose(U, [[1.0, t], [0.0, 1.0]], atol=1e-14)

    def test_derivative_at_zero_matches_generator(self):
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5))
        h = 1e-6
        dU = (matrix_exponential(A, h) - matrix_exponential(A, -h)) / (2 * h)
        assert np.linalg.norm(dU - A, np.inf) <= 1e-6 * np.linalg.norm(A, np.inf)

    def test_series_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(4, 4)) * 0.3
        series = np.eye(4)
        term = np.eye(4)
        for k in range(1, 30):
            term = term @ A / k
            series = series + term
        assert np.allclose(matrix_exponential(A, 1.0), series, atol=1e-12)


class TestPropagate:
    def test_matches_expm_on_random_stable_matrices(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = rng.normal(size=(5, 5))
            A -= (np.max(np.linalg.eigvals(A).real) + rng.uniform(0.1, 2.0)) * np.eye(5)
            b = rng.normal(size=5) + 1j * rng.normal(size=5)
            t = np.sort(rng.uniform(0.0, 10.0, 40))
            got = propagate(A, t, b, eigenbasis(A))
            assert got.shape == (t.size, 5)
            for tk, row in zip(t, got):
                want = scipy.linalg.expm(A * tk) @ b
                assert np.max(np.abs(row - want)) <= 1e-12 * np.max(np.abs(want))

    def test_zero_delay_rows_are_b_exactly(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(5, 5))
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        out = propagate(A, [0.0, 0.5, 0.0], b, eigenbasis(A))
        assert np.array_equal(out[0], b) and np.array_equal(out[2], b)

    def test_matrix_right_hand_side_is_columnwise(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(4, 4))
        B = rng.normal(size=(4, 3))
        t = [0.3, 1.7]
        eig = eigenbasis(A)
        got = propagate(A, t, B, eig)
        assert got.shape == (2, 4, 3)
        for j in range(3):
            assert np.allclose(got[:, :, j], propagate(A, t, B[:, j], eig), rtol=0, atol=1e-13)

    def test_defective_takes_pade_and_is_exact(self):
        # a Jordan block has no eigenbasis: every delay goes to scaling-and-squaring
        A = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1.0]])
        N = A + np.eye(3)
        b = np.array([0.5, -2.0, 1.0])
        t = np.array([0.0, 0.25, 1.0, 3.5])
        pade = numerics_mod._expm_pade
        with mock.patch.object(numerics_mod, "_expm_pade", side_effect=pade) as spy:
            got = propagate(A, t, b, eigenbasis(A))
        assert spy.call_count == t.size
        for tk, row in zip(t, got):
            want = np.exp(-tk) * (np.eye(3) + N * tk + N @ N * tk * tk / 2.0) @ b
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(b))

    @pytest.mark.parametrize("broken", ["eig", "svd"])
    def test_failed_eigenbasis_takes_pade(self, broken):
        # eig, or the SVD of its eigenvectors, raising leaves no basis
        rng = np.random.default_rng(5)
        A = rng.normal(size=(5, 5)) - 4.0 * np.eye(5)
        b = rng.normal(size=5) + 1j * rng.normal(size=5)
        t = np.array([0.0, 0.4, 2.0])
        pade = numerics_mod._expm_pade
        with mock.patch.object(np.linalg, broken,
                               side_effect=np.linalg.LinAlgError("no convergence")), \
                mock.patch.object(numerics_mod, "_expm_pade", side_effect=pade) as spy:
            got = propagate(A, t, b, eigenbasis(A))
        assert spy.call_count == t.size
        for tk, row in zip(t, got):
            want = scipy.linalg.expm(A * tk) @ b
            assert np.max(np.abs(row - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        A = -np.eye(3)
        eig = eigenbasis(A)
        with pytest.raises(ValueError):
            propagate(A, [0.0, bad], np.ones(3), eig)
        A[1, 2] = bad
        with pytest.raises(ValueError):
            propagate(A, [0.0, 1.0], np.ones(3), eig)


class TestIntegrateODE:
    def test_zero_generator_constant(self):
        _, states = integrate_linear_ode(np.zeros((3, 3)), np.ones(3), 2.0, 0.01)
        assert np.allclose(states, 1.0)

    def test_scalar_decay(self):
        _, states = integrate_linear_ode(np.array([[-1.0]]), np.array([1.0]), 1.0, 1e-3)
        assert abs(states[-1, 0] - np.exp(-1)) < 1e-10

    def test_rk4_order(self):
        # halving dt cuts the endpoint error by ~16x
        def err(dt):
            _, states = integrate_linear_ode(
                np.array([[-1.0]]), np.array([1.0]), 1.0, dt)
            return abs(states[-1, 0] - np.exp(-1))

        ratio = err(0.02) / err(0.01)
        assert 8.0 < ratio < 32.0

    def test_endpoint_matches_expm(self):
        rng = np.random.default_rng(9)
        A = rng.normal(size=(4, 4))
        A = A - 6.0 * np.eye(4)  # stable, norm <= 10
        A *= 10.0 / np.linalg.norm(A, np.inf)
        _, states = integrate_linear_ode(A, np.ones(4), 10.0, 1e-3)
        ref = matrix_exponential(A, 10.0) @ np.ones(4)
        assert np.linalg.norm(states[-1] - ref.real, np.inf) <= 1e-8

    def test_divergence_error_reports_step(self):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            integrate_ode(lambda x: 1e3 * x * x, np.array([1.0]), 10.0, 0.1)
        assert err.value.step is not None


class TestQuadrature:
    def test_constant_exact(self):
        grid = np.array([0.0, 0.3, 0.55, 1.0])
        res = quadrature(np.ones_like(grid), grid)
        assert res.value == pytest.approx(1.0, abs=1e-15)

    def test_lorentzian_unit_area(self):
        y = np.linspace(-1e3, 1e3, 100_001)
        res = quadrature((1 / np.pi) / (1 + y * y), y)
        # analytic tail beyond 1e3: 2/(pi*1e3) ~ 6.4e-4
        assert abs(res.value + 2 / (np.pi * 1e3) - 1.0) < 1e-3

    def test_squared_lorentzian_unit_area(self):
        a = 11.0  # collectively broadened linewidth for C=5
        y = np.linspace(-330.0, 330.0, 66001)
        vals = (2 * a**3 / np.pi) / (a * a + y * y) ** 2
        res = quadrature(vals, y)
        assert abs(res.value - 1.0) < 1e-2

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            quadrature(np.array([1.0]), np.array([0.0]))

    def test_error_estimate_reasonable(self):
        y = np.linspace(0, np.pi, 101)
        res = quadrature(np.sin(y), y)
        assert abs(res.value - 2.0) <= 10 * max(res.error_estimate, 1e-6)

    def test_deterministic(self):
        y = np.linspace(-5, 5, 1001)
        v = np.exp(-y * y)
        assert quadrature(v, y).value == quadrature(v, y).value
