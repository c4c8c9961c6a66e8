"""Stationary covariance, closed-form rows, and correlation propagation."""

import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (
    full_system,
    half_grid,
    integrate_linear_ode,
    oracle_covariance_kron,
    oracle_covariance_scipy,
)
from optbistab import covariance as covariance_mod
from optbistab.covariance import (
    CorrelationVector,
    LinearModel,
    UnstableDriftError,
    covariance_row,
    evolve_correlation_vector,
    laplace_correlation_vector,
    linearize,
    solve_lyapunov,
    strong_covariance_closed,
    weak_covariance_row,
)
from optbistab.lindyn import (
    IDX,
    FluctuationMatrix,
    RegimeWarning,
    build_diffusion,
    build_jacobian,
    is_stable,
)
from optbistab.numerics import (
    TOL,
    ConditioningError,
    SingularMatrixError,
    eigenbasis,
    propagate,
    quadrature,
    solve_complex_linear,
)
from optbistab.params import SystemParams, from_raw_rates
from optbistab.steady_state import turning_points


# (C, xi, X) in the bad-cavity and collective strong-coupling corners: there
# max|J C + C J^T + D| is 1e-8 to 5e-6, far above 1e-10 max|D|, at a backward
# error far below scipy's
STIFF_POINTS = [
    (10**1.5, 1e4, 10.0),
    (10**2.75, 1e4, 100.0),
    (10**3.375, 10**0.5, 100.0),
]


def backward_error(J, C, D):
    """||J C + C J^T + D|| / (2 ||J|| ||C|| + ||D||), 1-norms."""
    def norm(M):
        return np.linalg.norm(M, 1)
    return norm(J @ C + C @ J.T + D) / (2.0 * norm(J) * norm(C) + norm(D))


def resolvent_component(J, c0, s_bar, comp):
    """Component comp of (s_bar I - J)^{-1} c0 at every point of s_bar, from
    one eigendecomposition of J, as the numeric spectrum routes build it."""
    return LinearModel(J, None).resolve(c0, s_bar, comp)


@pytest.fixture
def weak_point(weak_params):
    J = build_jacobian(weak_params, 0.01, "full")
    D = build_diffusion(0.01)
    return weak_params, J, D


class TestSolveLyapunov:
    def test_no_noise_no_fluctuations(self, weak_params):
        J = build_jacobian(weak_params, 0.0, "full")
        C = solve_lyapunov(J, build_diffusion(0.0))
        assert np.all(C.entries == 0.0)

    def test_residual(self, weak_point):
        _, J, D = weak_point
        C = solve_lyapunov(J, D)
        resid = np.max(np.abs(J.entries @ C.entries + C.entries @ J.entries.T
                              + D.entries))
        assert resid <= 1e-10 * max(1.0, np.max(np.abs(D.entries)))

    @pytest.mark.parametrize("X", [0.01, 0.3, 1.0, 100.0])
    def test_against_scipy_and_kron_oracles(self, weak_params, X):
        J, D = full_system(weak_params, X)
        if X == 1.0:
            # X=1 at C=5 sits near the unstable window; use the upper branch
            return
        ours = solve_lyapunov(J, D).entries
        ref1 = oracle_covariance_scipy(J.entries, D.entries)
        ref2 = oracle_covariance_kron(J.entries, D.entries)
        scale = max(1.0, np.max(np.abs(ours)))
        assert np.max(np.abs(ours - ref1)) <= 1e-10 * scale
        assert np.max(np.abs(ours - ref2)) <= 1e-9 * scale

    def test_linearize_is_the_full_drift_and_its_covariance(self, weak_params):
        model = linearize(weak_params, 0.01)
        J, C = model.J, model.C
        J_ref = build_jacobian(weak_params, 0.01, "full")
        assert np.array_equal(J.entries, J_ref.entries)
        assert np.array_equal(C.entries,
                              solve_lyapunov(J_ref, build_diffusion(0.01)).entries)

    def test_unstable_drift_rejected(self, weak_params):
        J = build_jacobian(weak_params, 2.0, "full")  # middle root
        with pytest.raises(UnstableDriftError, match="stable drift"):
            solve_lyapunov(J, build_diffusion(2.0))

    def test_exchange_symmetry_emerges(self, weak_point):
        # nine independent entries: the (z <-> z*, nu <-> nu*) swap is a
        # symmetry of the solution even though fifteen unknowns were solved
        _, J, D = weak_point
        C = solve_lyapunov(J, D).entries
        perm = [1, 0, 3, 2, 4]
        swapped = C[np.ix_(perm, perm)]
        assert np.max(np.abs(C - swapped)) <= 1e-12

    def test_kind_check(self, weak_point):
        _, J, D = weak_point
        with pytest.raises(ValueError):
            solve_lyapunov(D, D)

    @pytest.mark.parametrize("C, xi, X", STIFF_POINTS)
    def test_stiff_points_solve_to_backward_error(self, C, xi, X):
        J, D = full_system(SystemParams(C=C, xi=xi, N=1), X)
        ours = solve_lyapunov(J, D).entries
        ref = oracle_covariance_scipy(J.entries, D.entries)
        assert (backward_error(J.entries, ours, D.entries)
                <= backward_error(J.entries, ref, D.entries))
        assert np.linalg.norm(ours - ref, 1) <= 1e-9 * np.linalg.norm(ref, 1)

    def test_residual_guard_refuses_an_inaccurate_solve(self, weak_point):
        # a solve off by a relative 1e-6 fails the residual guard
        _, J, D = weak_point
        solve = np.linalg.solve
        with mock.patch.object(np.linalg, "solve",
                               lambda A, b: (1.0 + 1e-6) * solve(A, b)):
            with pytest.raises(ConditioningError, match="linear solve residual"):
                solve_lyapunov(J, D)


class TestWeakClosedForms:
    def test_matches_lyapunov_at_small_amplitude(self, weak_point):
        params, J, D = weak_point
        lyap = covariance_row(solve_lyapunov(J, D), "nu*").entries.real
        closed = weak_covariance_row(params, 0.01).entries.real
        assert np.max(np.abs(lyap / closed - 1.0)) <= 1e-2  # corrections O(X^2)

    def test_deviation_order_is_quadratic(self, weak_params):
        def rel_gap(X):
            J, D = full_system(weak_params, X)
            lyap = covariance_row(solve_lyapunov(J, D), "nu*").entries.real
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                closed = weak_covariance_row(weak_params, X).entries.real
            return np.max(np.abs(lyap / closed - 1.0))

        assert 10.0 < rel_gap(0.05) / rel_gap(0.005) < 1000.0

    def test_anomalous_entry_value(self, weak_params):
        row = weak_covariance_row(weak_params, 0.05)
        # coefficient (1 + xi + 2C)/((xi+1)(1+2C)) = 12/22 at C=5, xi=1
        assert row["nu*"].real == pytest.approx(-0.0025 * 12.0 / 22.0, rel=1e-12)

    def test_normal_entry_value(self, weak_params):
        row = weak_covariance_row(weak_params, 0.05)
        assert row["nu"].real == pytest.approx(6.25e-6 * 134.0 / 484.0, rel=1e-12)

    def test_zero_amplitude(self, weak_params):
        assert np.all(weak_covariance_row(weak_params, 0.0).entries == 0.0)

    @pytest.mark.parametrize("X", [np.nan, np.inf])
    def test_rejects_nonfinite_amplitude(self, weak_params, X):
        with pytest.raises(ValueError, match="X must be finite"):
            weak_covariance_row(weak_params, X)

    def test_guard_warns_out_of_regime(self, weak_params):
        with pytest.warns(RegimeWarning):
            weak_covariance_row(weak_params, 1.0)

    def test_zero_time_derivative_of_normal_correlator(self, weak_params):
        # drift applied to the closed-form row leaves the nu component flat
        J = build_jacobian(weak_params, 0.01, "weak")
        c0 = weak_covariance_row(weak_params, 0.01).entries
        deriv = (J.entries @ c0)[2]
        assert abs(deriv) <= 1e-10 * abs(c0[2])


class TestStrongClosedForms:
    def test_atomic_row_values(self, weak_params):
        with pytest.warns(RegimeWarning):
            _, nu_row = strong_covariance_closed(weak_params, 5.0)
        assert nu_row["nu"] == 1.0
        assert nu_row["nu*"] == 0.0
        assert nu_row["mu"] == 0.0

    def test_field_normal_entry_saturated(self, weak_params):
        z_row, _ = strong_covariance_closed(weak_params, 1e4)
        assert z_row["z"].real == pytest.approx(25.0, rel=1e-6)

    def test_field_mu_entry_vanishes(self, weak_params):
        z_row, _ = strong_covariance_closed(weak_params, 100.0)
        assert z_row["mu"] == 0.0

    def test_matches_lyapunov_at_high_amplitude(self, weak_params):
        X = 100.0
        J, D = full_system(weak_params, X)
        Cinf = solve_lyapunov(J, D)
        z_row, nu_row = strong_covariance_closed(weak_params, X)
        lyap_z = covariance_row(Cinf, "z*").entries.real
        for k in range(4):
            assert lyap_z[k] == pytest.approx(z_row.entries[k].real, rel=5e-2)
        lyap_nu = covariance_row(Cinf, "nu*").entries.real
        assert lyap_nu[2] == pytest.approx(1.0, abs=1e-2)
        assert abs(lyap_nu[3]) <= 1e-2
        assert abs(lyap_nu[4]) <= 1e-2

    @pytest.mark.parametrize("X", [np.nan, np.inf])
    def test_rejects_nonfinite_amplitude(self, weak_params, X):
        with pytest.raises(ValueError, match="X must be finite"):
            strong_covariance_closed(weak_params, X)

    def test_rejects_zero_amplitude(self, weak_params):
        with pytest.raises(ValueError):
            strong_covariance_closed(weak_params, 0.0)


class TestEvolve:
    def test_zero_delay_identity(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        assert evolve_correlation_vector(J, c0, 0.0) is c0

    def test_diagonal_decay(self):
        J = build_jacobian(SystemParams(C=1e-12, xi=1.0, N=1), 0.0, "full")
        # rows z and nu decouple from each other at C -> 0, X = 0
        c0 = CorrelationVector(row="nu*", entries=np.array([0, 0, 1.0, 0, 0]),
                               tau_bar=0.0)
        out = evolve_correlation_vector(J, c0, 2.0)
        assert out["nu"].real == pytest.approx(np.exp(-2.0), rel=1e-9)

    def test_semigroup(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        one = evolve_correlation_vector(J, evolve_correlation_vector(J, c0, 0.7), 1.1)
        two = evolve_correlation_vector(J, c0, 1.8)
        assert np.max(np.abs(one.entries - two.entries)) <= 1e-10

    def test_rk4_oracle(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        _, states = integrate_linear_ode(J.entries, c0.entries, 5.0, 1e-3)
        out = evolve_correlation_vector(J, c0, 5.0)
        assert np.max(np.abs(out.entries - states[-1])) <= 1e-10

    def test_delays_on_one_drift_share_one_eigendecomposition(self):
        J, D = full_system(SystemParams(C=5.0, xi=1.0, N=100), 3.0)
        c0 = covariance_row(solve_lyapunov(J, D), "nu*")
        delays = 10.0 ** np.random.default_rng(7).uniform(-2.0, 1.0, 100)
        with mock.patch.object(np.linalg, "eig", side_effect=np.linalg.eig) as eig:
            rows = [evolve_correlation_vector(J, c0, tau).entries for tau in delays]
        assert eig.call_count == 1
        fresh = [propagate(J.entries, [tau], c0.entries, eigenbasis(J.entries))[0]
                 for tau in delays]
        assert all(np.array_equal(got, want) for got, want in zip(rows, fresh))


class TestLinearizeKeepsTheLastModel:
    X = 3.0   # past the weak guard at (5, 1): the model is a Lyapunov solve

    @staticmethod
    def _linearize(params, X):
        """linearize(params, X) and the number of Lyapunov solves it made."""
        solve = covariance_mod.solve_lyapunov
        with mock.patch.object(covariance_mod, "solve_lyapunov", side_effect=solve) as spy:
            model = linearize(params, X)
        return model, spy.call_count

    def test_atom_number_and_raw_rates_share_the_model(self):
        rated = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        model = linearize(rated, 0.01)
        for N in (1, 310, 10**6):
            got, solves = self._linearize(SystemParams(C=rated.C, xi=rated.xi, N=N), 0.01)
            assert got is model and solves == 0

    @pytest.mark.parametrize("change", [
        {"C": 5.0 * (1.0 + 2**-52)},
        {"xi": 1.0 + 2**-52},
        {"X": 3.0 * (1.0 + 2**-52)},
    ])
    def test_a_new_point_builds_a_new_model(self, change):
        model = linearize(SystemParams(C=5.0, xi=1.0, N=100), self.X)
        point = {"C": 5.0, "xi": 1.0, "X": self.X, **change}
        other, solves = self._linearize(SystemParams(C=point["C"], xi=point["xi"], N=100),
                                        point["X"])
        assert solves == 1 and other is not model
        assert not np.array_equal(other.J.entries, model.J.entries)

    def test_unstable_point_raises_on_every_call(self, weak_params):
        # the error is not kept: every call builds and tests the drift again
        stable = linearize(weak_params, 0.01)
        jacobian = covariance_mod.build_jacobian
        with mock.patch.object(covariance_mod, "build_jacobian", side_effect=jacobian) as spy:
            for calls in (1, 2, 3):
                with pytest.raises(UnstableDriftError, match="X=2 is not stable"):
                    linearize(weak_params, 2.0)
                assert spy.call_count == calls
        assert linearize(weak_params, 0.01) is stable

    def test_kept_model_is_bit_identical_to_a_rebuild(self):
        p = SystemParams(C=5.0, xi=1.0, N=100)
        kept = linearize(p, self.X)
        kept.eig    # built on the kept model, then read back from it
        assert linearize(p, self.X) is kept
        covariance_mod._linear_model.cache_clear()
        rebuilt = linearize(p, self.X)
        assert rebuilt is not kept
        for a, b in ((kept.J.entries, rebuilt.J.entries),
                     (kept.C.entries, rebuilt.C.entries), *zip(kept.eig, rebuilt.eig)):
            assert a.tobytes() == b.tobytes()

    def test_shared_arrays_are_read_only(self):
        model = linearize(SystemParams(C=5.0, xi=1.0, N=100), self.X)
        arrays = (model.J.entries, model.C.entries, *model.eig)
        assert len(arrays) == 5 and model.eig[1] is not None
        for a in arrays:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestLaplace:
    def test_resolvent_asymptotics(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        s = 1e6
        out = laplace_correlation_vector(J, c0, s)
        assert np.max(np.abs(out.entries - c0.entries / s)
                      / np.max(np.abs(c0.entries / s))) <= 1e-5

    def test_value_at_zero_frequency(self, weak_params):
        # anchor row from the closed forms, resolved at s=0
        J = build_jacobian(weak_params, 0.05, "weak")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            c0 = weak_covariance_row(weak_params, 0.05)
        out = laplace_correlation_vector(J, c0, 0.0)
        assert out["z*"].real == pytest.approx(-1.343e-3, rel=1e-3)

    def test_time_domain_quadrature_oracle(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        from optbistab.numerics import matrix_exponential

        for s in (0.1, 0.5 + 2.0j):
            taus = np.linspace(0.0, 60.0, 60001)
            P = matrix_exponential(J.entries, taus[1] - taus[0])
            c = c0.entries.astype(complex)
            vals = np.empty((taus.size, 5), dtype=complex)
            for k in range(taus.size):
                vals[k] = c
                c = P @ c
            integrand = np.exp(-s * taus)[:, None] * vals
            numeric = np.array([
                quadrature(integrand[:, j].real, taus).value
                + 1j * quadrature(integrand[:, j].imag, taus).value
                for j in range(5)
            ])
            closed = laplace_correlation_vector(J, c0, s).entries
            assert np.max(np.abs(numeric - closed)) <= 1e-6

    def test_pole_proximity_raises(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        pole = np.linalg.eigvals(J.entries.astype(complex))[0]
        with pytest.raises(ConditioningError):
            laplace_correlation_vector(J, c0, pole + 1e-12)


# (C, xi, X, anchor row, component): the CLI's three weak lower-branch points
# and an upper-branch forward point
RESOLVENT_POINTS = [
    (5.0, 500.0, 2e-3, "nu*", "nu"),
    (5.0, 0.01, 1.5e-3, "nu*", "nu"),
    (200.0, 1.0, 2.5e-3, "nu*", "nu"),
    (200.0, 1.0, 120.0, "z*", "z"),
]


def _anchored(C, xi, X, row):
    J, D = full_system(SystemParams(C=C, xi=xi, N=1), X)
    return J, covariance_row(solve_lyapunov(J, D), row)


def _wide_grid(J):
    """A wide mirrored grid for this drift (dense core 10 max|w| wide, log
    tails), every 16th point, so the per-point reference loop stays short;
    the subsample is mirror-exact too."""
    core = 10.0 * max(1.0, np.max(np.abs(np.linalg.eigvals(J.entries))))
    half = half_grid(core, 64.0 * core)
    return np.concatenate([-half[:0:-1], half])[::16]


def _type_or_values(J, c0, s, comp):
    try:
        return resolvent_component(J, c0, s, comp)
    except (ConditioningError, SingularMatrixError) as exc:
        return type(exc)


class TestResolventComponent:
    @pytest.mark.parametrize("C, xi, X, row, comp", RESOLVENT_POINTS)
    def test_equals_per_point_solves(self, C, xi, X, row, comp):
        J, c0 = _anchored(C, xi, X, row)
        for y in (np.linspace(-30.0, 30.0, 2001), _wide_grid(J)):
            s = -1j * y
            ref = np.array([
                solve_complex_linear(sk * np.eye(5, dtype=complex) - J.entries,
                                     c0.entries)[IDX[comp]]
                for sk in s
            ])
            got = resolvent_component(J, c0, s, comp)
            assert got.shape == y.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("C, xi, X, row, comp", RESOLVENT_POINTS)
    def test_one_point_form_matches_bit_for_bit(self, C, xi, X, row, comp):
        # laplace_correlation_vector runs the SVD test where resolvent_component
        # certifies from the eigenbasis; the solve and the verdict are the same
        J, c0 = _anchored(C, xi, X, row)
        s = -1j * np.array([0.0, 1.7, -25.0])
        got = np.array([laplace_correlation_vector(J, c0, sk)[comp] for sk in s])
        assert np.array_equal(got, resolvent_component(J, c0, s, comp))

    @pytest.mark.parametrize("C, xi, X, row, comp", RESOLVENT_POINTS)
    def test_mirror_is_the_exact_conjugate(self, C, xi, X, row, comp):
        # J and c0 are real: the resolvent at conj(s) is conj of that at s,
        # bit for bit, which is what lets certified_area resolve y >= 0 only
        J, c0 = _anchored(C, xi, X, row)
        y = _wide_grid(J)
        assert np.array_equal(y, -y[::-1])
        up = resolvent_component(J, c0, 1j * y, comp)
        assert np.array_equal(up, np.conj(resolvent_component(J, c0, -1j * y, comp)))

    def test_pole_in_a_later_block_raises(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        block = covariance_mod._RESOLVENT_BLOCK
        s = -1j * np.linspace(-30.0, 30.0, 3 * block)
        pole = np.linalg.eigvals(J.entries.astype(complex))[0]
        s[2 * block + 5] = pole + 1e-12
        resolvent_component(J, c0, s[:2 * block], "nu")
        with pytest.raises(ConditioningError, match="drift eigenvalue"):
            resolvent_component(J, c0, s, "nu")

    def test_partial_last_block_returns_every_point(self, weak_point):
        params, J, _ = weak_point
        c0 = weak_covariance_row(params, 0.01)
        n = 2 * covariance_mod._RESOLVENT_BLOCK + 3
        s = -1j * np.linspace(-30.0, 30.0, n)
        got = resolvent_component(J, c0, s, "nu")
        ref = np.array([laplace_correlation_vector(J, c0, sk)["nu"] for sk in s])
        assert got.shape == (n,)
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("broken", ["eig", "svd"])
    @pytest.mark.parametrize("C, xi, X, row, comp", RESOLVENT_POINTS)
    def test_failed_eigenbasis_takes_the_svd_path(self, C, xi, X, row, comp, broken):
        # eig, or the SVD of its eigenvectors, raising leaves no basis: every
        # point gets the SVD test, with the values of that path
        J, c0 = _anchored(C, xi, X, row)
        s = -1j * np.linspace(-30.0, 30.0, 2001)
        ref = _svd_everywhere(J, c0, s, comp)
        svd = np.linalg.svd

        def fail(a, *args, **kwargs):
            # the stacked SVD over the resolvent's points is 3-D and still runs
            if broken == "eig" or np.ndim(a) == 2:
                raise np.linalg.LinAlgError(f"{broken} did not converge")
            return svd(a, *args, **kwargs)

        with mock.patch.object(np.linalg, broken, side_effect=fail):
            got = _run(J, c0, s, comp)
        assert isinstance(ref, np.ndarray)
        _assert_same_outcome(got, ref)


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _operating_points(draw):
    """(C, xi, X) on the wide grid, at the turning points or at the
    exceptional point 2 C xi = (xi - 1)^2 / 4."""
    where = draw(st.sampled_from(["grid", "turning", "exceptional"]))
    xi = draw(_log_uniform(1e-3, 1e4))
    if where == "exceptional":
        C = (xi - 1.0) ** 2 / (8.0 * xi)
        assume(0.1 <= C <= 1e4)
    else:
        C = draw(_log_uniform(0.1, 1e4))
    if where == "turning":
        assume(C > 4.0)
        tp = turning_points(C)
        edge = draw(st.sampled_from([tp.X_minus, tp.X_plus]))
        X = edge * (1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(_log_uniform(1e-9, 1e-2)))
    else:
        X = draw(_log_uniform(1e-4, 1e3))
    return C, xi, X


def _resolvent_grid(J):
    """Frequencies across the drift's scales, including every eigenvalue's
    own frequency, where the gap to a pole is smallest."""
    eig = np.linalg.eigvals(J.entries)
    core = 10.0 * max(1.0, np.max(np.abs(eig)))
    tail = np.geomspace(core, 64.0 * core, 40)
    y = np.concatenate([-tail[::-1], np.linspace(-core, core, 401), tail, eig.imag])
    return -1j * y


def _run(J, c0, s, comp):
    try:
        return resolvent_component(J, c0, s, comp)
    except (ConditioningError, SingularMatrixError) as exc:
        return type(exc), str(exc)


def _svd_everywhere(J, c0, s, comp):
    with mock.patch.object(covariance_mod, "_eigenbasis_bound",
                           lambda A, eig: None):
        return _run(J, c0, s, comp)


def _assert_same_outcome(got, ref):
    if isinstance(ref, tuple):
        assert got == ref
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, ref)


class TestSingularValueCertificate:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(_operating_points(), st.sampled_from([("nu*", "nu"), ("z*", "z")]))
    def test_certificate_keeps_the_svd_verdict(self, point, anchor):
        C, xi, X = point
        J, D = full_system(SystemParams(C=C, xi=xi, N=1), X)
        assume(is_stable(J))
        row, comp = anchor
        # anchor on scipy's covariance, independent of the package's solver;
        # it warns near the turning points, where an eigenvalue nears zero
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cov = oracle_covariance_scipy(J.entries, D.entries)
        c0 = CorrelationVector(row=row, entries=cov[IDX[row]])
        s = _resolvent_grid(J)

        A = s[:, None, None] * np.eye(5) - J.entries
        floor = TOL.singular_rel * np.maximum(np.abs(A).sum(axis=2).max(axis=1), 1e-300)
        eig = eigenbasis(J.entries)
        certificate = covariance_mod._eigenbasis_bound(J.entries, eig)
        certified = np.ones(s.size, dtype=bool)
        # the bound _resolve_block passes as lower, and the solve's rule on it
        certified[:] = certificate is not None and (
            np.min(np.abs(eig[0][None, :] - s[:, None]), axis=1) / certificate[0]
            - certificate[1] > 2.0 * floor)
        sv_min = np.linalg.svd(A[certified], compute_uv=False)[:, -1]
        assert np.all(sv_min > floor[certified])

        _assert_same_outcome(_run(J, c0, s, comp), _svd_everywhere(J, c0, s, comp))

    def test_non_normal_drift_still_raises_singular(self):
        # -1 on the diagonal, 1e4 above it: sigma_min(s I - J) ~ |s + 1|^5 / 1e16,
        # so s I - J is numerically singular for |s + 1| up to about 15, far
        # from the only eigenvalue -1
        J = FluctuationMatrix(-np.eye(5) + 1e4 * np.eye(5, k=1), kind="jacobian")
        c0 = CorrelationVector(row="nu*", entries=np.ones(5))
        s = -1j * np.linspace(-50.0, 50.0, 301)
        A = s[:, None, None] * np.eye(5) - J.entries
        floor = TOL.singular_rel * np.abs(A).sum(axis=2).max(axis=1)
        first = np.flatnonzero(np.linalg.svd(A, compute_uv=False)[:, -1] <= floor)[0]
        assert abs(s[first] + 1.0) > 10.0
        named = re.escape(f"s_bar={s[first]:g} ")
        with pytest.raises(SingularMatrixError, match=named):
            resolvent_component(J, c0, s, "nu")
        with pytest.raises(SingularMatrixError, match=named):
            laplace_correlation_vector(J, c0, s[first])
        _assert_same_outcome(_run(J, c0, s, "nu"), _svd_everywhere(J, c0, s, "nu"))

    def test_non_normal_drift_mirror_raises_the_same_type(self):
        # the SVD test fails on both halves of a mirror-exact grid alike
        J = FluctuationMatrix(-np.eye(5) + 1e4 * np.eye(5, k=1), kind="jacobian")
        c0 = CorrelationVector(row="nu*", entries=np.ones(5))
        half = np.linspace(0.0, 50.0, 151)
        y = np.concatenate([-half[:0:-1], half])
        down = _type_or_values(J, c0, -1j * y, "nu")
        assert down is SingularMatrixError
        assert _type_or_values(J, c0, 1j * y, "nu") is down


class TestCorrelationVector:
    def test_real_at_zero_delay_enforced(self):
        with pytest.raises(ValueError):
            CorrelationVector(row="nu*", entries=np.array([1j, 0, 0, 0, 0]),
                              tau_bar=0.0)

    def test_named_access(self, weak_params):
        row = weak_covariance_row(weak_params, 0.01)
        assert row["mu"] == row.entries[4]
