"""Second-order coherence: closed forms, numeric route, variances."""

import warnings

import numpy as np
import pytest

from optbistab.correlations import (
    G2_VARIANTS,
    anomalous_correlator_time,
    g2_closed_form,
    g2_numeric,
    quadrature_variances,
    strong_field_ratio,
)
from optbistab.covariance import evolve_correlation_vector, weak_covariance_row
from optbistab.lindyn import RegimeWarning, build_jacobian
from optbistab.params import SystemParams, from_raw_rates

TAUS = np.linspace(0.0, 6.0, 601)


@pytest.fixture
def p51():
    return SystemParams(C=5.0, xi=1.0, N=10**4)


class TestClosedForms:
    def test_atomic_weak_zero_delay(self, fig2a_params):
        s = g2_closed_form("atomic-weak", fig2a_params, tau_bar_grid=np.array([0.0]))
        assert s.values[0] - 1.0 == pytest.approx(-5.498e-3, rel=1e-3)

    def test_good_cavity_limit_two_over_N(self):
        for C in (1.0, 10.0, 100.0):
            p = SystemParams(C=C, xi=1e-3, N=500)
            s = g2_closed_form("atomic-weak", p, tau_bar_grid=np.array([0.0]))
            assert s.values[0] - 1.0 == pytest.approx(-2.0 / p.N, rel=1e-2)

    def test_forward_weak_zero_delay(self, fig2a_params):
        s = g2_closed_form("forward-weak", fig2a_params, tau_bar_grid=np.array([0.0]))
        assert s.values[0] == pytest.approx(0.92371, abs=5e-5)

    def test_pure_state_zero_delay_vanishes(self):
        p = SystemParams(C=0.1277, xi=0.176, N=1)
        s = g2_closed_form("single-atom-pure-state", p, tau_bar_grid=np.array([0.0]))
        assert s.values[0] == pytest.approx(0.0, abs=1e-14)
        assert np.all(s.values >= 0.0)

    def test_side_large_C_bunching(self, p51):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            s = g2_closed_form("side-large-C", p51, X=0.5,
                               tau_bar_grid=np.array([0.0]))
        assert s.values[0] == pytest.approx(1.25, rel=1e-12)
        grid = np.linspace(0.0, 20.0, 2001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            s = g2_closed_form("side-large-C", p51, X=0.5, tau_bar_grid=grid)
        assert np.all(s.values >= 1.0 - 1e-12)  # never drops below unity

    def test_atomic_strong_zero_delay(self):
        p = SystemParams(C=5.0, xi=1.0, N=310)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            s = g2_closed_form("atomic-strong", p, X=5.0,
                               tau_bar_grid=np.array([0.0]))
        assert s.values[0] == pytest.approx(1.0 + 15500.0 / 112225.0, rel=1e-12)

    def test_strong_prefactor_small_fluctuation_expansion(self):
        # 2 N X^2/(N+X^2)^2 ~ 2X^2/N with relative error <= 2X^2/N
        N, X = 10**6, np.sqrt(10**3)
        p = SystemParams(C=5.0, xi=1.0, N=N)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            s = g2_closed_form("atomic-strong", p, X=X, tau_bar_grid=np.array([0.0]))
        exact = s.values[0] - 1.0
        approx = 2.0 * X * X / N
        # exact relative error is 2 X^2/N + (X^2/N)^2
        assert abs(approx / exact - 1.0) <= 2.0 * X * X / N * (1.0 + X * X / N)

    def test_impedance_specializations(self):
        p = SystemParams(C=7.5, xi=1.0, N=200)
        a = g2_closed_form("atomic-weak", p, tau_bar_grid=TAUS).values
        b = g2_closed_form("atomic-impedance", p, tau_bar_grid=TAUS).values
        assert np.max(np.abs(a - b)) <= 1e-12
        a = g2_closed_form("forward-weak", p, tau_bar_grid=TAUS).values
        b = g2_closed_form("forward-impedance", p, tau_bar_grid=TAUS).values
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_impedance_requires_unit_xi(self):
        p = SystemParams(C=7.5, xi=1.2, N=200)
        with pytest.raises(ValueError, match="xi = 1"):
            g2_closed_form("atomic-impedance", p, tau_bar_grid=TAUS)

    def test_recast_form_matches_scaled_form(self):
        p = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        a = g2_closed_form("atomic-weak", p, tau_bar_grid=TAUS).values
        b = g2_closed_form("atomic-weak-recast", p, tau_bar_grid=TAUS).values
        assert np.max(np.abs(a - b)) <= 1e-10

    def test_recast_needs_rates(self, p51):
        with pytest.raises(ValueError, match="raw rates"):
            g2_closed_form("atomic-weak-recast", p51, tau_bar_grid=TAUS)

    def test_admissibility_diagnostic_single_atom(self):
        # kappa < gamma/2 with N=1: negative correlation, flagged as a
        # breakdown of the linearized treatment
        p = from_raw_rates(1.06, 0.88, 10.0, 1, unit="MHz")
        with pytest.warns(RegimeWarning, match="negative g2"):
            s = g2_closed_form("atomic-weak-recast", p, tau_bar_grid=np.array([0.0]))
        assert s.values[0] < 0.0
        assert any("negative g2" in w for w in s.warnings)

    def test_decay_to_unity(self, fig2a_params):
        grid = np.linspace(0.0, 40.0, 401)
        s = g2_closed_form("atomic-weak", fig2a_params, tau_bar_grid=grid)
        decay = 0.5 * (fig2a_params.xi + 1.0)
        assert abs(s.values[-1] - 1.0) <= 10.0 * np.exp(-decay * grid[-1])

    def test_overdamped_form_is_real_and_monotone_start(self):
        # overdamped point: slowest mode decays at (xi+1)/2 - |G_bar| ~ 1.02
        p = SystemParams(C=0.01, xi=50.0, N=100)
        grid = np.linspace(0.0, 25.0, 501)
        s = g2_closed_form("atomic-weak", p, tau_bar_grid=grid)
        assert np.all(np.isfinite(s.values))
        assert abs(s.values[-1] - 1.0) < 1e-6


class TestNumericRoute:
    def test_matches_weak_closed_form(self, p51):
        grid = np.linspace(0.0, 6.0, 301)
        num = g2_numeric(p51, 1e-2, grid)
        ref = g2_closed_form("atomic-weak", p51, tau_bar_grid=grid)
        fluct = abs(ref.values[0] - 1.0)
        assert np.max(np.abs(num.values - ref.values)) <= 5e-2 * fluct

    def test_matches_strong_closed_form(self):
        p = SystemParams(C=5.0, xi=1.0, N=10**6)
        grid = np.linspace(0.0, 8.0, 4001)
        num = g2_numeric(p, 100.0, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            ref = g2_closed_form("atomic-strong", p, X=100.0, tau_bar_grid=grid)
        fluct = abs(ref.values[0] - 1.0)
        assert np.max(np.abs(num.values - ref.values)) <= 5e-2 * fluct

    def test_long_delay_reaches_unity(self, p51):
        num = g2_numeric(p51, 1e-2, np.array([0.0, 40.0]))
        assert abs(num.values[-1] - 1.0) <= 1e-6

    def test_dark_cavity_rejected(self, p51):
        with pytest.raises(ValueError, match="vanishes"):
            g2_numeric(p51, 0.0, TAUS)

    def test_unstable_point_rejected(self, p51):
        with pytest.raises(ValueError, match="not stable"):
            g2_numeric(p51, 2.0, TAUS)


class TestNegativeDelays:
    """g2 is even in the delay, so exp(J tau) at tau < 0 is not g2(-tau): a
    negative delay is rejected, as evolve_correlation_vector rejects it."""

    @pytest.mark.parametrize("grid", [[-1.0, -2.0], [0.0, 0.5, -0.5]])
    def test_numeric(self, p51, grid):
        with pytest.raises(ValueError, match="tau_bar must be nonnegative"):
            g2_numeric(p51, 0.01, np.array(grid))

    @pytest.mark.parametrize("variant", G2_VARIANTS)
    def test_closed_form(self, variant):
        p = from_raw_rates(1.0, 5.0, 10.0, 100, unit="MHz")  # xi = 1, C = 2
        with pytest.raises(ValueError, match="tau_bar must be nonnegative"):
            g2_closed_form(variant, p, X=0.05, tau_bar_grid=np.array([-1.0, -2.0]))


class TestAnomalousCorrelator:
    def test_zero_delay_continuity(self, p51):
        row = weak_covariance_row(p51, 0.05)
        assert anomalous_correlator_time(p51, 0.05, 0.0) == pytest.approx(
            row["nu*"].real, rel=1e-14)

    def test_long_delay_decay(self, p51):
        assert abs(anomalous_correlator_time(p51, 0.05, 60.0)) < 1e-20

    def test_matches_propagated_row(self, p51):
        X = 0.05
        J = build_jacobian(p51, X, "weak")
        c0 = weak_covariance_row(p51, X)
        for tau in np.linspace(0.0, 10.0, 41):
            evolved = evolve_correlation_vector(J, c0, tau)
            closed = anomalous_correlator_time(p51, X, tau)
            assert abs(evolved["nu*"].real - closed) <= 1e-6


class TestQuadratureVariances:
    def test_vacuum_limit(self, p51):
        qv = quadrature_variances(p51, 0.0)
        assert qv.var_J0 == 0.25 and qv.var_Jpi2 == 0.25
        assert not qv.squeezed
        qv = quadrature_variances(p51, 1e-3)
        assert qv.var_J0 == pytest.approx(0.25, abs=1e-6)
        assert qv.var_Jpi2 == pytest.approx(0.25, abs=1e-6)

    def test_squeezed_lower_branch(self, p51):
        qv = quadrature_variances(p51, 0.05)
        assert qv.squeezed
        assert qv.var_Jpi2 < 0.25 < qv.var_J0
        # |anomalous|/normal = (12/22) / (134/484 X^2) at C=5, xi=1
        assert qv.ratio == pytest.approx(788.06, rel=1e-3)
        assert qv.method == "weak-closed"

    def test_numeric_path_beyond_weak_guard(self, p51):
        qv = quadrature_variances(p51, 3.0)  # stable upper-branch point
        assert qv.method == "lyapunov"
        assert not qv.squeezed

    def test_numeric_and_closed_paths_agree_when_both_valid(self, p51):
        closed = quadrature_variances(p51, 0.05)
        J = build_jacobian(p51, 0.05, "full")
        from optbistab.covariance import covariance_row, solve_lyapunov
        from optbistab.lindyn import build_diffusion

        row = covariance_row(solve_lyapunov(J, build_diffusion(0.05)), "nu*")
        lyap_ratio = abs(row["nu*"].real) / row["nu"].real
        assert closed.ratio == pytest.approx(lyap_ratio, rel=1e-2)

    def test_strong_field_ratio_classical_bound(self, p51):
        assert strong_field_ratio(p51, 1e3) == pytest.approx(1.0, abs=1e-3)
        # approaches the bound from below: no squeezing left
        assert strong_field_ratio(p51, 50.0) < 1.0
