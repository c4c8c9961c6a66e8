"""Drift/diffusion construction and derived spectral scales."""

import warnings

import numpy as np
import pytest

from optbistab.correlations import (
    anomalous_correlator_time,
    g2_closed_form,
    quadrature_variances,
)
from optbistab.covariance import strong_covariance_closed, weak_covariance_row
from optbistab.lindyn import (
    RegimeWarning,
    build_diffusion,
    build_jacobian,
    is_stable,
    regime_violation,
    saturation_factor,
    weak_scales,
)
from optbistab.params import SystemParams, from_raw_rates
from optbistab.spectra import spectrum_closed_form, squeezing_spectrum_atomic
from optbistab.steady_state import turning_points


@pytest.fixture
def p51():
    return SystemParams(C=5.0, xi=1.0, N=1000)


class TestJacobian:
    def test_full_equals_weak_at_zero(self, p51):
        J_full = build_jacobian(p51, 0.0, "full")
        with pytest.warns(RegimeWarning):
            J_weak = build_jacobian(p51, 1.0, "weak")
        assert np.allclose(J_full.entries[:, :2][2:4, :],
                           [[-1.0, 0.0], [0.0, -1.0]])
        J_weak0 = build_jacobian(p51, 0.0, "weak")
        assert np.array_equal(J_full.entries, J_weak0.entries)

    def test_full_entries_at_unit_amplitude(self, p51):
        J = build_jacobian(p51, 1.0, "full").entries
        assert J[2, 0] == pytest.approx(-0.5)
        assert J[4, 0] == pytest.approx(0.5)
        assert J[0, 2] == pytest.approx(10.0)

    def test_strong_zeroes_feedback_block(self, p51):
        with pytest.warns(RegimeWarning):
            J = build_jacobian(p51, 1.0, "strong").entries
        assert J[2, 0] == J[3, 1] == J[4, 0] == J[4, 1] == 0.0

    def test_weak_convergence_order(self, p51):
        def gap(X):
            full = build_jacobian(p51, X, "full").entries
            weak = build_jacobian(p51, X, "weak").entries
            return np.max(np.abs(full - weak))

        ratio = gap(1e-2) / gap(1e-3)
        assert 50.0 < ratio < 200.0  # O(X^2) scaling

    def test_weak_block_eigenvalues_match_scales(self, p51):
        sc = weak_scales(p51, 0.0)
        block = np.array([[-p51.xi, p51.xi * 2 * p51.C], [-1.0, -1.0]])
        eig = sorted(np.linalg.eigvals(block), key=lambda z: z.imag)
        expect = sorted([sc.lambda_minus, sc.lambda_plus], key=lambda z: z.imag)
        assert np.allclose(eig, expect, atol=1e-10)

    def test_strong_block_eigenvalues(self, p51):
        X = 7.0
        with pytest.warns(RegimeWarning):
            J = build_jacobian(p51, X, "strong").entries
        eig = np.linalg.eigvals(J[2:, 2:].astype(complex))
        # exact spectrum of the decoupled atomic block
        osc = np.sqrt(2 * X * X - 0.25)
        expect = np.array([-1.0, -1.5 + 1j * osc, -1.5 - 1j * osc])
        for e in expect:
            assert np.min(np.abs(eig - e)) < 1e-10

    def test_regime_guard_silent_without_bistability(self):
        p = SystemParams(C=2.0, xi=1.0, N=10)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            build_jacobian(p, 5.0, "weak")
            build_jacobian(p, 0.1, "strong")


def _guard_points():
    """The guard edges at C = 20 (0.1 X_minus and 3 X_plus) with a point on
    either side, and points at and below the bistability threshold."""
    tp = turning_points(20.0)
    points = [(20.0, f * tp.X_minus) for f in (0.05, 0.1, 0.2)]
    points += [(20.0, f * tp.X_plus) for f in (2.9, 3.0, 3.1)]
    points += [(C, X) for C in (4.0, 3.0) for X in (0.05, 1.0, 20.0)]
    return points


_GRID = np.linspace(-5.0, 5.0, 11)
_TAUS = np.linspace(0.0, 2.0, 5)
_WEAK_SITES = {
    "build_jacobian": lambda p, X: build_jacobian(p, X, "weak"),
    "weak_covariance_row": weak_covariance_row,
    "anomalous_correlator_time": lambda p, X: anomalous_correlator_time(p, X, _TAUS),
    "g2_closed_form": lambda p, X: g2_closed_form("atomic-weak", p, X=X,
                                                  tau_bar_grid=_TAUS),
    "squeezing_spectrum_atomic": lambda p, X: squeezing_spectrum_atomic(p, X, _GRID),
}
_STRONG_SITES = {
    "build_jacobian": lambda p, X: build_jacobian(p, X, "strong"),
    "strong_covariance_closed": strong_covariance_closed,
    "upper-branch": lambda p, X: spectrum_closed_form("upper-branch", p, X=X,
                                                      y_grid=_GRID),
    "upper-forward-lorentzian": lambda p, X: spectrum_closed_form(
        "upper-forward-lorentzian", p, X=X, y_grid=_GRID),
}


def _guard_messages(site, p, X):
    """Regime-guard warnings of one call: those naming a turning amplitude
    (other guards, e.g. the Lorentzian's X >> xi, are left out)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        site(p, X)
    return [str(w.message) for w in caught if issubclass(w.category, RegimeWarning)
            and ("X_minus" in str(w.message) or "X_plus" in str(w.message))]


class TestRegimeGuard:
    @pytest.mark.parametrize("C,X", _guard_points(),
                             ids=lambda v: f"{v:.6g}")
    def test_every_site_follows_the_shared_guard(self, C, X):
        p = SystemParams(C=C, xi=1.0, N=10**4)
        for regime, sites in (("weak", _WEAK_SITES), ("strong", _STRONG_SITES)):
            msg = regime_violation(C, X, regime)
            want = [msg] if msg is not None else []
            for name, site in sites.items():
                assert _guard_messages(site, p, X) == want, (regime, name)
        weak_silent = not _guard_messages(weak_covariance_row, p, X)
        assert (quadrature_variances(p, X).method == "weak-closed") == weak_silent

    def test_edges(self):
        tp = turning_points(20.0)
        assert regime_violation(20.0, 0.1 * tp.X_minus, "weak") is not None
        assert regime_violation(20.0, 0.05 * tp.X_minus, "weak") is None
        assert regime_violation(20.0, 3.0 * tp.X_plus, "strong") is not None
        assert regime_violation(20.0, 3.1 * tp.X_plus, "strong") is None
        assert regime_violation(20.0, None, "weak") is None
        assert regime_violation(4.0, 100.0, "weak") is None


class TestDiffusion:
    def test_zero_at_dark_cavity(self):
        assert np.all(build_diffusion(0.0).entries == 0.0)

    def test_unit_amplitude(self):
        D = build_diffusion(1.0).entries
        assert np.allclose(np.diag(D), [0.0, 0.0, -1.0, -1.0, 4.0])
        assert np.count_nonzero(D - np.diag(np.diag(D))) == 0

    def test_saturates_at_two(self):
        D = build_diffusion(1e9).entries
        assert -D[2, 2] == pytest.approx(2.0, rel=1e-12)

    def test_polarization_entries_negative_and_symmetric(self):
        # indefinite by construction; the pair must carry equal signs so the
        # exchange symmetry of the covariance survives
        for X in (0.01, 0.5, 3.0, 100.0):
            D = build_diffusion(X).entries
            assert D[2, 2] < 0
            assert D[3, 3] == D[2, 2]
            assert D[4, 4] == pytest.approx(-4.0 * D[2, 2])


class TestWeakScales:
    def test_strong_coupling_eigenvalues(self):
        p = SystemParams(C=200.0, xi=1.0, N=1000)
        sc = weak_scales(p, 0.0)
        assert sc.lambda_plus == pytest.approx(-1.0 + 20.0j, abs=1e-12)
        assert sc.lambda_minus == pytest.approx(-1.0 - 20.0j, abs=1e-12)

    def test_experiment_oscillation_frequency(self):
        p = SystemParams(C=40.0, xi=0.176, N=310)
        assert weak_scales(p, 0.0).G_bar.real == pytest.approx(3.7296, abs=2e-4)

    def test_critically_damped(self):
        p = SystemParams(C=1e-12, xi=1.0, N=1)
        sc = weak_scales(p, 0.0)
        assert abs(sc.G_bar) < 2e-6
        assert sc.lambda_plus.real == pytest.approx(-1.0)

    def test_overdamped_is_imaginary(self):
        p = SystemParams(C=0.01, xi=100.0, N=10)
        G = weak_scales(p, 0.0).G_bar
        assert G.real == 0.0 and G.imag > 0.0

    def test_real_part_exact(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = SystemParams(C=float(rng.uniform(0.1, 300)),
                             xi=float(rng.uniform(0.01, 400)), N=5)
            sc = weak_scales(p, 0.0)
            # the pair always sums to the trace; underdamped roots share the
            # real part exactly and are conjugates
            assert (sc.lambda_plus + sc.lambda_minus).real == pytest.approx(
                -(p.xi + 1.0), rel=1e-14)
            if sc.G_bar.imag == 0.0:
                assert sc.lambda_plus.real == -0.5 * (p.xi + 1.0)
                assert sc.lambda_plus == sc.lambda_minus.conjugate()

    def test_rate_forms_need_rates(self, p51):
        sc = weak_scales(p51, 0.0)
        assert sc.g_prime is None and sc.gamma_prime is None and sc.r is None
        p = from_raw_rates(1.06, 0.88, 10.0, 310, unit="MHz")
        sc = weak_scales(p, 0.0)
        assert sc.gamma_prime == pytest.approx(p.gamma * (1 + 2 * p.C), rel=1e-12)
        # scaled vacuum Rabi frequency equals the laboratory one
        assert (2.0 / p.gamma) * sc.g_prime.real == pytest.approx(sc.G_bar.real, rel=1e-12)

    def test_saturation_factor_limits(self):
        assert saturation_factor(1e9, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert saturation_factor(1.0, 1e9) == pytest.approx(1.0, rel=1e-6)
        assert saturation_factor(0.0, 3.0) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_rho_scales(self, p51):
        sc = weak_scales(p51, 2.5)
        assert sc.rho_plus == pytest.approx(-1.5 + 1j * np.sqrt(2) * 2.5)


class TestStability:
    def test_three_roots(self, p51):
        for X, expect in ((1.0, True), (2.0, False), (3.0, True)):
            assert is_stable(build_jacobian(p51, X, "full")) is expect

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            is_stable(build_diffusion(1.0))
