"""Spectra: numeric resolvent route against every closed-form limit."""

import warnings
from unittest import mock

import numpy as np
import pytest

from conftest import half_grid
from optbistab import covariance as covariance_mod
from optbistab.correlations import g2_numeric, quadrature_variances
from optbistab.covariance import UnstableDriftError, linearize, weak_covariance_row
from optbistab.lindyn import RegimeWarning, saturation_factor
from optbistab.numerics import ConditioningError
from optbistab.params import SystemParams
from optbistab.spectra import (
    CLOSED_FORMS,
    UNIT_AREA_VARIANTS,
    anomalous_laplace,
    area_breakpoints,
    certified_area,
    spectrum_closed_form,
    spectrum_numeric,
    squeezing_spectrum_atomic,
    verify_unit_area,
)


def local_maxima(y, v):
    idx = np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
    return y[idx], v[idx]


@pytest.fixture
def p51():
    return SystemParams(C=5.0, xi=1.0, N=1000)


class TestNumericSpectrum:
    def test_matches_weak_closed_form(self, p51):
        grid = np.linspace(-30.0, 30.0, 1201)
        num = spectrum_numeric(p51, 0.01, "atomic", grid)
        ref = spectrum_closed_form("weak-closed", p51, y_grid=grid)
        peak = ref.values.max()
        assert np.max(np.abs(num.values - ref.values)) <= 1e-3 * peak

    def test_forward_matches_upper_lorentzian(self, p51):
        grid = np.linspace(-30.0, 30.0, 1201)
        num = spectrum_numeric(p51, 100.0, "forward", grid)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            ref = spectrum_closed_form("upper-forward-lorentzian", p51,
                                       X=100.0, y_grid=grid)
        assert np.max(np.abs(num.values - ref.values)) <= 2e-2 * ref.values.max()

    def test_unit_area(self, p51):
        res = verify_unit_area("numeric-atomic", p51, 0.01)
        assert abs(res["area"] - 1.0) <= 1e-2
        res = verify_unit_area("numeric-forward", p51, 100.0)
        assert abs(res["area"] - 1.0) <= 1e-2

    def test_nonnegative_and_symmetric(self, p51):
        grid = np.linspace(-25.0, 25.0, 501)
        s = spectrum_numeric(p51, 0.01, "atomic", grid)
        assert np.all(s.values >= 0.0)
        assert np.max(np.abs(s.values - s.values[::-1])) <= 1e-10

    def test_unstable_point_rejected(self, p51):
        with pytest.raises(UnstableDriftError):
            spectrum_numeric(p51, 2.0, "atomic", np.linspace(-1, 1, 5))

    def test_dark_cavity_rejected(self, p51):
        with pytest.raises(ValueError, match="incoherent"):
            spectrum_numeric(p51, 0.0, "atomic", np.linspace(-1, 1, 5))

    def test_unit_area_rejects_unknown_numeric_variant(self, p51):
        with pytest.raises(ValueError, match="not a unit-area variant"):
            verify_unit_area("numeric-bogus", p51, 0.01)

    def test_unit_area_rejects_dark_cavity(self, p51):
        with pytest.raises(ValueError, match="no incoherent component at X = 0"):
            verify_unit_area("numeric-atomic", p51, 0.0)

    def test_unit_area_rejects_unstable_point(self, p51):
        with pytest.raises(UnstableDriftError):
            verify_unit_area("numeric-atomic", p51, 2.0)

    @pytest.mark.parametrize("variant, with_params, X", [
        ("weak-closed", False, None),
        ("bad-cavity", False, None),
        ("upper-forward-lorentzian", False, 100.0),
        ("upper-branch", True, None),
        ("numeric-atomic", False, 0.01),
        ("numeric-atomic", True, None),
        ("numeric-forward", True, None),
    ])
    def test_unit_area_names_a_missing_input(self, p51, variant, with_params, X):
        with pytest.raises(ValueError, match=f"variant '{variant}' requires"):
            verify_unit_area(variant, p51 if with_params else None, X)

    def test_unit_area_builds_one_model_and_one_certificate(self, p51):
        # every round of panels reads the one eigenbasis bound
        bound, solve = covariance_mod._eigenbasis_bound, covariance_mod.solve_lyapunov
        with mock.patch.object(covariance_mod, "_eigenbasis_bound",
                               side_effect=bound) as bound_spy, \
                mock.patch.object(covariance_mod, "solve_lyapunov",
                                  side_effect=solve) as solve_spy:
            verify_unit_area("numeric-atomic", p51, 0.01)
        assert bound_spy.call_count == 1
        assert solve_spy.call_count == 1


class TestClosedForms:
    def test_bad_cavity_center_height(self):
        p = SystemParams(C=5.0, xi=500.0, N=1000)
        s = spectrum_closed_form("bad-cavity", p, y_grid=np.array([0.0]))
        assert s.values[0] == pytest.approx(2.0 / (11.0 * np.pi), abs=1e-12)

    def test_bad_cavity_overlap(self):
        p = SystemParams(C=5.0, xi=500.0, N=1000)
        grid = np.linspace(-33.0, 33.0, 6601)
        full = spectrum_closed_form("weak-closed", p, y_grid=grid)
        limit = spectrum_closed_form("bad-cavity", p, y_grid=grid)
        sup = np.max(np.abs(full.values - limit.values)) / limit.values.max()
        assert sup <= 2e-2

    def test_good_cavity_spectral_hole(self):
        p = SystemParams(C=5.0, xi=0.01, N=1000)
        grid = np.linspace(-0.04, 0.04, 801)
        s = spectrum_closed_form("good-cavity", p, y_grid=grid)
        center = s.values[s.y == 0.0][0]
        assert center < s.values.max() / 2.0  # hole at line center
        assert s.validity_window == (-0.02, 0.02)

    def test_good_cavity_matches_only_near_center(self):
        # within 5% on the window |y| <= 2 xi, off by far more at 10 xi, and
        # the window error shrinks like xi (the form is the xi -> 0 limit)
        def window_dev(p):
            ys = np.linspace(-2 * p.xi, 2 * p.xi, 801)
            f = spectrum_closed_form("weak-closed", p, y_grid=ys).values
            g = spectrum_closed_form("good-cavity", p, y_grid=ys).values
            return np.max(np.abs(g / f - 1.0))

        p = SystemParams(C=5.0, xi=0.01, N=1000)
        dev = window_dev(p)
        assert dev <= 5e-2
        far = np.array([-10 * p.xi, 10 * p.xi])
        f_far = spectrum_closed_form("weak-closed", p, y_grid=far).values
        g_far = spectrum_closed_form("good-cavity", p, y_grid=far).values
        assert np.min(np.abs(g_far / f_far - 1.0)) > 5e-2
        assert window_dev(SystemParams(C=5.0, xi=1e-3, N=1000)) <= dev / 5.0

    def test_rabi_doublet_positions_and_heights(self):
        p = SystemParams(C=200.0, xi=1.0, N=1000)
        grid = np.linspace(-40.0, 40.0, 8001)
        full = spectrum_closed_form("weak-closed", p, y_grid=grid)
        ys, hs = local_maxima(full.y, full.values)
        assert len(ys) == 2
        assert sorted(np.round(np.abs(ys), 1)) == [20.0, 20.0]
        assert hs[0] == pytest.approx(1.0 / np.pi, rel=2e-2)
        limit = spectrum_closed_form("strong-coupling", p, y_grid=ys)
        assert np.max(np.abs(limit.values / hs - 1.0)) <= 3e-2

    def test_upper_branch_triplet(self):
        X = 20.0
        grid = np.linspace(-60.0, 60.0, 24001)
        s = spectrum_closed_form("upper-branch", X=X, y_grid=grid)
        ys, hs = local_maxima(s.y, s.values)
        assert len(ys) == 3
        side = np.sort(np.abs(ys))[-1]
        assert side == pytest.approx(np.sqrt(2) * X, abs=0.2)
        center = s.values[s.y == 0.0][0]
        assert center / hs.min() == pytest.approx(3.0, abs=0.3)

    def test_upper_branch_asymptotic_heights(self):
        X = 300.0
        s0 = spectrum_closed_form("upper-branch", X=X, y_grid=np.array([0.0]))
        assert s0.values[0] == pytest.approx(1.0 / (2 * np.pi), rel=1e-4)
        sband = spectrum_closed_form("upper-branch", X=X,
                                     y_grid=np.array([np.sqrt(2) * X]))
        assert sband.values[0] == pytest.approx(1.0 / (6 * np.pi), rel=2e-2)

    def test_stark_triplet_bad_cavity_forward(self):
        p = SystemParams(C=5.0, xi=500.0, N=1000)
        X = 20.0
        grid = np.linspace(-60.0, 60.0, 24001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RegimeWarning)
            s = spectrum_closed_form("upper-forward-bad-cavity", p, X=X, y_grid=grid)
        ys, hs = local_maxima(s.y, s.values)
        assert len(ys) == 3
        assert np.sort(np.abs(ys))[-1] == pytest.approx(np.sqrt(2) * X, abs=0.3)
        center = s.values[s.y == 0.0][0]
        assert center / hs.min() == pytest.approx(3.0, abs=0.3)

    def test_forward_lorentzian_width_scale(self):
        p = SystemParams(C=5.0, xi=4.0, N=1000)
        s = spectrum_closed_form("upper-forward-lorentzian", p,
                                 y_grid=np.array([0.0, p.xi, 1e4]))
        assert s.values[0] > s.values[1] > s.values[2] >= 0.0

    def test_weak_tail_inverse_fourth_power(self, p51):
        s = spectrum_closed_form("weak-closed", p51, y_grid=np.array([100.0, 200.0]))
        t100, t200 = s.y**4 * s.values
        assert abs(t100 / t200 - 1.0) <= 5e-2

    def test_unknown_variant_rejected(self, p51):
        with pytest.raises(ValueError):
            spectrum_closed_form("mollow", p51, y_grid=np.array([0.0]))

    @pytest.mark.parametrize("variant", CLOSED_FORMS)
    @pytest.mark.parametrize("C, xi, X", [(5.0, 1.0, 0.01), (5.0, 500.0, 20.0),
                                          (5.0, 0.01, 3.0), (200.0, 1.0, 0.1)])
    def test_series_records_each_guard_note(self, variant, C, xi, X):
        p, form = SystemParams(C=C, xi=xi, N=10), CLOSED_FORMS[variant]
        hits = [guard(p, X) for guard in form.guards]
        assert all(isinstance(hit, str) or not hit for hit in hits)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            s = spectrum_closed_form(variant, p, X=X, y_grid=np.array([0.0]))
        assert s.warnings == tuple(hit for hit in hits if hit)
        assert [(w.category, str(w.message)) for w in caught] == [
            (RegimeWarning, hit) for hit in s.warnings]


UNIT_AREA_CASES = [
    ("weak-closed", {"params": SystemParams(C=5.0, xi=1.0, N=10)}),
    ("bad-cavity", {"params": SystemParams(C=5.0, xi=500.0, N=10)}),
    ("strong-coupling", {"params": SystemParams(C=200.0, xi=1.0, N=10)}),
    ("upper-branch", {"X": 20.0}),
    ("upper-forward-lorentzian", {"params": SystemParams(C=5.0, xi=1.0, N=10)}),
]

# a 24,001-point half of a wide mirrored grid, core 100, tails to 1e5
MIRROR_HALF = half_grid(100.0, 1e5)


class TestUnitArea:
    @pytest.mark.parametrize("variant,kwargs", UNIT_AREA_CASES)
    def test_certified_unit_area(self, variant, kwargs):
        res = verify_unit_area(variant, kwargs.get("params"), kwargs.get("X"))
        assert res["tail_bound"] < 1e-3
        assert abs(res["area"] - 1.0) <= 1e-2

    def test_cases_cover_every_unit_area_variant(self):
        assert [v for v, _ in UNIT_AREA_CASES] == list(UNIT_AREA_VARIANTS)

    @pytest.mark.parametrize("variant,kwargs", UNIT_AREA_CASES)
    def test_closed_form_is_even_bit_for_bit(self, variant, kwargs):
        # certified_area evaluates y >= 0 only and mirrors the values
        def values(y):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                return spectrum_closed_form(variant, kwargs.get("params"),
                                            X=kwargs.get("X"), y_grid=y).values

        assert np.array_equal(values(-MIRROR_HALF), values(MIRROR_HALF))

    @pytest.mark.parametrize("kind,X", [("atomic", 0.01), ("forward", 100.0)])
    def test_numeric_is_even_bit_for_bit(self, p51, kind, X):
        left = spectrum_numeric(p51, X, kind, -MIRROR_HALF).values
        assert np.array_equal(left, spectrum_numeric(p51, X, kind, MIRROR_HALF).values)

    def test_breakpoints_sit_at_the_poles(self):
        # 0, each centre |Im s| and each centre +- 2^m |Re s|, m = -3..7,
        # those below 0 dropped; a conjugate pair gives the same edges
        spread = 2.0 ** np.arange(-3, 8)
        edges = area_breakpoints([complex(-2.0, 100.0), complex(-2.0, -100.0), -0.5])
        want = np.concatenate([[0.0, 100.0], 100.0 - 2.0 * spread,
                               100.0 + 2.0 * spread, 0.5 * spread])
        assert np.array_equal(edges, np.unique(want[want >= 0.0]))
        assert edges[-1] == 100.0 + 2.0 * 128.0

    def test_area_record_reports_the_last_edge_and_both_errors(self, p51):
        res = verify_unit_area("numeric-atomic", p51, 0.01)
        poles = np.linalg.eigvals(covariance_mod.linearize(p51, 0.01).J.entries)
        assert res["y_max"] == pytest.approx(area_breakpoints(poles)[-1], rel=1e-12)
        assert 0.0 <= res["tail_bound"] < 1e-12
        assert 0.0 <= res["quadrature_error"] < 1e-12

    def test_breakpoints_need_decaying_poles(self):
        with pytest.raises(ValueError, match="negative real parts"):
            area_breakpoints([-1.0, complex(0.0, 3.0)])

    def test_forward_lorentzian_on_wide_grid(self):
        # heavier 1/y^2 tail than the atomic spectra: wide grid still within 1e-2
        p = SystemParams(C=5.0, xi=1.0, N=10)
        y = np.linspace(-1e4, 1e4, 400001)
        s = spectrum_closed_form("upper-forward-lorentzian", p, y_grid=y)
        assert abs(np.trapezoid(s.values, s.y) - 1.0) <= 1e-2

    def test_bad_cavity_upper_forward_carries_weight_two(self):
        # the published bad-cavity forward form integrates to 2, not 1; it is
        # deliberately excluded from the unit-area set
        p = SystemParams(C=5.0, xi=500.0, N=10)

        def evaluate(y):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RegimeWarning)
                return spectrum_closed_form(
                    "upper-forward-bad-cavity", p, X=20.0, y_grid=y).values

        # poles: -xi, -1 and the roots of (1+s)(2+s) + 2X^2
        poles = [-500.0, -1.0, *np.roots([1.0, 3.0, 2.0 + 2.0 * 20.0**2])]
        res = certified_area(evaluate, poles)
        assert res["area"] == pytest.approx(2.0, abs=2e-2)
        assert "upper-forward-bad-cavity" not in UNIT_AREA_VARIANTS
        assert "good-cavity" not in UNIT_AREA_VARIANTS


def _eig_and_svd_calls(run):
    """(np.linalg.eig calls, np.linalg.svd calls) that run() makes."""
    with mock.patch.object(np.linalg, "eig", side_effect=np.linalg.eig) as eig, \
            mock.patch.object(np.linalg, "svd", side_effect=np.linalg.svd) as svd:
        run()
    return eig.call_count, svd.call_count


class TestOneModelPerPoint:
    def test_covariance_routes_build_no_eigenbasis(self):
        # (C, xi, X) = (5, 1, 3) is past the weak guard: the Lyapunov route
        p, X = SystemParams(C=5.0, xi=1.0, N=100), 3.0
        model_cost = _eig_and_svd_calls(lambda: linearize(p, X))
        assert model_cost[0] == 0
        assert quadrature_variances(p, X).method == "lyapunov"
        # the routes read the model linearize kept for this point
        assert _eig_and_svd_calls(lambda: quadrature_variances(p, X)) == (0, 0)
        # g2 pays only its propagator's eigenbasis: one eig, one SVD of V
        grid = np.linspace(0.0, 6.0, 50)
        assert _eig_and_svd_calls(lambda: g2_numeric(p, X, grid)) == (1, 1)

    @pytest.mark.parametrize("X, kind", [(0.01, "atomic"), (100.0, "forward")])
    def test_series_and_area_share_one_eigendecomposition(self, p51, X, kind):
        y = np.linspace(-30.0, 30.0, 2001)
        series = spectrum_numeric(p51, X, kind, y)
        area = verify_unit_area(f"numeric-{kind}", p51, X)
        model = linearize(p51, X)
        shared = {}

        def run():
            shared["series"] = spectrum_numeric(p51, X, kind, y, model=model)
            shared["area"] = verify_unit_area(f"numeric-{kind}", p51, X, model=model)

        # the model linearize kept already holds the eigenbasis the series built
        assert _eig_and_svd_calls(run)[0] == 0
        assert np.array_equal(shared["series"].values, series.values)
        assert shared["area"] == area


class TestAnomalousLaplace:
    def test_field_value_at_zero(self, p51):
        val = anomalous_laplace("nu*z*", p51, 0.05, 0.0)
        assert val.real == pytest.approx(-(0.025 / 22.0) * (13.0 / 11.0), rel=1e-12)

    def test_initial_value_theorem(self, p51):
        s = 1e8
        for which, idx in (("nu*z*", "z*"), ("nu*nu*", "nu*"),
                           ("nu*mu", "mu"), ("nu*nu", "nu")):
            lim = (s * anomalous_laplace(which, p51, 0.05, s)).real
            row = weak_covariance_row(p51, 0.05)
            assert lim == pytest.approx(row[idx].real, rel=1e-6)

    def test_normal_transform_reproduces_weak_spectrum(self, p51):
        X = 0.05
        row = weak_covariance_row(p51, X)
        norm = np.pi * row["nu"].real
        grid = np.linspace(-20.0, 20.0, 101)
        ref = spectrum_closed_form("weak-closed", p51, y_grid=grid).values
        vals = np.array([
            anomalous_laplace("nu*nu", p51, X, -1j * y).real / norm for y in grid
        ])
        assert np.max(np.abs(vals - ref)) <= 1e-12 * max(1.0, ref.max())

    def test_pole_rejected(self, p51):
        from optbistab.lindyn import weak_scales

        pole = weak_scales(p51, 0.0).lambda_plus
        with pytest.raises(ConditioningError):
            anomalous_laplace("nu*nu*", p51, 0.05, pole)

    def test_unknown_kind(self, p51):
        with pytest.raises(ValueError):
            anomalous_laplace("mu*mu", p51, 0.05, 0.0)


class TestSqueezingSpectrum:
    def test_negative_at_line_center(self, p51):
        s = squeezing_spectrum_atomic(p51, 0.05, np.array([0.0]))
        assert s.values[0] < 0.0
        assert s.kind == "squeezing"

    def test_zero_amplitude_identically_zero(self, p51):
        s = squeezing_spectrum_atomic(p51, 0.0, np.linspace(-5, 5, 21))
        assert np.all(s.values == 0.0)

    def test_weak_guard_recorded(self, p51):
        assert squeezing_spectrum_atomic(p51, 0.05, np.array([0.0])).warnings == ()
        with pytest.warns(RegimeWarning) as caught:
            s = squeezing_spectrum_atomic(p51, 1.0, np.array([0.0]))
        assert len(caught) == 1
        assert s.warnings == (str(caught[0].message),)
        assert s.warnings[0].startswith("weak-excitation form at X=1,")

    def test_quadratic_tail_decay(self, p51):
        s = squeezing_spectrum_atomic(p51, 0.05, np.array([50.0, 100.0, 200.0]))
        assert abs(s.values[1]) < abs(s.values[0]) / 3.0
        assert abs(s.values[2]) < abs(s.values[1]) / 3.0
        ratio = (s.y**2 * s.values)[2] / (s.y**2 * s.values)[1]
        assert ratio == pytest.approx(1.0, abs=0.05)


class TestNonFiniteAmplitude:
    """A closed form that reads X rejects a NaN or infinite one, not NaN values."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_squeezing_spectrum(self, p51, bad):
        with pytest.raises(ValueError, match="X must be finite"):
            squeezing_spectrum_atomic(p51, bad, np.array([0.0]))

    @pytest.mark.parametrize("variant", ["upper-branch", "upper-forward-bad-cavity"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_upper_closed_forms(self, p51, variant, bad):
        with pytest.raises(ValueError, match="X must be finite"):
            spectrum_closed_form(variant, p51, X=bad, y_grid=np.array([0.0]))
        if variant in UNIT_AREA_VARIANTS:
            with pytest.raises(ValueError, match="X must be finite"):
                verify_unit_area(variant, p51, bad)


class TestSaturationFactor:
    def test_limits_and_value(self):
        assert saturation_factor(1e8, 2.0) == pytest.approx(0.5, rel=1e-10)
        assert saturation_factor(3.0, 1e8) == pytest.approx(1.0, rel=1e-6)
        assert saturation_factor(0.0, 3.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
