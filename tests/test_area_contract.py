"""Certified unit area over the wide (C, xi, X) box, for every route.

Every stable operating point in C 0.1-1e4, xi 1e-3-1e4, X 1e-4-1e3, at the
turning points and at the exceptional points 2 C xi = (xi - 1)^2 / 4, must
give a certified area or a typed package error: never a bare ValueError,
a LinAlgError or a NaN. A certified area must be 1, and its reported bound
(tail bound plus quadrature error) must cover its distance to a reference
that runs the 64-point rule on panels it bisects until they converge.
"""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbistab import covariance as covariance_mod
from optbistab.covariance import UnstableDriftError, linearize
from optbistab.lindyn import RegimeWarning
from optbistab.numerics import NumericsError
from optbistab.params import SystemParams
from optbistab.spectra import (
    CLOSED_FORMS,
    UNIT_AREA_VARIANTS,
    area_breakpoints,
    spectrum_numeric,
    verify_unit_area,
)
from optbistab.steady_state import turning_points

# the reference and the rule round differently: a few hundred ulps of the area
ROUNDING = 1e-13
# a spectrum normalized by a Lyapunov entry is 1 to its solver's rounding
UNIT_TOL = 1e-9
# 64-point Gauss-Legendre nodes and weights on [-1, 1]; the reference bisects
# a panel until its rule on the whole and on the two halves agree to REF_TOL
GL64 = np.polynomial.legendre.leggauss(64)
REF_TOL = 1e-15
REF_DEPTH = 40


def _gl64(f, lo, hi):
    half = 0.5 * (hi - lo)[:, None]
    x = 0.5 * (hi + lo)[:, None] + half * GL64[0]
    return np.sum(half * f(x.ravel()).reshape(x.shape) * GL64[1], axis=1)


def reference_area(evaluate, poles):
    """(area, error) by the 64-point rule, adaptively bisected, on the
    panels of the certified rule, the tail [B, inf) mapped by y = B/u."""
    edges = area_breakpoints(poles)
    b_max = edges[-1]

    def mapped(u):
        return evaluate(b_max / u) * b_max / u**2

    total = error = 0.0
    for f, lo, hi in ((evaluate, edges[:-1], edges[1:]),
                      (mapped, np.array([0.0]), np.array([1.0]))):
        for _ in range(REF_DEPTH):
            mid = 0.5 * (lo + hi)
            whole, halves = _gl64(f, lo, hi), _gl64(f, lo, mid) + _gl64(f, mid, hi)
            ok = np.abs(whole - halves) <= REF_TOL
            total += np.sum(halves[ok])
            if ok.all():
                break
            lo, hi = np.concatenate([lo[~ok], mid[~ok]]), np.concatenate([mid[~ok], hi[~ok]])
        error += np.sum(np.abs(whole - halves)[ok]) + np.sum(np.abs(halves[~ok]))
    return 2.0 * total, 2.0 * error


def assert_certified(record, evaluate, poles):
    area, bound = record["area"], record["tail_bound"] + record["quadrature_error"]
    assert np.isfinite(area) and np.isfinite(bound)
    reference, ref_error = reference_area(evaluate, poles)
    assert abs(area - reference) <= bound + ref_error + ROUNDING * abs(area)
    assert abs(area - 1.0) <= UNIT_TOL + bound


def assert_numeric_contract(C, xi, X, kind):
    """A certified, covered unit area, or a typed package error."""
    params = SystemParams(C=C, xi=xi, N=100)
    try:
        model = linearize(params, X)
        record = verify_unit_area(f"numeric-{kind}", params, X, model=model)
    except (NumericsError, UnstableDriftError):
        return

    def evaluate(y):
        return spectrum_numeric(params, X, kind, y, model=model).values

    assert_certified(record, evaluate, model.eig[0])


def assert_closed_form_contract(variant, C, xi, X):
    params = SystemParams(C=C, xi=xi, N=100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        record = verify_unit_area(variant, params, X)

    def evaluate(y):
        return CLOSED_FORMS[variant].values(y, params, X)

    assert_certified(record, evaluate, CLOSED_FORMS[variant].poles(params, X))


log_C = st.floats(-1.0, 4.0)
log_xi = st.floats(-3.0, 4.0)
log_X = st.floats(-4.0, 3.0)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(log_C, log_xi, log_X, st.sampled_from(["atomic", "forward"]))
def test_numeric_area_on_the_wide_box(lc, lx, la, kind):
    assert_numeric_contract(10.0**lc, 10.0**lx, 10.0**la, kind)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_C, log_xi, log_X, st.sampled_from(UNIT_AREA_VARIANTS))
def test_closed_form_area_on_the_wide_box(lc, lx, la, variant):
    assert_closed_form_contract(variant, 10.0**lc, 10.0**lx, 10.0**la)


def _turning_cases():
    cases = []
    for C in (10.0, 1000.0):
        tp = turning_points(C)
        # just inside the stable branches, where a drift eigenvalue nears 0
        for X in (tp.X_minus * (1.0 - 1e-6), tp.X_plus * (1.0 + 1e-6)):
            cases += [(C, 1.0, X, kind) for kind in ("atomic", "forward")]
    return cases


def _exceptional_cases():
    cases = []
    for xi in (0.1, 9.0, 100.0):
        C = (xi - 1.0) ** 2 / (8.0 * xi)
        cases += [(C, xi, X, kind) for X in (1e-3, 1.0, 10.0)
                  for kind in ("atomic", "forward")]
    return cases


@pytest.mark.parametrize("C, xi, X, kind", _turning_cases() + _exceptional_cases())
def test_numeric_area_at_turning_and_exceptional_points(C, xi, X, kind):
    assert_numeric_contract(C, xi, X, kind)


@pytest.mark.parametrize("variant", UNIT_AREA_VARIANTS)
@pytest.mark.parametrize("xi", [0.1, 9.0, 100.0])
def test_closed_form_area_at_exceptional_points(variant, xi):
    # weak-closed has a double pole here
    assert_closed_form_contract(variant, (xi - 1.0) ** 2 / (8.0 * xi), xi, 1.0)


@pytest.mark.parametrize("C, xi, X, kind", [
    (0.1, 1e4, 1.0, "atomic"),
    (0.1, 1e-3, 1e3, "forward"),
    (562.0, 10.0, 1.0, "forward"),
])
def test_features_far_below_the_largest_eigenvalue(C, xi, X, kind):
    # a feature of width |Re w| << max|w| sits on its own panels
    params = SystemParams(C=C, xi=xi, N=100)
    record = verify_unit_area(f"numeric-{kind}", params, X)
    assert abs(record["area"] - 1.0) <= 1e-10


@pytest.mark.parametrize("C, xi, X, kind", [
    (5.0, 500.0, 2e-3, "atomic"),
    (5.0, 0.01, 2e-3, "atomic"),
    (200.0, 1.0, 2e-3, "atomic"),
    (200.0, 1.0, 120.0, "forward"),
])
def test_numeric_area_evaluation_budget(C, xi, X, kind):
    # the points the CLI benchmark resolves: 3,000 evaluations or fewer each
    params = SystemParams(C=C, xi=xi, N=1)
    resolve_block = covariance_mod._resolve_block
    calls = []

    def counted(J, w, certificate, b, s):
        calls.append(s.size)
        return resolve_block(J, w, certificate, b, s)

    with mock.patch.object(covariance_mod, "_resolve_block", counted):
        verify_unit_area(f"numeric-{kind}", params, X)
    assert 0 < sum(calls) <= 3000
