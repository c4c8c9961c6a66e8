"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see a PASS/FAIL line for
every criterion.
"""

import math
import time
import warnings

import numpy as np
import pytest

from conftest import full_system, oracle_covariance_scipy
from optbistab import cli
from optbistab.correlations import (
    g2_closed_form,
    g2_numeric,
    quadrature_variances,
    strong_field_ratio,
)
from optbistab.covariance import (
    covariance_row,
    solve_lyapunov,
    strong_covariance_closed,
    weak_covariance_row,
)
from optbistab.lindyn import IDX, RegimeWarning, build_jacobian, weak_scales
from optbistab.params import SystemParams, from_raw_rates
from optbistab.scattering import (
    AuxiliaryChannel,
    ScatterGeometry,
    auxiliary_spectrum,
    bragg_chain,
    normalized_phase_sum,
    phase_sum_monte_carlo,
    sample_positions_cube,
)
from optbistab.spectra import (
    spectrum_closed_form,
    spectrum_numeric,
    verify_unit_area,
)
from optbistab.steady_state import solve_state_equation, turning_points
from test_cli import numeric_rows, read_csv


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion:>4}  {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def local_maxima(y, v):
    idx = np.where((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]))[0] + 1
    return y[idx], v[idx]


P51 = SystemParams(C=5.0, xi=1.0, N=10**4)


def test_criterion_01_cubic_roots():
    pts = solve_state_equation(5.0, 6.0)
    xs = np.array([p.X for p in pts])
    ok = (np.max(np.abs(xs - [1.0, 2.0, 3.0])) <= 1e-9
          and [p.branch for p in pts] == ["lower", "unstable-middle", "upper"])
    assert report(1, ok, f"cubic roots {xs} with branch labels"), \
        "roots of the state equation at C=5, Y=6 must be {1,2,3}"


def test_criterion_02_turning_points():
    tp5 = turning_points(5.0)
    tp4 = turning_points(4.0)
    tp2 = turning_points(2.0)
    ok = (abs(tp5.X_minus**2 - (4.0 - math.sqrt(5.0))) <= 1e-12
          and abs(tp5.X_plus**2 - (4.0 + math.sqrt(5.0))) <= 1e-12
          and tp4.degenerate and abs(tp4.X_minus**2 - 3.0) <= 1e-12
          and not tp2.exists)
    assert report(2, ok, "turning points at C=5, degenerate C=4, none at C=2")


def test_criterion_03_weak_covariance_oracle():
    X = 1e-2
    J, D = full_system(P51, X)
    Cinf = solve_lyapunov(J, D)
    resid = np.max(np.abs(J.entries @ Cinf.entries
                          + Cinf.entries @ J.entries.T + D.entries))
    lyap = covariance_row(Cinf, "nu*").entries.real
    closed = weak_covariance_row(P51, X).entries.real
    rel = np.max(np.abs(lyap / closed - 1.0))
    ok = rel <= 1e-2 and resid <= 1e-10 * max(1.0, np.max(np.abs(D.entries)))
    assert report(3, ok, f"all five weak closed forms, max rel dev {rel:.2e}, "
                  f"residual {resid:.2e}")


def test_criterion_04_strong_covariance_oracle():
    X = 100.0
    J, D = full_system(P51, X)
    Cinf = solve_lyapunov(J, D)
    nu = covariance_row(Cinf, "nu*").entries.real
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        z_row, _ = strong_covariance_closed(P51, X)
    z_lyap = covariance_row(Cinf, "z*").entries.real
    ok36 = (abs(nu[2] - 1.0) <= 1e-2 and abs(nu[3]) <= 1e-2 and abs(nu[4]) <= 1e-2)
    ok37a = abs(z_lyap[0] / z_row["z"].real - 1.0) <= 5e-2
    ok = ok36 and ok37a
    assert report(4, ok, f"atomic row ({nu[2]:.4f}, {nu[3]:.1e}, {nu[4]:.1e}), "
                  f"field weight {z_lyap[0]:.3f} vs {z_row['z'].real:.3f}")


def test_criterion_05_spectrum_equivalence():
    X = 1e-2
    grid = np.linspace(-30.0, 30.0, 1201)
    num = spectrum_numeric(P51, X, "atomic", grid)
    ref = spectrum_closed_form("weak-closed", P51, y_grid=grid)
    dev = np.max(np.abs(num.values - ref.values))
    ok = dev <= 1e-3 * ref.values.max()
    assert report(5, ok, f"numeric vs weak closed form, max |dev| {dev:.2e} "
                  f"(peak {ref.values.max():.3f})")


def test_criterion_06_fig1a_bad_cavity():
    p = SystemParams(C=5.0, xi=500.0, N=10)
    grid = np.linspace(-33.0, 33.0, 6601)
    full = spectrum_closed_form("weak-closed", p, y_grid=grid)
    limit = spectrum_closed_form("bad-cavity", p, y_grid=grid)
    sup = np.max(np.abs(full.values - limit.values)) / limit.values.max()
    center = spectrum_closed_form("bad-cavity", p, y_grid=np.array([0.0])).values[0]
    ok = sup <= 2e-2 and abs(center - 2.0 / (11.0 * np.pi)) <= 1e-6
    assert report(6, ok, f"squared-Lorentzian overlap sup dev {sup:.4%}, "
                  f"T(0) = {center:.8f}")


def test_criterion_07_fig1b_good_cavity_window():
    p = SystemParams(C=5.0, xi=0.01, N=10)
    window = np.linspace(-2 * p.xi, 2 * p.xi, 1601)
    full = spectrum_closed_form("weak-closed", p, y_grid=window).values
    limit = spectrum_closed_form("good-cavity", p, y_grid=window).values
    dev = np.max(np.abs(limit / full - 1.0))
    ok = dev <= 5e-2
    assert report(7, ok, f"good-cavity agreement on |y|<=2xi: max rel dev {dev:.4%}")


def test_criterion_08_fig1c_rabi_doublet():
    p = SystemParams(C=200.0, xi=1.0, N=10)
    grid = np.linspace(-40.0, 40.0, 8001)
    full = spectrum_closed_form("weak-closed", p, y_grid=grid)
    ys, hs = local_maxima(full.y, full.values)
    limit = spectrum_closed_form("strong-coupling", p, y_grid=ys)
    ok = (len(ys) == 2
          and np.max(np.abs(np.abs(ys) - 20.0)) <= 0.1
          and np.max(np.abs(limit.values / hs - 1.0)) <= 3e-2)
    assert report(8, ok, f"two maxima at y = {ys}, doublet heights match "
                  f"within {np.max(np.abs(limit.values / hs - 1.0)):.3%}")


def test_criterion_09_fig1d_stark_sidebands():
    X = 20.0
    grid = np.linspace(-60.0, 60.0, 24001)
    s = spectrum_closed_form("upper-branch", X=X, y_grid=grid)
    ys, hs = local_maxima(s.y, s.values)
    side = np.sort(np.abs(ys))[-1]
    center = s.values[s.y == 0.0][0]
    ratio = center / hs.min()
    ok = (len(ys) == 3 and abs(side - 28.3) <= 0.2 and abs(ratio - 3.0) <= 0.3)
    assert report(9, ok, f"sidebands at ±{side:.3f}, central/sideband {ratio:.3f}")


def test_criterion_10_tail_law():
    s = spectrum_closed_form("weak-closed", P51, y_grid=np.array([100.0, 200.0]))
    t100, t200 = s.y**4 * s.values
    J = build_jacobian(P51, 1e-2, "weak")
    c0 = weak_covariance_row(P51, 1e-2).entries
    deriv = abs((J.entries @ c0)[2])
    ok = abs(t100 / t200 - 1.0) <= 5e-2 and deriv <= 1e-10 * abs(c0[2])
    assert report(10, ok, f"y^4 T flat to {abs(t100 / t200 - 1):.3%}; "
                  f"d/dtau at 0 = {deriv:.1e} vs scale {abs(c0[2]):.1e}")


UNIT_AREA_CASES = [
    ("weak-closed", SystemParams(C=5.0, xi=1.0, N=10), None),
    ("bad-cavity", SystemParams(C=5.0, xi=500.0, N=10), None),
    ("strong-coupling", SystemParams(C=200.0, xi=1.0, N=10), None),
    ("upper-branch", None, 20.0),
    ("upper-forward-lorentzian", SystemParams(C=5.0, xi=1.0, N=10), None),
    ("numeric-atomic", P51, 1e-2),
    ("numeric-forward", P51, 100.0),
]


@pytest.mark.parametrize("variant,params,X", UNIT_AREA_CASES,
                         ids=[c[0] for c in UNIT_AREA_CASES])
def test_criterion_11_normalization(variant, params, X):
    res = verify_unit_area(variant, params, X)
    ok = abs(res["area"] - 1.0) <= 1e-2 and res["tail_bound"] < 1e-3
    assert report(11, ok, f"{variant}: certified area {res['area']:.5f} "
                  f"(tail bound {res['tail_bound']:.1e}, y_max {res['y_max']:.0f})")


def test_criterion_12_fig2a_values():
    p = SystemParams(C=40.0, xi=0.176, N=310)
    g2a = g2_closed_form("atomic-weak", p, tau_bar_grid=np.array([0.0])).values[0]
    g2f = g2_closed_form("forward-weak", p, tau_bar_grid=np.array([0.0])).values[0]
    G = weak_scales(p, 0.0).G_bar.real
    ok = (abs((g2a - 1.0) / -5.50e-3 - 1.0) <= 1e-2
          and abs((g2f - 1.0) / -7.63e-2 - 1.0) <= 1e-2
          and abs(G - 3.73) <= 0.01)
    good = True
    for C in (1.0, 10.0, 100.0):
        pg = SystemParams(C=C, xi=1e-3, N=500)
        val = g2_closed_form("atomic-weak", pg, tau_bar_grid=np.array([0.0])).values[0]
        good = good and abs((val - 1.0) / (-2.0 / pg.N) - 1.0) <= 1e-2
    ok = ok and good
    assert report(12, ok, f"g2(0)-1 = {g2a - 1:.4e} (atomic), {g2f - 1:.4e} "
                  f"(forward), G = {G:.4f}; good-cavity -2/N over C in {{1,10,100}}")


def test_criterion_13_g2_cross_oracle():
    grid = np.linspace(0.0, 6.0, 601)
    num = g2_numeric(P51, 1e-2, grid).values
    ref = g2_closed_form("atomic-weak", P51, tau_bar_grid=grid).values
    weak_dev = np.max(np.abs(num - ref)) / abs(ref[0] - 1.0)

    ps = SystemParams(C=5.0, xi=1.0, N=10**6)
    grid_s = np.linspace(0.0, 8.0, 4001)
    num_s = g2_numeric(ps, 100.0, grid_s).values
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        ref_s = g2_closed_form("atomic-strong", ps, X=100.0,
                               tau_bar_grid=grid_s).values
    strong_dev = np.max(np.abs(num_s - ref_s)) / abs(ref_s[0] - 1.0)

    pim = SystemParams(C=7.5, xi=1.0, N=200)
    ia = np.max(np.abs(
        g2_closed_form("atomic-weak", pim, tau_bar_grid=grid).values
        - g2_closed_form("atomic-impedance", pim, tau_bar_grid=grid).values))
    "forward pair"
    if_ = np.max(np.abs(
        g2_closed_form("forward-weak", pim, tau_bar_grid=grid).values
        - g2_closed_form("forward-impedance", pim, tau_bar_grid=grid).values))
    ok = weak_dev <= 5e-2 and strong_dev <= 5e-2 and ia <= 1e-12 and if_ <= 1e-12
    assert report(13, ok, f"numeric vs closed: weak {weak_dev:.3%}, strong "
                  f"{strong_dev:.3%}; impedance identities {ia:.1e}/{if_:.1e}")


def test_criterion_14a_squeezing_condition_and_vacuum_limit():
    row = weak_covariance_row(P51, 0.05)
    total = row["nu"].real + row["nu*"].real
    qv3 = quadrature_variances(P51, 1e-3)
    ok = (total < 0.0
          and abs(qv3.var_J0 - 0.25) <= 1e-6 and abs(qv3.var_Jpi2 - 0.25) <= 1e-6
          and quadrature_variances(P51, 0.05).squeezed)
    assert report("14a", ok, f"anomalous+normal = {total:.3e} < 0; variances "
                  f"-> 1/4 ({qv3.var_J0:.8f}, {qv3.var_Jpi2:.8f})")


def _oracle_nu_star_row(params, X):
    J, D = full_system(params, X)
    cov = oracle_covariance_scipy(J.entries, D.entries)
    return cov[IDX["nu*"]]


def test_criterion_14b_nonclassicality_ratio():
    # |c_nu*|/c_nu from the weak rows c_nu* = -X^2 (1+xi+2C)/((1+xi)(1+2C))
    # and c_nu = X^4 A/((1+2C)^2 (1+xi)^2), A = 2C(2+xi+2C) + (1+xi)^2
    C, xi, X = P51.C, P51.xi, 0.05
    A = 2 * C * (2 + xi + 2 * C) + (1 + xi) ** 2
    target = (1 + xi + 2 * C) * (1 + 2 * C) * (1 + xi) / (X**2 * A)
    row = _oracle_nu_star_row(P51, X)
    oracle = abs(row[IDX["nu*"]].real) / row[IDX["nu"]].real
    # at C -> 0 the field neither diffuses nor feeds back on the atoms, so the
    # anomalous entry is the bare-atom -X^2 whatever xi is
    X0 = 1e-2
    bare = [_oracle_nu_star_row(SystemParams(C=1e-6, xi=x, N=10), X0)[IDX["nu*"]].real
            / X0**2 for x in (0.1, 1.0, 10.0)]
    qv = quadrature_variances(P51, X)
    ok = (abs(qv.ratio / target - 1.0) <= 1e-2
          and abs(oracle / target - 1.0) <= 1e-2
          and np.max(np.abs(np.array(bare) + 1.0)) <= 1e-3)
    assert report("14b", ok, f"nonclassicality ratio {qv.ratio:.2f} vs derived "
                  f"{target:.2f} +- 1% (scipy oracle {oracle:.2f}); "
                  f"C->0 anomalous/X^2 {np.round(bare, 4)}")


def test_criterion_14c_strong_limit_field_ratio():
    ratio = strong_field_ratio(P51, 1e3)
    ok = abs(ratio - 1.0) <= 1e-3
    assert report("14c", ok, f"strong-limit field ratio {ratio:.6f}")


def test_criterion_15_phase_sum_monte_carlo():
    geom = ScatterGeometry(positions=sample_positions_cube(100, 50.0, seed=7),
                           rng_seed=7)
    stats = phase_sum_monte_carlo(geom, 1000)
    bragg = normalized_phase_sum(bragg_chain(100), np.array([1.0, 0.0, 0.0]))
    ok = (stats.mean_abs <= 2.0 and stats.coherent_bound == 99.0
          and abs(bragg - 99.0) <= 1e-9)
    assert report(15, ok, f"mean |sum|/N = {stats.mean_abs:.3f} vs bound 99; "
                  f"Bragg chain gives {bragg:.12f}")


def test_criterion_16_auxiliary_channel():
    grid = np.linspace(-25.0, 25.0, 301)
    ch = AuxiliaryChannel(g_aux=1e-3, kappa_aux=1.0)
    aux = auxiliary_spectrum(P51, 0.05, ch, grid)
    atomic = spectrum_numeric(P51, 0.05, "atomic", grid)
    dev = np.max(np.abs(aux.values - atomic.values))
    ok = dev <= 1e-12
    assert report(16, ok, f"auxiliary vs atomic spectrum, max |dev| = {dev:.2e}")


# --------------------------------------------------------------------------
# criterion 17: presets end-to-end
# --------------------------------------------------------------------------

def _run_preset(tmp_path, name):
    out = tmp_path / name
    start = time.perf_counter()
    rc = cli.main(["preset", name, "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    return out, elapsed


def test_criterion_17_fig1a(tmp_path):
    out, dt = _run_preset(tmp_path, "fig1a")
    _, _, rows = read_csv(f"{out}_weak_closed.csv")
    full = numeric_rows(rows)
    _, _, rows = read_csv(f"{out}_bad_cavity.csv")
    limit = numeric_rows(rows)
    sup = np.max(np.abs(full[:, 1] - limit[:, 1])) / limit[:, 1].max()
    center = limit[np.abs(limit[:, 0]).argmin(), 1]
    ok = sup <= 2e-2 and abs(center - 2 / (11 * np.pi)) <= 1e-6 and dt < 1.0
    assert report("17/fig1a", ok, f"CSV overlap {sup:.4%}, T(0) {center:.8f}, "
                  f"{dt * 1e3:.0f} ms")


def test_criterion_17_fig1b(tmp_path):
    out, dt = _run_preset(tmp_path, "fig1b")
    _, _, rows = read_csv(f"{out}_weak_closed.csv")
    full = numeric_rows(rows)
    _, _, rows = read_csv(f"{out}_good_cavity.csv")
    limit = numeric_rows(rows)
    xi = 0.01
    sel = np.abs(full[:, 0]) <= 2 * xi + 1e-12
    interp = np.interp(full[sel, 0], limit[:, 0], limit[:, 1])
    dev = np.max(np.abs(interp / full[sel, 1] - 1.0))
    ok = dev <= 5e-2 and dt < 1.0
    assert report("17/fig1b", ok, f"CSV good-cavity window dev {dev:.4%} "
                  f"({dt * 1e3:.0f} ms)")


def test_criterion_17_fig1c(tmp_path):
    out, dt = _run_preset(tmp_path, "fig1c")
    _, _, rows = read_csv(f"{out}_weak_closed.csv")
    full = numeric_rows(rows)
    ys, hs = local_maxima(full[:, 0], full[:, 1])
    _, _, rows = read_csv(f"{out}_strong_coupling.csv")
    limit = numeric_rows(rows)
    at_peaks = np.interp(ys, limit[:, 0], limit[:, 1])
    ok = (len(ys) == 2 and np.max(np.abs(np.abs(ys) - 20.0)) <= 0.1
          and np.max(np.abs(at_peaks / hs - 1.0)) <= 3e-2 and dt < 1.0)
    assert report("17/fig1c", ok, f"CSV doublet at {ys}, {dt * 1e3:.0f} ms")


def test_criterion_17_fig1d(tmp_path):
    out, dt = _run_preset(tmp_path, "fig1d")
    _, _, rows = read_csv(f"{out}_upper_branch.csv")
    data = numeric_rows(rows)
    ys, hs = local_maxima(data[:, 0], data[:, 1])
    side = np.sort(np.abs(ys))[-1]
    center = data[np.abs(data[:, 0]).argmin(), 1]
    ratio = center / hs.min()
    ok = (len(ys) == 3 and abs(side - 28.3) <= 0.2 and abs(ratio - 3.0) <= 0.3
          and dt < 1.0)
    assert report("17/fig1d", ok, f"CSV sidebands ±{side:.2f}, ratio "
                  f"{ratio:.3f}, {dt * 1e3:.0f} ms")


@pytest.mark.parametrize("name,g_mhz", [("fig2a", 1.06), ("fig2b", 0.53)])
def test_criterion_17_fig2(tmp_path, name, g_mhz):
    out, dt = _run_preset(tmp_path, name)
    p = from_raw_rates(g_mhz, 0.88, 10.0, 310, unit="MHz")
    _, _, rows = read_csv(f"{out}_atomic.csv")
    atomic0 = numeric_rows(rows)[0, 1]
    _, _, rows = read_csv(f"{out}_forward.csv")
    forward0 = numeric_rows(rows)[0, 1]
    ref_a = g2_closed_form("atomic-weak", p, tau_bar_grid=np.array([0.0])).values[0]
    ref_f = g2_closed_form("forward-weak", p, tau_bar_grid=np.array([0.0])).values[0]
    ok = (abs((atomic0 - 1) / (ref_a - 1) - 1.0) <= 1e-2
          and abs((forward0 - 1) / (ref_f - 1) - 1.0) <= 1e-2
          and dt < 1.0)
    assert report(f"17/{name}", ok, f"CSV g2(0)-1: atomic {atomic0 - 1:.4e}, "
                  f"forward {forward0 - 1:.4e} at resolved C={p.C:.2f}; "
                  f"{dt * 1e3:.0f} ms")
