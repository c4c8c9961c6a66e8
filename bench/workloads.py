"""The benchmark's four workloads: seeded inputs, requests and output checks.

A workload builds a fixed list of requests from the seed. Each request is
run through the package's public entry points (`cli.main` in-process, or a
library function), and its output is checked afterwards, outside the timed
region, against an oracle that does not share the package's code path:
scipy's Bartels-Stewart Lyapunov solver, a batched numpy resolvent, scipy's
`expm`, numpy's polynomial roots, or the files parsed back.

Requests reach the package only through `mods.<module>.<function>` looked up
at call time, so the traced run sees every call.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

# Tolerances, fixed before measuring:
# - the certified-area grid has 48k points; a quadrature error above 1e-4
#   would be a tenth of the certificate's own 1e-3 tail target, and the CLI
#   prints the area to 6 decimals (half an ulp of that is 5e-7);
AREA_QUAD_ALLOWANCE = 1e-4
AREA_PRINT_ROUNDING = 5e-7
# - the numeric routes solve a 5x5 resolvent or propagator; against an
#   independent solve they agree to a few hundred ulps of the peak value.
#   A normalized spectrum divides by one covariance entry that can be
#   kappa = max|C| / |entry| times smaller than the largest; the rounding of
#   both Lyapunov solvers is then amplified by kappa;
ORACLE_REL = 1e-8
ROUNDING_AMPLIFICATION = 100.0 * np.finfo(float).eps
# - the weak-excitation limit drops terms of relative order X^2; the weak
#   spectrum points keep X <= 3e-3, so 1e-3 of the peak bounds the gap;
WEAK_SPECTRUM_REL = 1e-3
# - inside the program's weak guard (X < 0.1 X_minus) the dropped terms are
#   of order (X/X_minus)^2 <= 1%; 5% leaves room for an O(1) coefficient
#   (the largest seen against the refined covariance is 2.6%);
WEAK_ROW_REL = 5e-2
# - a backward-stable Lyapunov solver stays within a small multiple of
#   scipy's backward error, or of a few ulps;
BACKWARD_FACTOR = 10.0
BACKWARD_FLOOR = 1e-14
# - the program's Lyapunov residual bound (1e-10 max(1, max|D|)) and its
#   singularity test (smallest singular value <= 1e-14 of the inf-norm); a
#   failure is explained when the oracle finds the 15-unknown system within
#   10x of that singularity limit;
LYAPUNOV_RESIDUAL_REL = 1e-10
SINGULAR_REL = 1e-13
REFINE_STEPS = 3
# - relaxation of a perturbation of 1e-3 over 8 tau_bar at rates >= 0.7, and
#   escape from the middle root over 12 tau_bar.
RELAX_TOL = 1e-4
ESCAPE_TOL = 1e-3

SPECTRUM_GRID = np.linspace(-30.0, 30.0, 2001)   # the CLI's default grid
SWEEP_G2_GRID = np.linspace(0.0, 2.0, 21)
TD_UNIFORM_GRID = np.linspace(0.0, 6.0, 1201)
FAILED = object()   # output of a request that raised


class CheckMiss(Exception):
    """An output that did not match its oracle; `kind` names the check and
    `known` says whether the miss has the program's documented cause."""

    def __init__(self, kind, message, known=False):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.known = known


@dataclass
class Request:
    """One request: run(mods, tally) -> output; check(mods, output, outputs).

    `tally` counts the operating points, frequencies and delays the request
    asks for, the denominators of the traced run's waste ratios. `outputs`
    maps every request key of the same pass to its output.
    """

    key: str
    run: Callable
    check: Callable


def _nothing_known(exc):
    return False


@dataclass(frozen=True)
class Workload:
    """A named workload; `build` makes its request list. Why each was chosen is
    in BENCHMARK.json. `explains(exc)` is true for a raised failure whose
    documented cause the oracle confirms; every other failure is unexpected."""

    name: str
    build: Callable            # build(mods, seed, tmpdir) -> (requests, warm-up request)
    explains: Callable = _nothing_known


def _ensure(ok, kind, message, known=False):
    if not ok:
        raise CheckMiss(kind, message, known)


def _rel_dev(values, reference):
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if values.shape != reference.shape:
        return math.inf
    return float(np.max(np.abs(values - reference)) / np.max(np.abs(reference)))


def _drive(C, X):
    return X * (1.0 + 2.0 * C / (1.0 + X * X))


def _turning_amplitudes(C):
    disc = math.sqrt(C * (C - 4.0))
    return math.sqrt(C - 1.0 - disc), math.sqrt(C - 1.0 + disc)


def _state_roots(C, Y):
    """Real nonnegative roots of X^3 - Y X^2 + (1+2C) X - Y, ascending."""
    r = np.roots([1.0, -Y, 1.0 + 2.0 * C, -Y])
    real = r[np.abs(r.imag) <= 1e-9 * max(1.0, Y)].real
    return np.sort(real[real >= 0.0])


def _num(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# CLI helpers
# ---------------------------------------------------------------------------

class CliExit(Exception):
    """cli.main returned a nonzero exit code; `kind` names the code."""

    def __init__(self, rc, message):
        super().__init__(f"exit {rc}: {message}")
        self.kind = f"CliExit{rc}"


def _cli(mods, argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = mods.cli.main(argv)
    if rc != 0:
        raise CliExit(rc, sink.getvalue().strip()[:200])


def read_csv(path):
    """Parse a CSV written by the package: (meta, warnings, header, rows)."""
    meta, notes, header, rows = {}, [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("# warning: "):
                notes.append(line[len("# warning: "):])
            elif line.startswith("# "):
                key, _, value = line[2:].partition("=")
                meta[key] = value
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return meta, notes, header, rows


def _float_columns(rows):
    return np.array([[float(v) for v in row] for row in rows])


def _digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def oracle_covariance(J, D):
    """Stationary covariance from scipy's Bartels-Stewart solver."""
    return scipy.linalg.solve_continuous_lyapunov(J, -D)


def refined_covariance(J, D):
    """scipy's covariance after iterative refinement with the residual taken
    in extended precision. Where J is stiff (large C xi) the small entries of
    the plain solve carry relative errors of tens of percent; refinement
    converges while cond * eps < 1."""
    C = oracle_covariance(J, D)
    Jl, Dl = J.astype(np.longdouble), D.astype(np.longdouble)
    for _ in range(REFINE_STEPS):
        Cl = C.astype(np.longdouble)
        R = -(Jl @ Cl + Cl @ Jl.T + Dl)
        C = (Cl + scipy.linalg.solve_continuous_lyapunov(J, R.astype(float))).astype(float)
    return C


def oracle_spectrum(J, D, kind, y):
    """Normalized spectrum by one batched solve of (-iy I - J) x = c0.

    Returns (values, tolerance): the tolerance relative to the peak grows
    with the ratio of the largest covariance entry to the normalizing one.
    """
    row, comp = (3, 2) if kind == "atomic" else (1, 0)
    cov = oracle_covariance(J, D)
    c0 = cov[row].astype(complex)
    A = (-1j * np.asarray(y))[:, None, None] * np.eye(5) - J
    b = np.broadcast_to(c0, (len(y), 5))[..., None]
    x = np.linalg.solve(A, b)[..., 0]
    kappa = np.max(np.abs(cov)) / abs(c0[comp].real)
    values = x[:, comp].real / (np.pi * c0[comp].real)
    return values, ORACLE_REL + ROUNDING_AMPLIFICATION * kappa


def residual_bound_unreachable(J, D, C_ref):
    """The Lyapunov false failure by a scale-blind bound: the program asks for
    max|J C + C J^T + D| <= 1e-10 max(1, max|D|), below eps max|J| max|C|, the
    residual a backward-stable solver can promise."""
    bound = LYAPUNOV_RESIDUAL_REL * max(1.0, np.max(np.abs(D)))
    return np.finfo(float).eps * np.max(np.abs(J)) * np.max(np.abs(C_ref)) > bound


def symmetric_system_singular(J):
    """The Lyapunov false failure by squared conditioning: the 15-unknown
    operator C -> J C + C J^T on symmetric C is numerically singular although
    the Lyapunov equation has a solution."""
    iu = np.triu_indices(5)
    cols = []
    for i, j in zip(*iu):
        E = np.zeros((5, 5))
        E[i, j] = E[j, i] = 1.0
        cols.append((J @ E + E @ J.T)[iu])
    M = np.array(cols).T
    sv = np.linalg.svd(M, compute_uv=False)
    return sv[-1] <= SINGULAR_REL * np.linalg.norm(M, np.inf)


def backward_error(J, C, D):
    """||J C + C J^T + D|| / (2 ||J|| ||C|| + ||D||), 1-norms."""
    def norm(M):
        return np.linalg.norm(M, 1)
    return norm(J @ C + C @ J.T + D) / (2.0 * norm(J) * norm(C) + norm(D))


def oracle_phase_sum(positions, seed, trials):
    """Phase-sum statistics over the documented per-trial direction streams."""
    dirs = np.empty((trials, 3))
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        v = rng.normal(size=3)
        while np.linalg.norm(v) < 1e-12:
            v = rng.normal(size=3)
        dirs[t] = v / np.linalg.norm(v)
    phases = np.exp(-2j * np.pi * (positions @ dirs.T))
    n = len(positions)
    vals = np.abs(np.abs(phases.sum(axis=0)) ** 2 - n) / n
    return float(vals.mean()), float(vals.max())


# ---------------------------------------------------------------------------
# spectra_numeric
# ---------------------------------------------------------------------------

WEAK_POINTS = (("bad-cavity", 5.0, 500.0), ("good-cavity", 5.0, 0.01),
               ("strong-coupling", 200.0, 1.0))
AUX = {"g_aux": 1.0, "kappa_aux": 20.0}


def _build_spectra(mods, seed, tmpdir):
    rng = np.random.default_rng([seed, 1])
    cli, aux = [], []
    for label, C, xi in WEAK_POINTS:
        X = 10.0 ** rng.uniform(-3.0, math.log10(3e-3))
        cli.append(_cli_numeric_request(tmpdir, label, C, xi, _drive(C, X), "lower", "atomic"))
        aux.append(_aux_request(mods, label, mods.params.SystemParams(C=C, xi=xi, N=1), X))
    cli.append(_cli_numeric_request(tmpdir, "upper-forward", 200.0, 1.0,
                                    rng.uniform(60.0, 180.0), "upper", "forward"))
    return cli + aux, aux[0]


def _cli_numeric_request(tmpdir, label, C, xi, Y, branch, kind):
    path = os.path.join(tmpdir, f"spectrum-{label}.csv")
    argv = ["spectrum", "--method", "numeric", "--kind", kind, "--C", _num(C),
            "--xi", _num(xi), "--Y", _num(Y), "--branch", branch, "--out", path]

    def run(mods, tally):
        _cli(mods, argv)
        tally["points"] += 1
        tally["frequencies"] += SPECTRUM_GRID.size
        return path

    def check(mods, out, outputs):
        meta, notes, header, rows = read_csv(out)
        data = _float_columns(rows)
        _ensure(header == ["y", "T"] and np.array_equal(data[:, 0], SPECTRUM_GRID),
                "SpectrumGrid", f"{label}: unexpected columns or grid")
        X = float(meta["X"])
        roots = _state_roots(C, Y)
        want = roots[0] if branch == "lower" else roots[-1]
        _ensure(abs(X - want) <= 1e-9 * max(1.0, want), "RootBranch",
                f"{label}: X={X!r}, {branch} root is {want!r}")
        area_note = [n for n in notes if n.startswith("unit-area check:")]
        _ensure(len(area_note) == 1, "AreaCheck", f"{label}: no unit-area note")
        words = area_note[0].replace("(", " ").replace(")", " ").split()
        area, tail = float(words[2]), float(words[5])
        _ensure(abs(area - 1.0) <= tail + AREA_QUAD_ALLOWANCE + AREA_PRINT_ROUNDING,
                "AreaCheck", f"{label}: area {area} with tail bound {tail}")
        params = mods.params.SystemParams(C=C, xi=xi, N=1)
        J = mods.lindyn.build_jacobian(params, X).entries
        D = mods.lindyn.build_diffusion(X).entries
        want, tol = oracle_spectrum(J, D, kind, SPECTRUM_GRID)
        dev = _rel_dev(data[:, 1], want)
        _ensure(dev <= tol, "SpectrumOracle", f"{label}: deviation {dev:.3e} exceeds {tol:.3e}")
        if kind == "atomic":
            weak = mods.spectra.spectrum_closed_form("weak-closed", params,
                                                     y_grid=SPECTRUM_GRID).values
            dev = _rel_dev(data[:, 1], weak)
            _ensure(dev <= WEAK_SPECTRUM_REL, "WeakClosedSpectrum",
                    f"{label}: deviation {dev:.3e} from weak-closed")

    return Request(key=label, run=run, check=check)


def _aux_request(mods, label, params, X):
    """Auxiliary-channel spectrum at a CLI weak point (at the drawn X; the CLI
    solves the cubic for it), checked against that request's CSV."""
    channel = mods.scattering.AuxiliaryChannel(**AUX)

    def run(mods, tally):
        tally["points"] += 1
        tally["frequencies"] += SPECTRUM_GRID.size
        return mods.scattering.auxiliary_spectrum(params, X, channel, SPECTRUM_GRID).values

    def check(mods, out, outputs):
        path = outputs.get(label)
        _ensure(path is not None and path is not FAILED, "AuxiliaryMatch",
                f"{label}: no CLI spectrum at the same point")
        numeric = _float_columns(read_csv(path)[3])[:, 1]
        dev = _rel_dev(out, numeric)
        _ensure(dev <= ORACLE_REL, "AuxiliaryMatch", f"{label}: deviation {dev:.3e}")

    return Request(key=f"aux-{label}", run=run, check=check)


# ---------------------------------------------------------------------------
# operating_point_sweep
# ---------------------------------------------------------------------------

SWEEP_RANDOM_POINTS = 600
ATOM_NUMBER = 1000      # N for the g2 requests; it does not enter J or D


def _sweep_points(seed):
    """(C, xi, Y): seeded log-uniform draws plus fixed hard cases."""
    rng = np.random.default_rng([seed, 2])
    C = 10.0 ** rng.uniform(-1.0, 4.0, SWEEP_RANDOM_POINTS)
    xi = 10.0 ** rng.uniform(-3.0, 4.0, SWEEP_RANDOM_POINTS)
    X = 10.0 ** rng.uniform(-4.0, 3.0, SWEEP_RANDOM_POINTS)
    points = [(c, x, _drive(c, a)) for c, x, a in zip(C, xi, X)]
    for c in (10.0, 1000.0):                        # turning points
        for Xt in _turning_amplitudes(c):
            Yt = _drive(c, Xt)
            points += [(c, 1.0, Yt), (c, 1.0, Yt * (1.0 - 1e-6)), (c, 1.0, Yt * (1.0 + 1e-6))]
    for xi_ep in (0.1, 9.0, 100.0):                 # exceptional points 2 C xi = (xi-1)^2/4
        c = (xi_ep - 1.0) ** 2 / (8.0 * xi_ep)
        points += [(c, xi_ep, _drive(c, a)) for a in (0.01, 1.0, 10.0)]
    return points


def _closed_rows(mods, params, X):
    """The weak row where the program's weak guard passes, else the strong
    rows where the strong guard passes, else None."""
    RegimeWarning = mods.lindyn.RegimeWarning
    for form, fn in (("weak", mods.covariance.weak_covariance_row),
                     ("strong", mods.covariance.strong_covariance_closed)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RegimeWarning)
            rows = fn(params, X)
        if not any(issubclass(w.category, RegimeWarning) for w in caught):
            return form, rows
    return None, None


def _sweep_request(k, C, xi, Y):
    def run(mods, tally):
        params = mods.params.SystemParams(C=C, xi=xi, N=ATOM_NUMBER)
        results = []
        for pt in mods.steady_state.solve_state_equation(C, Y):
            J = mods.lindyn.build_jacobian(params, pt.X)
            D = mods.lindyn.build_diffusion(pt.X)
            if not mods.lindyn.is_stable(J):
                continue                            # middle branch: a regime result
            tally["points"] += 1
            try:
                cov = mods.covariance.solve_lyapunov(J, D)
            except Exception as exc:
                exc.lyapunov_operands = (J.entries, D.entries)   # for sweep_explains
                raise
            mods.correlations.quadrature_variances(params, pt.X)
            form, rows = _closed_rows(mods, params, pt.X)
            mods.correlations.g2_numeric(params, pt.X, SWEEP_G2_GRID)
            tally["delays"] += SWEEP_G2_GRID.size
            mods.scattering.side_flux(params, pt.X, math.pi / 2, 1e-3)
            results.append((pt.X, J.entries, D.entries, cov.entries, form, rows))
        return results

    oracle = {}     # by the exact bytes of (J, D): scipy's results are computed once

    def check(mods, out, outputs):
        for X, J, D, cov, form, rows in out:
            key = (J.tobytes(), D.tobytes(), form)
            if key not in oracle:
                exact = refined_covariance(J, D)[3, 2:4] if form == "weak" else None
                oracle[key] = (backward_error(J, oracle_covariance(J, D), D), exact)
            be_ref, exact = oracle[key]
            be = backward_error(J, cov, D)
            _ensure(be <= max(BACKWARD_FACTOR * be_ref, BACKWARD_FLOOR), "BackwardError",
                    f"C={C:g} xi={xi:g} X={X:g}: {be:.2e} vs scipy {be_ref:.2e}")
            if form == "weak":
                weak = rows.entries.real[2:4]          # (nu, nu*) of the nu* row
                dev = float(np.max(np.abs(weak - exact) / np.abs(exact)))
                # Known at C <= 4 only: there the guard has no X_minus and
                # lets the weak row through at any X.
                _ensure(dev <= WEAK_ROW_REL, "WeakRowMismatch",
                        f"C={C:g} xi={xi:g} X={X:g}: weak row off by {dev:.2e}",
                        known=C <= 4.0)

    return Request(key=f"point-{k}", run=run, check=check)


def _build_sweep(mods, seed, tmpdir):
    requests = [_sweep_request(k, *pt) for k, pt in enumerate(_sweep_points(seed))]
    return requests, requests[0]


# ---------------------------------------------------------------------------
# time_domain
# ---------------------------------------------------------------------------

TD_EVOLVE_DELAYS = 100
TD_TRIALS = 500
TD_ATOMS = 100


def _build_time_domain(mods, seed, tmpdir):
    rng = np.random.default_rng([seed, 3])
    C, xi = rng.uniform(20.0, 50.0), rng.uniform(2.0, 5.0)
    Xm, Xp = _turning_amplitudes(C)
    Y = _drive(C, Xp) + rng.uniform(0.3, 0.7) * (_drive(C, Xm) - _drive(C, Xp))
    lower, middle, upper = _state_roots(C, Y)
    params = mods.params.SystemParams(C=C, xi=xi, N=ATOM_NUMBER)
    requests = []
    for label, X, t_max, tol in (("lower", lower, 8.0, RELAX_TOL),
                                 ("upper", upper, 8.0, RELAX_TOL),
                                 ("middle", middle, 12.0, ESCAPE_TOL)):
        s0 = mods.steady_state.steady_mb_state(X)
        u = rng.normal(size=5)
        start = s0 + 1e-3 * (1.0 + np.abs(s0)) * u / np.linalg.norm(u)
        targets = (lower, upper) if label == "middle" else (X,)
        requests.append(_mb_request(params, Y, label, start, t_max, tol, targets))
    idx = np.unique(np.round(np.geomspace(1, TD_UNIFORM_GRID.size - 1, 300)).astype(int))
    idx = np.concatenate([[0], idx])
    for label, X in (("lower", lower), ("upper", upper)):
        requests.append(_g2_request(params, X, f"g2-uniform-{label}", TD_UNIFORM_GRID, None))
        requests.append(_g2_request(params, X, f"g2-log-{label}", TD_UNIFORM_GRID[idx],
                                    (f"g2-uniform-{label}", idx)))
    models = []
    for X in (lower, upper):
        J = mods.lindyn.build_jacobian(params, X)
        cov = mods.covariance.solve_lyapunov(J, mods.lindyn.build_diffusion(X))
        models.append((J, mods.covariance.covariance_row(cov, "nu*")))
    evolve = _evolve_request(models, 10.0 ** rng.uniform(-2.0, 1.0, TD_EVOLVE_DELAYS))
    requests.append(evolve)
    cube_seed = int(rng.integers(2**31))
    cube = mods.scattering.sample_positions_cube(TD_ATOMS, 50.0, seed=cube_seed)
    requests.append(_phase_sum_request("phase-cube", cube, cube_seed))
    requests.append(_phase_sum_request("phase-bragg", mods.scattering.bragg_chain(TD_ATOMS),
                                       cube_seed + 1))
    return requests, evolve


def _mb_request(params, Y, label, start, t_max, tol, targets):
    def run(mods, tally):
        _, states = mods.steady_state.integrate_maxwell_bloch(params, Y, start, t_max)
        return states[-1]

    def check(mods, out, outputs):
        steady = [mods.steady_state.steady_mb_state(X) for X in targets]
        dist = [np.max(np.abs(out - s) / (1.0 + np.abs(s))) for s in steady]
        _ensure(min(dist) <= tol, "MaxwellBlochEndState",
                f"{label}: end state {min(dist):.2e} from its root")

    return Request(key=f"mb-{label}", run=run, check=check)


def _g2_request(params, X, key, grid, shared):
    def run(mods, tally):
        tally["points"] += 1
        tally["delays"] += grid.size
        return mods.correlations.g2_numeric(params, X, grid).values

    def check(mods, out, outputs):
        if shared is None:
            J = mods.lindyn.build_jacobian(params, X).entries
            c0 = oracle_covariance(J, mods.lindyn.build_diffusion(X).entries)[3]
            p = X / (1.0 + X * X)
            norm = (p * p + c0[2] / params.N) ** 2
            probe = np.arange(0, grid.size, 150)
            c = np.array([scipy.linalg.expm(J * grid[k]) @ c0 for k in probe])
            want = 1.0 + (2.0 / params.N) * p * p * (c[:, 2] + c[:, 3]) / norm
            dev = float(np.max(np.abs(out[probe] - want)))
            _ensure(dev <= ORACLE_REL, "G2Oracle", f"{key}: deviation {dev:.2e}")
        else:
            uniform_key, idx = shared
            uniform = outputs.get(uniform_key)
            _ensure(uniform is not None and uniform is not FAILED, "G2SharedDelays",
                    f"{key}: no uniform-grid result")
            dev = float(np.max(np.abs(out - uniform[idx])))
            _ensure(dev <= ORACLE_REL, "G2SharedDelays", f"{key}: deviation {dev:.2e}")

    return Request(key=key, run=run, check=check)


def _evolve_request(models, delays):
    """Correlation vectors propagated to scattered delays, alternating
    between the lower- and upper-root models."""
    pairs = [(models[k % 2], tau) for k, tau in enumerate(delays)]

    def run(mods, tally):
        tally["delays"] += len(pairs)
        return [mods.covariance.evolve_correlation_vector(J, c0, tau).entries
                for (J, c0), tau in pairs]

    def check(mods, out, outputs):
        for ((J, c0), tau), got in zip(pairs, out):
            want = scipy.linalg.expm(J.entries * tau) @ c0.entries
            dev = float(np.max(np.abs(got - want)) / np.max(np.abs(c0.entries)))
            _ensure(dev <= ORACLE_REL, "PropagatorOracle", f"tau={tau:g}: deviation {dev:.2e}")

    return Request(key="evolve", run=run, check=check)


def _phase_sum_request(key, positions, rng_seed):
    def run(mods, tally):
        geom = mods.scattering.ScatterGeometry(positions=positions, rng_seed=rng_seed)
        return mods.scattering.phase_sum_monte_carlo(geom, TD_TRIALS)

    def check(mods, out, outputs):
        mean, peak = oracle_phase_sum(positions, rng_seed, TD_TRIALS)
        _ensure(out.trials == TD_TRIALS and out.coherent_bound == len(positions) - 1
                and abs(out.mean_abs - mean) <= 1e-9 * mean
                and abs(out.max_abs - peak) <= 1e-9 * peak,
                "PhaseSumOracle", f"{key}: {out} vs mean {mean}, max {peak}")

    return Request(key=key, run=run, check=check)


# ---------------------------------------------------------------------------
# cli_export
# ---------------------------------------------------------------------------

def _build_cli_export(mods, seed, tmpdir):
    rng = np.random.default_rng([seed, 4])
    requests = []
    for name in mods.presets.PRESET_NAMES:
        for fmt in ("csv", "json"):
            requests.append(_preset_request(tmpdir, name, fmt, seed))
    C, xi = rng.uniform(5.0, 50.0), rng.uniform(0.5, 2.0)
    Xm, Xp = _turning_amplitudes(C)
    X_weak = rng.uniform(0.02, 0.08) * Xm
    Y_bi = _drive(C, Xp) + rng.uniform(0.2, 0.8) * (_drive(C, Xm) - _drive(C, Xp))
    xmax = rng.uniform(5.0, 15.0) * Xp
    c, x, Xw = _num(C), _num(xi), _num(X_weak)
    specs = [
        ("curve", "csv", ["curve", "--C", c, "--xmax", _num(xmax), "--points", "400"],
         lambda m: [list(r) for r in m.steady_state.curve_points(C, xmax, n=400)[0]]),
        ("solve", "csv", ["solve", "--C", c, "--y", _num(Y_bi)],
         lambda m: [[p.X, p.Y, p.branch] for p in m.steady_state.solve_state_equation(C, Y_bi)]),
        ("squeeze", "json", ["squeeze", "--C", c, "--xi", x, "--X", Xw],
         lambda m: _squeeze_record(m.correlations.quadrature_variances(
             m.params.SystemParams(C=C, xi=xi, N=1), X_weak))),
        ("spectrum", "csv", ["spectrum", "--method", "weak-closed", "--C", c, "--xi", x],
         lambda m: _series_rows(m.spectra.spectrum_closed_form(
             "weak-closed", m.params.SystemParams(C=C, xi=xi, N=1),
             y_grid=SPECTRUM_GRID))),
        ("g2", "csv", ["g2", "--variant", "atomic-weak", "--C", c, "--xi", x, "--N", "310",
                       "--X", Xw],
         lambda m: _series_rows(m.correlations.g2_closed_form(
             "atomic-weak", m.params.SystemParams(C=C, xi=xi, N=310), X=X_weak,
             tau_bar_grid=TD_UNIFORM_GRID))),
        ("scatter", "json", ["scatter", "--C", c, "--xi", x, "--X", Xw],
         lambda m: _flux_record(m.scattering.side_flux(
             m.params.SystemParams(C=C, xi=xi, N=1), X_weak, np.pi / 2, 1e-3))),
    ]
    for key, fmt, argv, reference in specs:
        requests.append(_export_request(tmpdir, key, fmt, argv, reference, seed))
    return requests, requests[0]


def _series_rows(series):
    x = series.y if hasattr(series, "y") else series.tau_bar
    return [[a, b] for a, b in zip(x.tolist(), series.values.tolist())]


def _squeeze_record(qv):
    return {"var_J0": qv.var_J0, "var_Jpi2": qv.var_Jpi2, "squeezed": qv.squeezed,
            "ratio": qv.ratio, "method": qv.method}


def _flux_record(res):
    return {"flux": res.flux, "weak_flux": res.weak_flux,
            "R_gamma_over_gammaN": res.R_gamma_over_gammaN}


def _parse_rows(path, fmt):
    """Rows of a written table, values converted back from text."""
    if fmt == "json":
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)["rows"]
    rows = read_csv(path)[3]
    return [[_parse_cell(v) for v in row] for row in rows]


def _parse_cell(text):
    try:
        return float(text)
    except ValueError:
        return text


class _FileVerdicts:
    """Parse-back verdict of each written file, kept with the file's digest.

    A file is parsed back on its first check only; later passes compare its
    bytes with the first pass and repeat the first verdict.
    """

    def __init__(self):
        self.seen = {}      # path -> (digest, CheckMiss or None)

    def check(self, path, parse_back):
        digest = _digest(path)
        if path not in self.seen:
            try:
                parse_back()
                miss = None
            except CheckMiss as exc:
                miss = exc
            self.seen[path] = (digest, miss)
        first, miss = self.seen[path]
        _ensure(first == digest, "BytesDiffer", f"{os.path.basename(path)} changed")
        if miss is not None:
            raise miss


def _preset_request(tmpdir, name, fmt, seed):
    stem = os.path.join(tmpdir, f"preset-{name}-{fmt}")
    argv = ["preset", name, "--format", fmt, "--out", stem, "--seed", str(seed)]
    verdicts = _FileVerdicts()
    reference = {}

    def run(mods, tally):
        _cli(mods, argv)
        return stem

    def check(mods, out, outputs):
        if not reference:
            reference.update(mods.presets.run_preset(name, seed=seed))
        for label, series in reference.items():
            path = f"{stem}_{label}.{fmt}"

            def parse_back():
                _ensure(_parse_rows(path, fmt) == _series_rows(series), "ParseBack",
                        f"{os.path.basename(path)} differs from the in-memory series")

            verdicts.check(path, parse_back)

    return Request(key=f"preset-{name}-{fmt}", run=run, check=check)


def _export_request(tmpdir, key, fmt, argv, reference, seed):
    path = os.path.join(tmpdir, f"{key}.{fmt}")
    argv = argv + ["--format", fmt, "--out", path, "--seed", str(seed)]
    verdicts = _FileVerdicts()

    def run(mods, tally):
        _cli(mods, argv)
        if key in ("squeeze", "scatter"):
            tally["points"] += 1
        return path

    def parse_back(mods):
        want = reference(mods)
        if isinstance(want, dict):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            got = {k: doc[k] for k in want}
        else:
            got = _parse_rows(path, fmt)
        _ensure(got == want, "ParseBack", f"{key}: file differs from the in-memory result")

    def check(mods, out, outputs):
        verdicts.check(path, lambda: parse_back(mods))

    return Request(key=key, run=run, check=check)


def sweep_explains(exc):
    """The Lyapunov false failures, where the oracle confirms their cause."""
    operands = getattr(exc, "lyapunov_operands", None)
    if operands is None:
        return False
    J, D = operands
    if type(exc).__name__ == "ConditioningError":
        return residual_bound_unreachable(J, D, oracle_covariance(J, D))
    if type(exc).__name__ == "SingularMatrixError":
        return symmetric_system_singular(J)
    return False


WORKLOADS = {
    w.name: w for w in (
        Workload("spectra_numeric", _build_spectra),
        Workload("operating_point_sweep", _build_sweep, sweep_explains),
        Workload("time_domain", _build_time_domain),
        Workload("cli_export", _build_cli_export),
    )
}
