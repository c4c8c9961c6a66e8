"""Command-line interface.

Commands: curve, solve, spectrum, g2, squeeze, scatter, preset. Parameters
come from a JSON file (--params) or inline flags; exactly one source. Output
is CSV (default) or JSON with the resolved parameters and tool version
embedded, so reruns reproduce files byte-for-byte at a fixed seed.

Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 regime-validity
hard error. Recorded warnings go into the CSV notes or the JSON "warnings"
array. Every warning reaches stderr once, as a "warning: ..." line.
"""

import argparse
import dataclasses
import sys
import warnings as _warnings

import numpy as np

from . import correlations, output, params as params_mod, presets, scattering
from . import spectra, steady_state
from .covariance import UnstableDriftError, linearize
from .numerics import NumericsError
from .params import ParameterError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_REGIME = 4

_CUBE_SIDE = 50.0  # in wavelengths, of the cube `scatter --phase-sum --N` samples
# the flags a run ignores, which _refuse refuses: those a spectrum or g2 --preset
# fixes, and those only one scatter mode reads; all are unset (None) by default
_PRESET_FIXED = ("params", "C", "xi", "N", "g_mhz", "kappa_mhz", "gamma_mhz",
                 "X", "Y", "branch", "kind", "method", "variant", "ymax", "points", "taumax")
_FLUX_ONLY = ("params", "C", "xi", "g_mhz", "kappa_mhz", "gamma_mhz", "X", "theta",
              "solid_angle")
_PHASE_SUM_ONLY = ("geometry", "cube", "trials")


class UsageError(Exception):
    pass


def _add_param_flags(sub):
    sub.add_argument("--params", help="JSON parameter file")
    sub.add_argument("--C", type=float, help="cooperativity")
    sub.add_argument("--xi", type=float, help="decay-rate ratio 2 kappa/gamma")
    sub.add_argument("--N", type=int, help="atom number")
    sub.add_argument("--g-mhz", type=float, dest="g_mhz", help="g / 2pi in MHz")
    sub.add_argument("--kappa-mhz", type=float, dest="kappa_mhz")
    sub.add_argument("--gamma-mhz", type=float, dest="gamma_mhz")


def _add_io_flags(sub):
    sub.add_argument("--out", help="output path (or stem for multi-series runs)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0)


def _param_sources(args):
    """Whether --params, inline C/xi and inline rates were given, in that order."""
    inline_dimless = args.C is not None or args.xi is not None
    inline_rates = any(
        getattr(args, k) is not None for k in ("g_mhz", "kappa_mhz", "gamma_mhz")
    )
    return args.params is not None, inline_dimless, inline_rates


def resolve_params(args, need_N=False):
    """Build SystemParams from --params or inline flags (exactly one source)."""
    from_file, inline_dimless, inline_rates = _param_sources(args)
    sources = from_file + inline_dimless + inline_rates
    if sources == 0:
        raise UsageError("no parameter source: use --params or inline flags")
    if sources > 1:
        raise UsageError("choose exactly one parameter source")
    if args.params:
        return params_mod.params_from_file(args.params)
    if inline_rates:
        if args.N is None or args.g_mhz is None \
                or args.kappa_mhz is None or args.gamma_mhz is None:
            raise UsageError("rate parameters need --g-mhz --kappa-mhz --gamma-mhz --N")
        return params_mod.from_raw_rates(
            args.g_mhz, args.kappa_mhz, args.gamma_mhz, args.N, unit="MHz"
        )
    if args.C is None or args.xi is None:
        raise UsageError("dimensionless parameters need --C and --xi")
    if args.N is None:
        if need_N:
            raise UsageError("this command needs --N")
        return params_mod.SystemParams(C=args.C, xi=args.xi, N=1)
    return params_mod.SystemParams(C=args.C, xi=args.xi, N=args.N)


def _refuse(args, flags, run):
    """Usage error naming the first of `flags` given to `run`, which ignores it."""
    given = [f for f in flags if getattr(args, f, None) is not None]
    if given:
        raise UsageError(f"{run} takes no --{given[0].replace('_', '-')}")


def _emit_record(args, stem, meta, columns=None, rows=None, record=None,
                 warn_msgs=()):
    """Write one table, or one record of named values, as CSV or JSON.

    The path is `stem` with the format's suffix unless it already has it.
    `rows` is a 2-D array or a sequence of rows (see `output`). A
    JSON table is {meta, columns, rows, warnings}; a JSON record puts its
    values beside meta and warnings as flat keys. The warnings also go to
    stderr. Prints the path.
    """
    path = stem if stem.endswith(f".{args.format}") else f"{stem}.{args.format}"
    if record is not None:
        columns, rows = tuple(record), [tuple(record.values())]
    if args.format == "csv":
        output.write_csv(path, columns, rows, meta=meta, warnings_list=warn_msgs)
    elif record is None:
        output.write_json(path, {"meta": meta, "columns": list(columns),
                                 "rows": rows, "warnings": list(warn_msgs)})
    else:
        output.write_json(path, {"meta": meta, **record, "warnings": list(warn_msgs)})
    for w in warn_msgs:
        _print_warning(args, w)
    print(path)


def _print_warning(args, message):
    """Write `message` to stderr as a warning line, once per run."""
    if message not in args.warned:
        args.warned.add(message)
        print(f"warning: {message}", file=sys.stderr)


def _emit_series(args, label_series, warn_msgs=(), always_suffix=False):
    """Write one table per (label, series): y and T for a spectrum, tau_bar
    and g2 for a correlation."""
    stem = args.out or "out"
    multi = always_suffix or len(label_series) > 1
    for label, series in label_series:
        if isinstance(series, spectra.SpectrumSeries):
            columns, x = ("y", "T"), series.y
        else:
            columns, x = ("tau_bar", "g2"), series.tau_bar
        _emit_record(args, f"{stem}_{label}" if multi else stem,
                     output.series_meta(series, seed=args.seed), columns,
                     np.column_stack((x, series.values)),
                     warn_msgs=list(series.warnings) + list(warn_msgs))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_curve(args):
    if args.y is not None:
        return cmd_solve(args)
    if args.xmax is None or args.xmax <= 0:
        raise UsageError("curve needs --xmax > 0 (or --y)")
    C = args.C
    rows, tp = steady_state.curve_points(C, args.xmax, n=args.points)
    meta = {"C": C, "command": "curve", "seed": args.seed}
    if tp.exists or tp.degenerate:
        meta.update({"X_minus": tp.X_minus, "X_plus": tp.X_plus,
                     "Y_minus": tp.Y_minus, "Y_plus": tp.Y_plus,
                     "bistable": tp.exists, "degenerate": tp.degenerate})
    else:
        meta.update({"bistable": False, "summary": "monostable"})
    _emit_record(args, args.out or "curve", meta, ("X", "Y", "branch"), rows)
    return EXIT_OK


def cmd_solve(args):
    """Roots of the state equation at the drive --y (also `curve --y`)."""
    if not 0 <= args.y < np.inf:
        raise UsageError("the drive Y must be finite and nonnegative")
    points = steady_state.solve_state_equation(args.C, args.y)
    rows = [(pt.X, pt.Y, pt.branch) for pt in points]
    meta = {"C": args.C, "Y": args.y, "command": args.command, "seed": args.seed}
    _emit_record(args, args.out or "solve", meta, ("X", "Y", "branch"), rows)
    return EXIT_OK


def _pick_operating_point(params, args):
    """Amplitude from --X directly or from --Y plus a branch selector."""
    if args.X is not None:
        return args.X
    if args.Y is None:
        raise UsageError("give --X or --Y")
    points = steady_state.solve_state_equation(params.C, args.Y)
    stable = [p for p in points if p.branch in ("lower", "upper", "monostable")]
    if len(points) > 1:
        if args.branch not in ("lower", "upper"):
            raise UsageError("multiple roots: disambiguate with --branch lower|upper")
        matches = [p for p in points if p.branch == args.branch]
        if not matches:
            raise UsageError(f"no {args.branch} root at Y={args.Y:g}")
        return matches[0].X
    if not stable:
        raise UnstableDriftError("linearization invalid on the unstable branch")
    return points[0].X


def cmd_spectrum(args):
    method = args.method or "numeric"
    form = spectra.CLOSED_FORMS.get(method)
    kind = form.kind if form else args.kind or "atomic"
    if args.kind not in (None, kind):
        raise UsageError(f"--method {method} gives the {kind} spectrum, "
                         f"not --kind {args.kind}")
    # a shape that depends only on X runs without params
    no_params = form and "params" not in form.needs and not any(_param_sources(args))
    params = None if no_params else resolve_params(args)
    if args.X is not None:
        _refuse(args, ("Y", "branch"), "spectrum --X")
    if form and "X" not in form.needs:
        # only a form that needs X reads the drive; one that reads no X refuses it
        unread = ("Y", "branch") if "X" in form.optional else ("X", "Y", "branch")
        _refuse(args, unread, f"spectrum --method {method}")
    if args.branch == "unstable-middle":
        raise UnstableDriftError("linearization invalid on the unstable branch")
    ymax = 30.0 if args.ymax is None else args.ymax
    grid = np.linspace(-ymax, ymax, 2001 if args.points is None else args.points)
    if method == "numeric":
        X = _pick_operating_point(params, args)
        model = linearize(params, X)
        series = spectra.spectrum_numeric(params, X, kind, grid, model=model)
        check = spectra.verify_unit_area(f"numeric-{kind}", params, X, model=model)
        norm_note = [f"unit-area check: {check['area']:.6f} "
                     f"(tail bound {check['tail_bound']:.2e}) "
                     f"(quadrature error {check['quadrature_error']:.2e})"]
    else:
        X = args.X
        if "X" in form.needs and X is None:
            if params is None:
                raise UsageError(f"--method {method} needs --X (or --Y with params)")
            X = _pick_operating_point(params, args)
        series = spectra.spectrum_closed_form(method, params, X=X, y_grid=grid)
        norm_note = []
    if series.validity_window is not None and not args.full_range:
        lo, hi = series.validity_window
        keep = (series.y >= lo) & (series.y <= hi)
        series = dataclasses.replace(series, y=series.y[keep],
                                     values=series.values[keep])
    _emit_series(args, [(method, series)], warn_msgs=norm_note)
    return EXIT_OK


def cmd_g2(args):
    taumax = 6.0 if args.taumax is None else args.taumax
    if not 0 < taumax < np.inf:
        raise UsageError("g2 needs a finite --taumax > 0")
    params = resolve_params(args, need_N=True)
    grid = np.linspace(0.0, taumax, 1201 if args.points is None else args.points)
    variant = args.variant or "numeric"
    if variant in correlations.G2_X_VARIANTS and args.X is None:
        raise UsageError(f"g2 --variant {variant} needs --X")
    if variant not in correlations.G2_X_VARIANTS \
            and correlations._G2_PRECONDITIONS[variant][0] is None:
        # neither the values nor a regime guard of this form read X
        _refuse(args, ("X",), f"g2 --variant {variant}")
    if variant == "numeric":
        series = correlations.g2_numeric(params, args.X, grid)
    else:
        series = correlations.g2_closed_form(variant, params, X=args.X,
                                             tau_bar_grid=grid)
    _emit_series(args, [(variant, series)])
    return EXIT_OK


def cmd_squeeze(args):
    params = resolve_params(args)
    qv = correlations.quadrature_variances(params, args.X)
    meta = params_mod.params_meta(params, X=args.X, command="squeeze", seed=args.seed)
    _emit_record(args, args.out or "squeeze", meta, record=dataclasses.asdict(qv))
    return EXIT_OK


def cmd_scatter(args):
    if args.phase_sum:
        _refuse(args, _FLUX_ONLY, "scatter --phase-sum")
        if args.geometry is not None:
            if args.N is not None or args.cube is not None:
                raise UsageError("--geometry gives the positions: drop --N and --cube")
            geom = scattering.load_geometry(args.geometry, rng_seed=args.seed)
            source = {"geometry_file": args.geometry, "N": len(geom.positions)}
        else:
            if args.N is None or args.N < 2:
                raise UsageError("--phase-sum needs --N >= 2 (or --geometry FILE)")
            cube = _CUBE_SIDE if args.cube is None else args.cube
            positions = scattering.sample_positions_cube(args.N, cube, seed=args.seed)
            geom = scattering.ScatterGeometry(positions=positions,
                                              rng_seed=args.seed)
            source = {"N": args.N, "cube_side_lambda": cube}
        trials = 1000 if args.trials is None else args.trials
        stats = scattering.phase_sum_monte_carlo(geom, trials)
        meta = {"command": "scatter-phase-sum", **source, "trials": trials,
                "seed": args.seed}
        _emit_record(args, args.out or "phase_sum", meta,
                     record=dataclasses.asdict(stats))
        return EXIT_OK
    # incoherent side flux
    _refuse(args, _PHASE_SUM_ONLY, "scatter flux")
    params = resolve_params(args)
    if args.X is None:
        raise UsageError("scatter flux needs --X")
    theta = np.pi / 2 if args.theta is None else args.theta
    solid_angle = 1e-3 if args.solid_angle is None else args.solid_angle
    res = scattering.side_flux(params, args.X, theta, solid_angle)
    meta = params_mod.params_meta(params, X=args.X, theta=theta, solid_angle=solid_angle,
                                  command="scatter-flux", seed=args.seed)
    _emit_record(args, args.out or "side_flux", meta, record=dataclasses.asdict(res))
    return EXIT_OK


def cmd_preset(args):
    name = args.preset
    label_series = presets.run_preset(name, seed=args.seed)
    if args.out is None:
        args.out = name
    _emit_series(args, label_series, always_suffix=True)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="optbistab",
        description="Linearized fluctuations in absorptive optical bistability",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curve", help="bistability curve with turning points")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--xmax", type=float)
    p.add_argument("--y", type=float, help="solve the state equation at this drive")
    p.add_argument("--points", type=int, default=400)
    _add_io_flags(p)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("solve", help="roots of the state equation at a drive")
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("spectrum", help="incoherent spectra")
    _add_param_flags(p)
    p.add_argument("--kind", choices=("atomic", "forward"),
                   help="numeric default atomic; a closed form has its own")
    p.add_argument("--method", choices=("numeric",) + spectra.CLOSED_FORM_VARIANTS,
                   help="default numeric")
    p.add_argument("--X", type=float)
    p.add_argument("--Y", type=float)
    p.add_argument("--branch", choices=("lower", "upper", "unstable-middle"))
    p.add_argument("--ymax", type=float, help="grid half-width (default 30)")
    p.add_argument("--points", type=int, help="grid size (default 2001)")
    p.add_argument("--preset", choices=presets.PRESET_NAMES)
    p.add_argument("--full-range", action="store_true",
                   help="do not truncate series to their validity window")
    _add_io_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("g2", help="second-order correlation functions")
    _add_param_flags(p)
    p.add_argument("--variant", choices=("numeric",) + correlations.G2_VARIANTS,
                   help="default numeric")
    p.add_argument("--X", type=float)
    p.add_argument("--taumax", type=float, help="largest delay (default 6)")
    p.add_argument("--points", type=int, help="grid size (default 1201)")
    p.add_argument("--preset", choices=presets.PRESET_NAMES)
    _add_io_flags(p)
    p.set_defaults(func=cmd_g2)

    p = sub.add_parser("squeeze", help="quadrature variances and squeezing")
    _add_param_flags(p)
    p.add_argument("--X", type=float, required=True)
    _add_io_flags(p)
    p.set_defaults(func=cmd_squeeze)

    p = sub.add_parser("scatter", help="side flux and phase-sum Monte Carlo")
    _add_param_flags(p)
    p.add_argument("--phase-sum", action="store_true", dest="phase_sum")
    p.add_argument("--geometry", help="JSON file with [x, y, z] positions in "
                   "wavelength units")
    p.add_argument("--cube", type=float, help="cube side in wavelengths for "
                   f"sampled positions (default {_CUBE_SIDE:g})")
    p.add_argument("--trials", type=int, help="phase-sum directions (default 1000)")
    p.add_argument("--X", type=float)
    p.add_argument("--theta", type=float, help="flux polar angle (default pi/2)")
    p.add_argument("--solid-angle", type=float, dest="solid_angle", help="default 1e-3")
    _add_io_flags(p)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("preset", help="run a named figure preset")
    p.add_argument("preset", choices=presets.PRESET_NAMES)
    _add_io_flags(p)

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    args.warned = set()
    with _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        rc = _run(args)
    # a warning already printed with a file's notes is not printed again
    for w in caught:
        _print_warning(args, str(w.message))
    return rc


def _run(args):
    """Run the chosen command; map its failure to an exit code."""
    try:
        for flag in ("X", "Y", "ymax", "xmax", "cube"):
            if not np.isfinite(getattr(args, flag, None) or 0.0):  # unset reads 0
                raise UsageError(f"--{flag} must be finite")
        for flag in ("ymax", "cube", "solid_angle", "points", "trials"):
            if (value := getattr(args, flag, None)) is not None and value <= 0:
                raise UsageError(f"--{flag.replace('_', '-')} must be positive")
        # `preset NAME` and the --preset of spectrum and g2 run here
        preset = getattr(args, "preset", None)
        if preset:
            _refuse(args, _PRESET_FIXED, f"--preset {preset}")
        rc = cmd_preset(args) if preset else args.func(args)
        return rc if isinstance(rc, int) else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # UnstableDriftError and the regime errors
        print(f"regime error: {exc}", file=sys.stderr)
        return EXIT_REGIME


if __name__ == "__main__":
    sys.exit(main())
