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
import re
import shutil
import sys
import warnings as _warnings
from collections.abc import Callable

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


class UsageError(Exception):
    pass


def _param_sources(args):
    """Whether --params, inline C/xi and inline rates were given, in that order."""
    return [any(name in args.given for name in source)
            for source in (("params",), ("C", "xi"), ("g_mhz", "kappa_mhz", "gamma_mhz"))]


def resolve_params(args, need_N=False):
    """Build SystemParams from --params or inline flags (exactly one source)."""
    from_file, inline_dimless, inline_rates = _param_sources(args)
    sources = from_file + inline_dimless + inline_rates
    if sources == 0:
        raise UsageError("no parameter source: use --params or inline flags")
    if sources > 1:
        raise UsageError("choose exactly one parameter source")
    if args.params:
        return _load_file("params", args.params, params_mod.params_from_file)
    if inline_rates:
        if not {"N", "g_mhz", "kappa_mhz", "gamma_mhz"} <= set(args.given):
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


def _load_file(flag, path, load):
    """load(path), with a missing, unreadable or malformed file a usage error
    naming it; a params file with the wrong keys stays a parameter error."""
    try:
        return load(path)
    except ParameterError:
        raise
    except (OSError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise UsageError(f"--{flag} file {path!r}: {exc}") from None


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
    if args.xmax is None:
        raise UsageError("curve needs --xmax (or --y)")
    rows, tp = steady_state.curve_points(args.C, args.xmax, n=args.points)
    meta = {"C": args.C, "command": "curve", "seed": args.seed}
    if tp.exists or tp.degenerate:
        meta.update({"X_minus": tp.X_minus, "X_plus": tp.X_plus,
                     "Y_minus": tp.Y_minus, "Y_plus": tp.Y_plus,
                     "bistable": tp.exists, "degenerate": tp.degenerate})
    else:
        meta.update({"bistable": False, "summary": "monostable"})
    _emit_record(args, args.out or "curve", meta, ("X", "Y", "branch"), rows)


def cmd_solve(args):
    """Roots of the state equation at the drive --y (also `curve --y`)."""
    points = steady_state.solve_state_equation(args.C, args.y)
    rows = [(pt.X, pt.Y, pt.branch) for pt in points]
    meta = {"C": args.C, "Y": args.y, "command": args.command, "seed": args.seed}
    _emit_record(args, args.out or "solve", meta, ("X", "Y", "branch"), rows)


def _pick_operating_point(params, args):
    """Amplitude from --X directly or from --Y plus a branch selector, which
    must match the branch label of the root it picks."""
    if args.X is not None:
        return args.X
    if args.Y is None:
        raise UsageError("give --X or --Y")
    points = steady_state.solve_state_equation(params.C, args.Y)
    if len(points) > 1:
        if args.branch not in ("lower", "upper"):
            raise UsageError("multiple roots: disambiguate with --branch lower|upper")
        points = [p for p in points if p.branch == args.branch]
        if not points:
            raise UsageError(f"no {args.branch} root at Y={args.Y:g}")
    X, side = points[0].X, points[0].branch
    if side not in ("lower", "upper", "monostable"):
        raise UnstableDriftError("linearization invalid on the unstable branch")
    if args.branch is not None and side == "monostable":
        raise UsageError(f"C={params.C:g} is not bistable: drop --branch")
    if args.branch not in (None, side):
        raise UsageError(f"the one root at Y={args.Y:g} (X={X:g}) is on the "
                         f"{side} side, not --branch {args.branch}")
    return X


def cmd_spectrum(args):
    form = spectra.CLOSED_FORMS.get(args.method)
    kind = form.kind if form else args.kind
    if args.kind != kind and "kind" in args.given:
        raise UsageError(f"--method {args.method} gives the {kind} spectrum, "
                         f"not --kind {args.kind}")
    # a shape that depends only on X runs without params
    no_params = form and "params" not in form.needs and not any(_param_sources(args))
    params = None if no_params else resolve_params(args)
    if args.branch == "unstable-middle":
        raise UnstableDriftError("linearization invalid on the unstable branch")
    grid = np.linspace(-args.ymax, args.ymax, args.points)
    if args.method == "numeric":
        X = _pick_operating_point(params, args)
        model = linearize(params, X)
        series = spectra.spectrum_numeric(params, X, kind, grid, model=model)
        check = spectra.verify_unit_area(f"numeric-{kind}", params, X, model=model)
        norm_note = [f"unit-area check: {check['area']:.6f} "
                     f"(tail bound {check['tail_bound']:.2e}) "
                     f"(quadrature error {check['quadrature_error']:.2e})"]
    else:
        if "X" in form.needs and args.X is None and params is None:
            raise UsageError(f"--method {args.method} needs --X (or --Y with params)")
        X = _pick_operating_point(params, args) if "X" in form.needs else args.X
        series = spectra.spectrum_closed_form(args.method, params, X=X, y_grid=grid)
        norm_note = []
    if series.validity_window is not None and not args.full_range:
        lo, hi = series.validity_window
        keep = (series.y >= lo) & (series.y <= hi)
        series = dataclasses.replace(series, y=series.y[keep],
                                     values=series.values[keep])
    _emit_series(args, [(args.method, series)], warn_msgs=norm_note)


def cmd_g2(args):
    params = resolve_params(args, need_N=True)
    grid = np.linspace(0.0, args.taumax, args.points)
    if args.variant in correlations.G2_X_VARIANTS and args.X is None:
        raise UsageError(f"g2 --variant {args.variant} needs --X")
    if args.variant == "numeric":
        series = correlations.g2_numeric(params, args.X, grid)
    else:
        series = correlations.g2_closed_form(args.variant, params, X=args.X,
                                             tau_bar_grid=grid)
    _emit_series(args, [(args.variant, series)])


def cmd_squeeze(args):
    params = resolve_params(args)
    qv = correlations.quadrature_variances(params, args.X)
    meta = params_mod.params_meta(params, X=args.X, command="squeeze", seed=args.seed)
    _emit_record(args, args.out or "squeeze", meta, record=dataclasses.asdict(qv))


def cmd_scatter(args):
    if args.phase_sum:
        if args.geometry is not None:
            if args.N is not None or "cube" in args.given:
                raise UsageError("--geometry gives the positions: drop --N and --cube")
            geom = _load_file("geometry", args.geometry,
                              lambda path: scattering.load_geometry(path, args.seed))
            if len(geom.positions) < 2:
                raise UsageError(f"--geometry file {args.geometry!r}: one atom, needs 2")
            source = {"geometry_file": args.geometry, "N": len(geom.positions)}
        else:
            if args.N is None or args.N < 2:
                raise UsageError("--phase-sum needs --N >= 2 (or --geometry FILE)")
            positions = scattering.sample_positions_cube(args.N, args.cube, seed=args.seed)
            geom = scattering.ScatterGeometry(positions=positions,
                                              rng_seed=args.seed)
            source = {"N": args.N, "cube_side_lambda": args.cube}
        stats = scattering.phase_sum_monte_carlo(geom, args.trials)
        meta = {"command": "scatter-phase-sum", **source, "trials": args.trials,
                "seed": args.seed}
        _emit_record(args, args.out or "phase_sum", meta,
                     record=dataclasses.asdict(stats))
        return
    # incoherent side flux
    params = resolve_params(args)
    if args.X is None:
        raise UsageError("scatter flux needs --X")
    res = scattering.side_flux(params, args.X, args.theta, args.solid_angle)
    meta = params_mod.params_meta(params, X=args.X, theta=args.theta,
                                  solid_angle=args.solid_angle,
                                  command="scatter-flux", seed=args.seed)
    _emit_record(args, args.out or "side_flux", meta, record=dataclasses.asdict(res))


def cmd_preset(args):
    name = args.preset
    label_series = presets.run_preset(name, seed=args.seed)
    if args.out is None:
        args.out = name
    _emit_series(args, label_series, always_suffix=True)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Flag:
    """One flag: its argparse keywords and help, the value it reads when unset
    (argparse leaves it None, so a run can tell it was not given), the range
    of a given number (a key of _RANGES) and the runs that read it: `reads`
    maps a mode flag to a test of its value, which fails for a run that takes
    no such flag. A mode flag's mode(value) names its run."""

    spec: dict = dataclasses.field(default_factory=dict)
    help: str = ""
    default: object = None
    rule: str | None = None
    reads: dict = dataclasses.field(default_factory=dict)
    mode: Callable | None = None


_RANGES = {  # rule: (test of a finite value, the range in a message)
    "finite": (lambda v: True, ""),
    "positive": (lambda v: v > 0, " > 0"),
    "nonnegative": (lambda v: v >= 0, " >= 0"),
    "positive, at most 4pi": (lambda v: 0 < v <= 4.0 * np.pi, " in (0, 4pi]"),
}
_unset = lambda value: value is None
_FIXED = {"preset": _unset}  # a --preset run reads only the I/O flags
_FLUX, _PHASE_SUM = {"phase_sum": _unset}, {"phase_sum": bool}


def _form_reads(test):
    """A test of --method: test(the method's CLOSED_FORMS entry, None for numeric)."""
    return lambda method: test(spectra.CLOSED_FORMS.get(method))


def _param_flags(reads, N_reads):
    """--params, or --C and --xi, or the rates, with --N: params.validate
    checks the values, from a file and inline alike."""
    return {"params": Flag(help="JSON parameter file", reads=reads),
            "C": Flag(dict(type=float), "cooperativity", reads=reads),
            "xi": Flag(dict(type=float), "decay-rate ratio 2 kappa/gamma", reads=reads),
            "N": Flag(dict(type=int), "atom number", reads=N_reads),
            "g_mhz": Flag(dict(type=float), "g / 2pi in MHz", reads=reads),
            "kappa_mhz": Flag(dict(type=float), reads=reads),
            "gamma_mhz": Flag(dict(type=float), reads=reads)}


_IO = {"out": Flag(help="output path (or stem for multi-series runs)"),
       "format": Flag(dict(choices=("csv", "json")), default="csv"),
       "seed": Flag(dict(type=int), default=0)}
_PRESET = Flag(dict(choices=presets.PRESET_NAMES), mode=lambda name: f"--preset {name}")
_C = Flag(dict(type=float, required=True), rule="positive")
_DRIVE = {**_FIXED, "X": _unset, "method": _form_reads(lambda f: not f or "X" in f.needs)}

# command: (help, {dest: Flag}). A run refuses the first given flag, in table
# order, that one of its modes does not read, naming that mode.
_COMMANDS = {
    "curve": ("bistability curve with turning points", {
        "C": _C,
        "xmax": Flag(dict(type=float), rule="positive", reads={"y": _unset}),
        "y": Flag(dict(type=float), "solve the state equation at this drive",
                  rule="nonnegative", mode=lambda y: "curve --y"),
        "points": Flag(dict(type=int), "", 400, "positive", {"y": _unset}), **_IO}),
    "solve": ("roots of the state equation at a drive", {
        "C": _C, "y": Flag(dict(type=float, required=True), rule="nonnegative"), **_IO}),
    "spectrum": ("incoherent spectra", {
        "preset": _PRESET, **_param_flags(_FIXED, _FIXED),
        "kind": Flag(dict(choices=("atomic", "forward")),
                     "numeric anchor; a closed form has its own", "atomic", reads=_FIXED),
        "method": Flag(dict(choices=("numeric",) + spectra.CLOSED_FORM_VARIANTS),
                       default="numeric", reads=_FIXED,
                       mode=lambda method: f"spectrum --method {method}"),
        "Y": Flag(dict(type=float), rule="nonnegative", reads=_DRIVE),
        "branch": Flag(dict(choices=("lower", "upper", "unstable-middle")), reads=_DRIVE),
        "X": Flag(dict(type=float), rule="nonnegative", mode=lambda X: "spectrum --X", reads={
            **_FIXED, "method": _form_reads(lambda f: not f or "X" in f.needs + f.optional)}),
        "ymax": Flag(dict(type=float), "grid half-width", 30.0, "positive", _FIXED),
        "points": Flag(dict(type=int), "grid size", 2001, "positive", _FIXED),
        "full_range": Flag(dict(action="store_true"), "do not truncate series to their "
                           "validity window", reads={**_FIXED, "method": _form_reads(
                               lambda f: f and f.window is not None)}), **_IO}),
    "g2": ("second-order correlation functions", {
        "preset": _PRESET, **_param_flags(_FIXED, _FIXED),
        "variant": Flag(dict(choices=("numeric",) + correlations.G2_VARIANTS),
                        default="numeric", reads=_FIXED,
                        mode=lambda variant: f"g2 --variant {variant}"),
        # a variant reads X when it requires X or when its regime guard does
        "X": Flag(dict(type=float), rule="nonnegative", reads={**_FIXED, "variant": lambda v: (
            v in correlations.G2_X_VARIANTS or correlations._G2_PRECONDITIONS[v][0])}),
        "points": Flag(dict(type=int), "grid size", 1201, "positive", _FIXED),
        "taumax": Flag(dict(type=float), "largest delay", 6.0, "positive", _FIXED), **_IO}),
    "squeeze": ("quadrature variances and squeezing", {
        **_param_flags({}, {}), "X": Flag(dict(type=float, required=True), rule="nonnegative"),
        **_IO}),
    "scatter": ("side flux and phase-sum Monte Carlo", {
        "phase_sum": Flag(dict(action="store_true"),
                          mode=lambda on: "scatter --phase-sum" if on else "scatter flux"),
        **_param_flags(_FLUX, {}),
        "geometry": Flag(help="JSON file with [x, y, z] positions in wavelength units",
                         reads=_PHASE_SUM),
        "cube": Flag(dict(type=float), "cube side in wavelengths for sampled positions",
                     50.0, "positive", _PHASE_SUM),
        "trials": Flag(dict(type=int), "phase-sum directions", 1000, "positive", _PHASE_SUM),
        "X": Flag(dict(type=float), rule="nonnegative", reads=_FLUX),
        "theta": Flag(dict(type=float), "flux polar angle", np.pi / 2, "finite", _FLUX),
        "solid_angle": Flag(dict(type=float), "", 1e-3, "positive, at most 4pi", _FLUX),
        **_IO}),
    "preset": ("run a named figure preset", _IO),
}


def build_parser():
    # argparse reads the terminal width for each argument it adds; read it once
    width = shutil.get_terminal_size().columns - 2
    formatter = lambda prog: argparse.HelpFormatter(prog, width=width)
    ap = argparse.ArgumentParser(
        prog="optbistab", formatter_class=formatter,
        description="Linearized fluctuations in absorptive optical bistability",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, formatter_class=formatter)
        # argparse reads -1e-3 and -inf as options unless this matches them as numbers
        p._negative_number_matcher = re.compile(
            r"-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|-(inf|infinity|nan)$", re.I)
        if command == "preset":
            p.add_argument("preset", choices=presets.PRESET_NAMES)
        for name, flag in flags.items():
            shown = flag.help if flag.default is None \
                else f"{flag.help} (default {flag.default})".lstrip()
            p.add_argument("--" + name.replace("_", "-"), default=None, help=shown, **flag.spec)
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


def _check_flags(args, flags):
    """Refuse the first given flag, in table order, that a mode of the run does
    not read or whose number is out of range; an unset flag reads its default."""
    args.given = [name for name in flags if getattr(args, name) is not None]
    vars(args).update({n: f.default for n, f in flags.items() if n not in args.given})
    for name in args.given:
        option, flag, value = "--" + name.replace("_", "-"), flags[name], getattr(args, name)
        for mode, test in flag.reads.items():
            if not test(getattr(args, mode)):
                raise UsageError(f"{flags[mode].mode(getattr(args, mode))} takes no {option}")
        if flag.rule and not (np.isfinite(value) and _RANGES[flag.rule][0](value)):
            rule, bound = flag.rule if np.isfinite(value) else "finite", _RANGES[flag.rule][1]
            raise UsageError(f"{option} must be {rule}: give a finite {option}{bound}")


def _run(args):
    """Run the chosen command; map its failure to an exit code."""
    try:
        _check_flags(args, _COMMANDS[args.command][1])
        # `preset NAME` and the --preset of spectrum and g2 run here; the command
        # is looked up at call time
        run = cmd_preset if getattr(args, "preset", None) else globals()[f"cmd_{args.command}"]
        run(args)
        return EXIT_OK
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
