"""optbistab benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
`src/` directory. Prints human-readable metric lines, then one JSON line with
`correct`, `attempted`, `failed` and `metrics` as the last line of stdout.
See bench/README.md for the metrics and workloads.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

PACKAGE_MODULES = ("params", "numerics", "steady_state", "lindyn", "covariance",
                   "spectra", "correlations", "scattering", "presets", "output", "cli")
SETUP_REPEATS = 7
BLAS_THREADS = 1      # the load is one process, one thread


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pin_blas_threads():
    """Fix the BLAS pool size; must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_package():
    """Import optbistab from src/; returns {short name: module}."""
    pkg = importlib.import_module("optbistab")
    if Path(pkg.__file__).resolve().parent != SRC / "optbistab":
        raise ImportError(f"optbistab imported from {pkg.__file__}, not {SRC}")
    return {name: importlib.import_module(f"optbistab.{name}") for name in PACKAGE_MODULES}


IMPORT_CHILD = ("import importlib, sys\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "for name in sys.argv[2:]:\n"
                "    importlib.import_module('optbistab.' + name)\n")


def timed_fresh_import():
    """Seconds for a new interpreter to start and import every package module,
    so third-party imports the package adds are paid in every set-up."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_CHILD, str(SRC), *PACKAGE_MODULES],
                   check=True, timeout=120)
    return time.perf_counter() - t0


def provenance(args):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def new_tally():
    """Operating points, frequencies and delays asked for by requests."""
    return dict.fromkeys(("points", "frequencies", "delays"), 0)


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.latencies = {}        # request key -> seconds
        self.raised = set()        # keys of the requests that raised
        self.failures = []         # (request key, failure class, known) per failed request
        self.attempted = 0

    @property
    def completed(self):
        return self.attempted - len(self.failures)


def failure_class(exc):
    return getattr(exc, "kind", type(exc).__name__)


def run_pass(requests, mods, workload, rec=None, tally=None, reported=None):
    """Run every request once, timed; then classify the raised failures and
    check every output, untimed."""
    from workloads import FAILED, CheckMiss
    res = PassResult()
    tally = new_tally() if tally is None else tally
    outputs, raised = {}, []
    # Every pass starts from a collected heap, so the cyclic garbage of
    # earlier passes neither costs time in this one nor raises peak memory
    # with the number of passes.
    gc.collect()
    clock = time.perf_counter
    start = clock()
    for i, req in enumerate(requests):
        if rec is not None:
            rec.current_request = i
            rec.active = True
        t0 = clock()
        try:
            outputs[req.key] = req.run(mods, tally)
        except Exception as exc:       # a failed request; classified after the pass
            outputs[req.key] = FAILED
            raised.append((exc, req))
            res.raised.add(req.key)
        finally:
            res.latencies[req.key] = clock() - t0
            if rec is not None:
                rec.active = False
    res.wall = clock() - start
    for exc, req in raised:
        _record_failure(res, exc, workload.explains(exc), req, reported)
    for req in requests:
        out = outputs[req.key]
        if out is FAILED:
            continue
        try:
            req.check(mods, out, outputs)
        except CheckMiss as exc:
            _record_failure(res, exc, exc.known, req, reported)
        except Exception as exc:       # an output the check could not even read
            miss = CheckMiss(f"Unreadable{type(exc).__name__}", str(exc))
            _record_failure(res, miss, False, req, reported)
    res.attempted = len(requests)
    return res


def _record_failure(res, exc, known, req, reported):
    kind = failure_class(exc)
    res.failures.append((req.key, kind, bool(known)))
    label = kind if known else f"unexpected {kind}"
    if reported is not None and label not in reported:
        reported.add(label)
        print(f"first {label} failure at request {req.key}: {exc}", file=sys.stderr)


def setup(workload, mods, seed, tmpdir):
    """Import the package in a fresh interpreter, build the inputs, run one
    warm-up request."""
    import_s = timed_fresh_import()
    t0 = time.perf_counter()
    requests, warmup = workload.build(mods, seed, tmpdir)
    try:
        warmup.run(mods, new_tally())
    except Exception:    # a warm-up failure shows again in the measured passes
        pass
    return import_s + time.perf_counter() - t0, requests


def another_pass(passes, seconds):
    """True while a pass as long as the last one still ends within `seconds`
    of pass time; the first pass is always made."""
    if not passes:
        return True
    spent = sum(p.wall for p in passes)
    return spent + passes[-1].wall <= seconds


def measure(requests, mods, workload, seconds, reported):
    """Untraced passes for `seconds` of pass time (at least one pass)."""
    passes = []
    while another_pass(passes, seconds):
        passes.append(run_pass(requests, mods, workload, reported=reported))
    return passes


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values), q))


def request_latencies(passes):
    """Each request's median latency over the passes in which it returned
    (over all passes, if no request ever returned).

    Taking the median per request first keeps short bursts of load from
    other processes out of the percentiles taken across the request mix.
    """
    returned, every = {}, {}
    for p in passes:
        for key, t in p.latencies.items():
            every.setdefault(key, []).append(t)
            if key not in p.raised:
                returned.setdefault(key, []).append(t)
    return [statistics.median(ts) for ts in (returned or every).values()]


def end_to_end(passes, setup_times):
    walls = [p.wall for p in passes]
    lat = request_latencies(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", f"{len(setup_times)} set-ups"),
        "wall_s": (statistics.median(walls), "s", f"{len(walls)} passes"),
        "requests_per_s": (statistics.median(p.completed / p.wall for p in passes), "1/s",
                           f"{len(walls)} passes"),
        "request_p50_ms": (percentile(lat, 50) * 1e3, "ms", f"{len(lat)} requests"),
        "request_p90_ms": (percentile(lat, 90) * 1e3, "ms", f"{len(lat)} requests"),
        "peak_rss_mb": (rss_mb, "MB", "1 process"),
    }
    return metrics


def per_layer(rec, traced, untraced, tallies):
    """Per-function calls/self_s/failures per traced pass, plus waste ratios."""
    from recorder import LAYER_FUNCTIONS, SIZED_WRITERS, summarize
    n = len(traced)
    samples = f"{n} traced passes"
    summary = summarize(rec)
    metrics = {}
    for mod, fnames in LAYER_FUNCTIONS.items():
        for fname in fnames:
            s = summary.get(f"{mod}.{fname}", {"calls": 0, "self_s": 0.0, "failures": 0})
            metrics[f"{mod}.{fname}.calls"] = (s["calls"] / n, "count", samples)
            metrics[f"{mod}.{fname}.self_s"] = (s["self_s"] / n, "s", samples)
            metrics[f"{mod}.{fname}.failures"] = (s["failures"] / n, "count", samples)
    for name in SIZED_WRITERS:
        metrics[f"{name}.bytes"] = (rec.bytes.get(name, 0) / n, "bytes", samples)
    total = new_tally()
    for t in tallies:
        for k in total:
            total[k] += t[k]

    def ratio(fn, denom):
        calls = summary.get(fn, {"calls": 0})["calls"]
        return (calls / total[denom] if total[denom] else 0.0, "ratio", samples)

    metrics["covariance.lyapunov_solves_per_point"] = ratio("covariance.solve_lyapunov", "points")
    metrics["lindyn.jacobian_builds_per_point"] = ratio("lindyn.build_jacobian", "points")
    metrics["covariance.resolvent_calls_per_frequency"] = ratio(
        "covariance.laplace_correlation_vector", "frequencies")
    metrics["numerics.expm_calls_per_delay"] = ratio("numerics.matrix_exponential", "delays")
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall for p in traced) / statistics.median(p.wall for p in untraced),
        "ratio", samples)
    return metrics


def traced_passes(requests, mods, workload, seconds, reported, span_path):
    """Instrument the package, run traced passes, restore it, save the spans."""
    from recorder import LAYER_FUNCTIONS, Recorder, instrument
    rec = Recorder()
    inst = instrument(rec, vars(mods), LAYER_FUNCTIONS)
    passes, tallies = [], []
    try:
        while another_pass(passes, seconds / 2):
            tally = new_tally()
            passes.append(run_pass(requests, mods, workload, rec=rec, tally=tally,
                                   reported=reported))
            tallies.append(tally)
    finally:
        inst.restore()
    span_path.parent.mkdir(exist_ok=True)
    rec.save(span_path)
    return rec, passes, tallies


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "optbistab" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/optbistab", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    warnings.simplefilter("ignore")   # regime warnings of library calls are expected
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))

    reported = set()
    (BENCH_DIR / "tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "tmp") as tmpdir:
        mods = types.SimpleNamespace(**import_package())
        setup_times = []
        for _ in range(SETUP_REPEATS):
            dt, requests = setup(workload, mods, args.seed, tmpdir)
            setup_times.append(dt)
        passes = measure(requests, mods, workload, args.seconds, reported)
        all_passes = list(passes)
        if args.trace:
            span_path = BENCH_DIR / "out" / f"spans-{args.workload}-seed{args.seed}.npz"
            rec, traced, tallies = traced_passes(requests, mods, workload, args.seconds,
                                                 reported, span_path)
            all_passes += traced
            metrics = per_layer(rec, traced, passes, tallies)
            print(f"spans written to {span_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end(passes, setup_times)

    # Attempted and failed count the distinct requests of the fixed list, not
    # their repetitions, so they depend on the seed alone and not on how many
    # passes fit in --seconds. A request fails if it failed in any pass.
    attempted = len(requests)
    first_failure = {}
    for p in all_passes:
        for key, kind, known in p.failures:
            first_failure.setdefault(key, (kind, known))
    failures = list(first_failure.values())
    classes = sorted({kind for kind, _ in failures})
    by_class = {k: sum(kind == k for kind, _ in failures) for k in classes}
    unexpected = sorted({kind for p in all_passes for _, kind, known in p.failures
                         if not known})
    print(f"workload {workload.name}: {len(requests)} requests per pass; "
          f"{len(passes)} untraced passes")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} ({n})")
    print(f"  fail_ratio = {len(failures) / attempted:.6g} ratio "
          f"(failed {len(failures)} of {attempted} distinct requests; by class {by_class})")
    if unexpected:
        print(f"  failures without their documented cause: {unexpected}")
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
