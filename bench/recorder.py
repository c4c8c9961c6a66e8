"""Span recorder for the traced benchmark run.

Spans are recorded from outside the program: `instrument` replaces each
listed function by a wrapper in its defining module and in every other
module that holds the same function object (a `from ... import` re-binding),
so internal calls between modules are traced too. `Instrumentation.restore`
puts every original object back.

Spans live in memory as flat arrays (name, start, end, parent, request,
failed) and are written out once, when the run ends.
"""

import functools
import os
import time
from array import array

import numpy as np

# Functions traced per layer (module of the optbistab package). `params`
# only validates inputs, so its time is counted inside its callers.
LAYER_FUNCTIONS = {
    "steady_state": ("solve_state_equation", "integrate_maxwell_bloch", "curve_points"),
    "lindyn": ("build_jacobian", "build_diffusion", "is_stable"),
    "covariance": ("solve_lyapunov", "laplace_correlation_vector",
                   "evolve_correlation_vector"),
    "numerics": ("solve_complex_linear", "matrix_exponential", "integrate_ode",
                 "quadrature"),
    "spectra": ("spectrum_numeric", "verify_unit_area", "certified_area",
                "spectrum_closed_form"),
    "correlations": ("g2_numeric", "g2_closed_form", "quadrature_variances"),
    "scattering": ("phase_sum_monte_carlo", "auxiliary_spectrum", "side_flux"),
    "presets": ("run_preset",),
    "output": ("write_csv", "write_json"),
    "cli": ("main",),
}

# Writers whose first argument is the path written; their output size is
# recorded as <name>.bytes.
SIZED_WRITERS = ("output.write_csv", "output.write_json")

NO_PARENT = -1


class Recorder:
    """In-memory span store; wrappers record only while `active` is true."""

    def __init__(self):
        self.names = []                 # span name of each name id
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("i")
        self.failed = array("b")
        self.bytes = {}
        self.active = False
        self.current_request = -1
        self._open = [NO_PARENT]

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn):
        """Return a wrapper of `fn` that records one span per call."""
        nid = self._intern(name)
        sized = name in SIZED_WRITERS
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            sid = len(rec.start)
            rec.name_id.append(nid)
            rec.parent.append(rec._open[-1])
            rec.request.append(rec.current_request)
            rec.failed.append(0)
            rec.end.append(0.0)
            rec._open.append(sid)
            rec.start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec.failed[sid] = 1
                raise
            finally:
                rec.end[sid] = clock()
                rec._open.pop()
                if sized and not rec.failed[sid]:
                    size = os.path.getsize(args[0] if args else kwargs["path"])
                    rec.bytes[name] = rec.bytes.get(name, 0) + size

        return traced

    def arrays(self):
        """Spans as numpy arrays keyed by field."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "request": np.frombuffer(self.request, dtype=np.int32).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path):
        """Write all spans to an .npz file with the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Self time of every span: its duration minus the time its children cover.

    Children of one span run one after another inside it (one thread), so
    the time they cover is the sum of their durations.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent != NO_PARENT
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def summarize(rec):
    """Per-function calls, self time and failures, keyed by span name."""
    a = rec.arrays()
    selfs = self_times(a["start"], a["end"], a["parent"])
    n = len(rec.names)
    calls = np.bincount(a["name_id"], minlength=n)
    self_s = np.bincount(a["name_id"], weights=selfs, minlength=n)
    failures = np.bincount(a["name_id"], weights=a["failed"], minlength=n)
    return {
        name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
               "failures": int(failures[i])}
        for i, name in enumerate(rec.names)
    }


class Instrumentation:
    """The module attributes replaced by `instrument`, for restoring them."""

    def __init__(self):
        self.replaced = []   # (module, attribute, original object)

    def restore(self):
        for module, attr, original in reversed(self.replaced):
            setattr(module, attr, original)
        self.replaced.clear()


def instrument(rec, modules, functions):
    """Wrap each function in its defining module and wherever it is re-bound.

    modules   -- {short name: module object}; every one is scanned for
                 attributes that are the same object as a traced function
    functions -- {short module name: tuple of function names}
    Returns the Instrumentation that undoes the replacement.
    """
    inst = Instrumentation()
    for mod_name, fnames in functions.items():
        for fname in fnames:
            original = getattr(modules[mod_name], fname)
            wrapper = rec.wrap(f"{mod_name}.{fname}", original)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        inst.replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
    return inst
