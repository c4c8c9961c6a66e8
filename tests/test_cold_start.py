"""Cold start: importing the package leaves scipy unloaded.

The tests themselves import scipy, so only a fresh interpreter can see what
the package loads. Each test runs one with the package's source directory
first on sys.path.
"""

import json
import os
import subprocess
import sys

import numpy as np

import optbistab

SRC = os.path.dirname(os.path.dirname(os.path.abspath(optbistab.__file__)))


def run_fresh(code):
    """stdout of `code` run in a fresh interpreter that imports from SRC."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
        capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_module_imports_scipy():
    out = run_fresh(
        "import importlib, json, pkgutil, optbistab\n"
        "names = sorted(m.name for m in pkgutil.iter_modules(optbistab.__path__))\n"
        "for name in names:\n"
        "    importlib.import_module('optbistab.' + name)\n"
        "print(json.dumps([names, sorted(k for k in sys.modules"
        " if k == 'scipy' or k.startswith('scipy.'))]))\n")
    names, loaded = json.loads(out)
    assert {"cli", "numerics", "output", "presets", "scattering"} <= set(names)
    assert loaded == []


def test_pade_fallback_loads_scipy_on_first_use():
    # a 2x2 Jordan block has no eigenbasis, so every delay goes to Pade;
    # exp(A t) = [[1, t], [0, 1]] exactly
    out = run_fresh(
        "import json\n"
        "import numpy as np\n"
        "from optbistab.numerics import eigenbasis, propagate\n"
        "before = 'scipy' in sys.modules\n"
        "A = np.array([[0.0, 1.0], [0.0, 0.0]])\n"
        "rows = propagate(A, [0.0, 0.5, 3.0], np.array([2.0, -1.5]), eigenbasis(A))\n"
        "print(json.dumps([before, 'scipy' in sys.modules,"
        " rows.real.tolist(), rows.imag.tolist()]))\n")
    before, after, real, imag = json.loads(out)
    assert (before, after) == (False, True)
    b = np.array([2.0, -1.5])
    want = [np.array([[1.0, t], [0.0, 1.0]]) @ b for t in (0.0, 0.5, 3.0)]
    assert np.allclose(real, want, rtol=0, atol=1e-14 * np.max(np.abs(b)))
    assert np.max(np.abs(imag)) == 0.0
