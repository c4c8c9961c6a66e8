"""Self-tests of the benchmark's span recorder (not of the package).

    python3 -m pytest bench -q -p no:cacheprovider
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

from recorder import NO_PARENT, Recorder, instrument, self_times, summarize

SRC = Path(__file__).resolve().parent.parent / "src"


def _module(name, source, **globals_):
    module = types.ModuleType(name)
    module.__dict__.update(globals_)
    exec(source, module.__dict__)
    return module


@pytest.fixture
def synthetic():
    """`lib` defines work() and fail(); `user` re-binds both and calls them."""
    lib = _module("lib", "def work(x):\n    return 2 * x\n"
                         "def fail():\n    raise RuntimeError('boom')\n")
    user = _module("user", "def caller(x):\n    return work(x) + 1\n"
                           "def fail_caller():\n    fail()\n",
                   work=lib.work, fail=lib.fail)
    return {"lib": lib, "user": user}


def test_call_through_rebound_import_is_recorded(synthetic):
    rec = Recorder()
    inst = instrument(rec, synthetic, {"lib": ("work",)})
    rec.active = True
    try:
        assert synthetic["user"].caller(3) == 7
    finally:
        inst.restore()
    assert summarize(rec)["lib.work"]["calls"] == 1


def test_raising_call_closes_its_span_and_counts_a_failure(synthetic):
    rec = Recorder()
    inst = instrument(rec, synthetic, {"lib": ("work", "fail")})
    rec.active = True
    try:
        with pytest.raises(RuntimeError):
            synthetic["user"].fail_caller()
        assert synthetic["user"].caller(1) == 3
    finally:
        inst.restore()
    summary = summarize(rec)
    assert (summary["lib.fail"]["calls"], summary["lib.fail"]["failures"]) == (1, 1)
    assert summary["lib.work"]["failures"] == 0
    spans = rec.arrays()
    assert np.all(spans["end"] >= spans["start"])
    assert np.all(spans["parent"] == NO_PARENT)   # the failed span was popped


def test_inactive_recorder_records_nothing(synthetic):
    rec = Recorder()
    inst = instrument(rec, synthetic, {"lib": ("work",)})
    try:
        synthetic["user"].caller(1)
    finally:
        inst.restore()
    assert len(rec.start) == 0


def test_self_time_of_nested_span_tree():
    #   0: A [0, 10]
    #   1:   B [1, 4]
    #   2:   C [5, 9]
    #   3:     D [6, 7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [NO_PARENT, 0, 0, 2]
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 3.0, 3.0, 1.0])


def _snapshot(modules):
    return {name: dict(vars(m)) for name, m in modules.items()}


def _assert_identical(modules, before):
    for name, module in modules.items():
        after = vars(module)
        assert after.keys() == before[name].keys()
        for attr, value in before[name].items():
            assert after[attr] is value, f"{name}.{attr} was not restored"


def test_restore_puts_back_identical_objects(synthetic):
    before = _snapshot(synthetic)
    inst = instrument(Recorder(), synthetic, {"lib": ("work", "fail")})
    assert synthetic["user"].work is not before["user"]["work"]
    inst.restore()
    _assert_identical(synthetic, before)


def test_restore_on_the_package_puts_back_identical_objects():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    from recorder import LAYER_FUNCTIONS
    modules = {name: importlib.import_module(f"optbistab.{name}")
               for name in list(LAYER_FUNCTIONS) + ["params"]}
    before = _snapshot(modules)
    inst = instrument(Recorder(), modules, LAYER_FUNCTIONS)
    assert inst.replaced
    inst.restore()
    _assert_identical(modules, before)
