"""Byte contract of the CSV/JSON writers.

The column-wise writers in `output` must write exactly the bytes of the
row-by-row reference writers in conftest, on random tables and on every
file the CLI writes.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import reference_write_csv, reference_write_json
from optbistab import cli, output, presets, steady_state

# ---------------------------------------------------------------------------
# random tables
# ---------------------------------------------------------------------------

_SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-310,
                   float("nan"), float("inf"), float("-inf"), 1e16, 0.1)
_floats = st.one_of(st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True))
_text = st.text(alphabet=list("ab ,;\"'\\\n\té漢Ωü🙂"), max_size=8)
_cells = {
    "float": _floats,
    "float64": _floats.map(np.float64),
    "float32": st.floats(width=32).map(np.float32),
    "int": st.one_of(st.integers(), st.integers(-2**62, 2**62).map(np.int64)),
    "bool": st.one_of(st.booleans(), st.booleans().map(np.bool_)),
    "none": st.none(),
    "str": _text,
}
_mixed = st.one_of(*_cells.values())
_meta = st.dictionaries(
    st.text(alphabet=list("abcXY_"), min_size=1, max_size=6),
    st.one_of(_floats, st.integers(), st.booleans(), _text,
              st.lists(_floats, max_size=3)),
    max_size=4)


_array_cells = {
    np.float64: _floats,
    np.float32: st.floats(width=32),
    np.longdouble: _floats,
    np.int64: st.integers(-2**62, 2**62),
    np.bool_: st.booleans(),
    np.complex64: st.complex_numbers(width=64),
    np.complex128: st.complex_numbers(),
}


@st.composite
def _tables(draw):
    """(columns, rows) with rows as a list of tuples or a 2-D array."""
    n_cols = draw(st.integers(0, 4))
    n_rows = draw(st.sampled_from((0, 1, draw(st.integers(2, 12)))))
    columns = tuple(f"c{j}" for j in range(n_cols))
    dtype = draw(st.sampled_from([None] + list(_array_cells)))
    if dtype is not None:
        data = draw(st.lists(_array_cells[dtype], min_size=n_rows * n_cols,
                             max_size=n_rows * n_cols))
        return columns, np.array(data, dtype=dtype).reshape(n_rows, n_cols)
    kinds = draw(st.lists(st.sampled_from(sorted(_cells) + ["mixed"]),
                          min_size=n_cols, max_size=n_cols))
    cols = [draw(st.lists(_cells.get(k, _mixed), min_size=n_rows, max_size=n_rows))
            for k in kinds]
    return columns, list(zip(*cols)) if cols else [()] * n_rows


def _written(writer, *args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        writer(path, *args)
        return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(_tables(), _meta, st.lists(_text, max_size=2))
def test_writers_match_the_reference_bytes(table, meta, warns):
    columns, rows = table
    assert _written(output.write_csv, columns, rows, meta, warns) == \
        _written(reference_write_csv, columns, rows, meta, warns)
    payload = {"meta": meta, "columns": list(columns), "rows": rows,
               "warnings": warns}
    assert _written(output.write_json, payload) == \
        _written(reference_write_json, payload)


def test_nonfinite_floats_use_json_spelling(tmp_path):
    rows = np.array([[np.nan, np.inf], [-np.inf, -0.0]])
    output.write_json(tmp_path / "t.json", {"rows": rows})
    text = (tmp_path / "t.json").read_text()
    assert "NaN" in text and "Infinity" in text and "-Infinity" in text
    assert "nan" not in text and "inf" not in text
    assert json.loads(text)["rows"][1][1] == 0.0


def test_ragged_rows_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="differ in length"):
        output.write_csv(tmp_path / "t.csv", ("a", "b"), [(1.0, 2.0), (3.0,)])


def test_numpy_bool_written_alike_in_both_formats(tmp_path):
    tp = steady_state.turning_points(np.float64(20.0))
    assert isinstance(tp.exists, np.bool_)
    meta = {"bistable": tp.exists, "degenerate": tp.degenerate}
    rows = [(np.bool_(True), 1.0), (np.bool_(False), 2.0)]
    output.write_csv(tmp_path / "t.csv", ("flag", "x"), rows, meta=meta)
    output.write_json(tmp_path / "t.json",
                      {"meta": meta, "columns": ["flag", "x"], "rows": rows})
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert "# bistable=true" in lines and "# degenerate=false" in lines
    assert lines[-2:] == ["true,1", "false,2"]
    doc = json.loads((tmp_path / "t.json").read_text())
    assert doc["meta"] == {"bistable": True, "degenerate": False}
    assert [r[0] for r in doc["rows"]] == [True, False]


# ---------------------------------------------------------------------------
# every CLI file against the reference writers
# ---------------------------------------------------------------------------

def _run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_preset_files_match_the_reference(tmp_path, monkeypatch, name, fmt):
    """Each preset file equals the reference encoding of the preset's series
    as rows of (x, value) pairs."""
    results = []

    def spy(*args, **kwargs):
        results.extend(run_preset(*args, **kwargs))
        return results

    run_preset = presets.run_preset
    monkeypatch.setattr(presets, "run_preset", spy)
    _run_cli(["preset", name, "--format", fmt, "--out", str(tmp_path / "cli"),
              "--seed", "3"])
    assert results
    for label, series in results:
        x, columns = ((series.y, ["y", "T"]) if hasattr(series, "y")
                      else (series.tau_bar, ["tau_bar", "g2"]))
        rows = list(zip(x, series.values))
        meta = output.series_meta(series, seed=3)
        ref = tmp_path / f"ref.{fmt}"
        if fmt == "csv":
            reference_write_csv(ref, columns, rows, meta=meta,
                                warnings_list=list(series.warnings))
        else:
            reference_write_json(ref, {"meta": meta, "columns": columns,
                                       "rows": [list(r) for r in rows],
                                       "warnings": list(series.warnings)})
        assert (tmp_path / f"cli_{label}.{fmt}").read_bytes() == ref.read_bytes()


_EXPORTS = {
    "curve": ["curve", "--C", "20", "--xmax", "40", "--points", "300"],
    "solve": ["solve", "--C", "20", "--y", "30"],
    "squeeze": ["squeeze", "--C", "5", "--xi", "1", "--X", "0.01"],
    "spectrum": ["spectrum", "--C", "5", "--xi", "1", "--X", "0.01",
                 "--points", "401"],
    "g2": ["g2", "--variant", "atomic-weak", "--C", "40", "--xi", "0.176",
           "--N", "310", "--X", "2"],
    "scatter": ["scatter", "--C", "5", "--xi", "1", "--X", "0.01"],
}


@pytest.mark.parametrize("fmt", ("csv", "json"))
@pytest.mark.parametrize("command", sorted(_EXPORTS))
def test_export_files_match_the_reference(tmp_path, monkeypatch, command, fmt):
    """Each export file equals the reference encoding of what the command
    handed to the writer, with a table's rows as lists of cells."""
    calls = []
    for name in ("write_csv", "write_json"):
        writer = getattr(output, name)

        def spy(*args, _name=name, _writer=writer, **kwargs):
            calls.append((_name, args, kwargs))
            return _writer(*args, **kwargs)

        monkeypatch.setattr(output, name, spy)
    _run_cli(_EXPORTS[command] + ["--format", fmt, "--out",
                                  str(tmp_path / f"cli.{fmt}")])
    assert len(calls) == 1
    name, args, kwargs = calls[0]
    path, ref = args[0], tmp_path / f"ref.{fmt}"
    if name == "write_csv":
        reference_write_csv(ref, args[1], [list(r) for r in args[2]], **kwargs)
    else:
        payload = dict(args[1])
        if "rows" in payload:
            payload["rows"] = [list(r) for r in payload["rows"]]
        reference_write_json(ref, payload)
    assert Path(path).read_bytes() == ref.read_bytes()
