"""CSV and JSON writers for series and records.

CSV files carry the resolved parameters and tool version as leading '#'
comment lines (sorted keys, '.' decimal), then one '# warning: ...' line per
warning, the header and one line per row; JSON files embed the same
metadata inline. Each file is written in one piece, and reruns at a fixed
seed reproduce it byte for byte. The bytes are fixed as follows:

* A CSV cell is `"%.17g" % float(v)` for a float (so `nan`, `inf`, `-0`),
  `str(int(v))` for an integer, `true`/`false` for a bool, `a+bj` from two
  such floats for a complex, and `str(v)` for anything else.
* A JSON file is exactly what `json.dump(payload, fh, indent=2,
  sort_keys=True, default=_json_default)` writes, plus a final newline.
  Floats are spelt as json spells them: `float.__repr__`, with `NaN`,
  `Infinity` and `-Infinity` for non-finite values.

A table (the CSV rows, or a JSON payload's "rows") is a 2-D array or a
sequence of equal-length rows. It is formatted one column at a time: a
column of floats (a float array, or cells that are all floats) is converted
in a single pass, and any other column cell by cell.
"""

import json
import math

import numpy as np

from . import __version__

_FMT = "%.17g"
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# the layout of json.dump(indent=2) for a payload's "rows": each row at
# depth 2, its cells at depth 3
_JSON_CELL_SEP = ",\n      "
_JSON_ROW_SEP = "\n    ],\n    [\n      "


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _FMT % float(x)
    if isinstance(x, complex):
        return f"{_FMT % x.real}{'+' if x.imag >= 0 else '-'}{_FMT % abs(x.imag)}j"
    return str(x)


def _metadata_lines(meta):
    lines = [f"# tool=optbistab {__version__}"]
    for key in sorted(meta):
        val = meta[key]
        if isinstance(val, (list, tuple)):
            val = ",".join(_fmt(v) for v in val)
        else:
            val = _fmt(val)
        lines.append(f"# {key}={val}")
    return lines


def _table_columns(rows):
    """(columns, row count) of a table."""
    if isinstance(rows, np.ndarray):
        return list(rows.T), len(rows)
    rows = list(rows)
    if len({len(r) for r in rows}) > 1:
        raise ValueError("table rows differ in length")
    return list(zip(*rows)), len(rows)


def _float_cells(column):
    """The cells of `column` if they are all floats (np.float64 is one), else None.

    A float array gives Python floats; an array of floats wider than double
    takes the per-cell path, which narrows each cell with float().
    """
    if isinstance(column, np.ndarray):
        if column.dtype.kind == "f" and column.dtype.itemsize <= 8:
            return column.tolist()
        return None
    if all(isinstance(v, float) for v in column):
        return column
    return None


def _csv_cells(column):
    floats = _float_cells(column)
    if floats is None:
        return [_fmt(v) for v in column]
    return list(map(_FMT.__mod__, floats))


def write_csv(path, columns, rows, meta=None, warnings_list=()):
    """Write a CSV table with '#'-prefixed metadata and warnings."""
    lines = _metadata_lines(meta or {})
    for w in warnings_list:
        lines.append(f"# warning: {w}")
    lines.append(",".join(columns))
    data, n_rows = _table_columns(rows)
    cells = [_csv_cells(c) for c in data]
    lines.extend(map(",".join, zip(*cells) if cells else [()] * n_rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_value(obj, depth):
    """`obj` as json.dump(indent=2, sort_keys=True) writes it `depth` levels in."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=_json_default)
    return text.replace("\n", "\n" + "  " * depth)


def _json_cells(column):
    floats = _float_cells(column)
    if floats is None:
        if isinstance(column, np.ndarray):
            column = column.tolist()  # as json's default does for an array
        return [_json_value(v, 3) for v in column]
    cells = list(map(float.__repr__, floats))
    if not all(map(math.isfinite, floats)):
        cells = [_JSON_NONFINITE.get(c, c) for c in cells]
    return cells


def _json_rows(rows):
    """A table as the "rows" value of a JSON payload, one level in."""
    data, n_rows = _table_columns(rows)
    if n_rows == 0:
        return "[]"
    if not data:
        return "[\n" + ",\n".join(["    []"] * n_rows) + "\n  ]"
    cells = [_json_cells(c) for c in data]
    body = _JSON_ROW_SEP.join(map(_JSON_CELL_SEP.join, zip(*cells)))
    return "[\n    [\n      " + body + "\n    ]\n  ]"


def write_json(path, payload):
    """Write `payload` (string keys, "tool" added) as an indented JSON object."""
    payload = dict(payload)
    payload.setdefault("tool", f"optbistab {__version__}")
    items = []
    for key in sorted(payload):
        value = payload[key]
        text = _json_rows(value) if key == "rows" else _json_value(value, 1)
        items.append(f"  {json.dumps(key)}: {text}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("{\n" + ",\n".join(items) + "\n}\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def series_meta(series, seed=None):
    meta = dict(series.params)
    if getattr(series, "method", None) is not None:
        meta["method"] = series.method
    if getattr(series, "variant", None) is not None:
        meta["variant"] = series.variant
    if getattr(series, "kind", None) is not None:
        meta["kind"] = series.kind
    window = getattr(series, "validity_window", None)
    if window is not None:
        meta["validity_window"] = window
    if seed is not None:
        meta["seed"] = seed
    return meta
