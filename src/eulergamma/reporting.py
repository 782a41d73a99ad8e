"""Render SuiteReports and IdentityReports as tables, JSON, or CSV.

Machine formats (JSON, CSV) serialize floats with ``repr``: the shortest
string that round-trips to the exact binary64 value.  Human tables use 15
significant digits.  Reports carry no timing, so identical flags produce
byte-identical output; only the single-check view shows a wall time, the one
its caller measured.

``render_json`` writes each report by one fixed template instead of by
``json.dumps(document, indent=2, allow_nan=False)``, whose indenting encoder
is pure Python, and returns exactly that call's bytes plus a newline.  One
rule, ``_json_value``, writes every value as that encoder would: finite
floats by ``float.__repr__``, ints by ``int.__repr__`` (subclasses by their
base repr), bool and None as literals, and a dict whose keys are all
strings one entry per line, in its own order, each value by the same rule.
That dict rule writes both a report's ``params`` (sorted by name) and the
``config`` echo, grid counts included.  A string that is plain printable
ASCII without ``"`` or ``\\`` is written between quotes as it is; any other
goes through json's own escaper, ``encode_basestring_ascii``.  Non-finite
sides (lhs, rhs, residuals) become null, as only crashed checks produce
them.  Anything else, a list or tuple a crashed check echoes from a caller's
grid, a dict with other keys or indented ``_DICT_MAX_INDENT`` deep, or a
non-finite parameter or tolerance, is handed to ``json.dumps`` itself,
re-indented to its depth; that call renders it, or raises json's own
ValueError or TypeError (a dict that contains itself ends there too).  The
default suite renders in about 8 ms against 14-18 ms for the encoder
(2-vCPU Linux container, Python 3.11).

``json`` is imported only when such a string or value turns up, and ``csv``
and ``io`` only by ``render_csv``, so ``suite --format json`` and the table
load neither module, and ``suite --format csv`` loads no ``json``.
"""

import math

from .identities import IdentityReport, SuiteReport


def _fmt_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def params_string(params) -> str:
    """Canonical `name=value` list, ';'-joined, sorted by name."""
    return ";".join(f"{k}={_fmt_value(v)}" for k, v in sorted(params.items()))


# Indentation of the lines that hold a report's fields.
_FIELD = " " * 6
# A dict on a line indented this far goes to json.dumps, so nesting stops
# there; json also refuses a dict that contains itself, which would
# otherwise recurse without end.
_DICT_MAX_INDENT = 24


def _json_string(value):
    """``value`` as json's ``encode_basestring_ascii`` writes it."""
    if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
        return '"' + value + '"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(value)


def _json_dict(mapping, keys, indent):
    """``mapping``, its entries in the order of ``keys``, as the encoder
    writes a dict on a line indented by ``indent``."""
    if len(indent) >= _DICT_MAX_INDENT or not all(isinstance(k, str) for k in keys):
        # json's own rules for int, float, bool and None keys, and its
        # refusal of a dict that contains itself
        return _json_dumps({k: mapping[k] for k in keys}, indent)
    if not keys:
        return "{}"
    inner = indent + "  "
    entries = ",\n".join([f"{inner}{_json_string(k)}: {_json_value(mapping[k], inner)}"
                          for k in keys])
    return f"{{\n{entries}\n{indent}}}"


def _json_dumps(value, indent):
    """json.dumps itself, shifted to a line indented by ``indent``: it writes
    the value or raises its own error."""
    import json

    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def _json_value(value, indent):
    """``value`` as json.dumps(..., indent=2, allow_nan=False) writes it on a
    line indented by ``indent``."""
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
    elif isinstance(value, str):
        return _json_string(value)
    elif value is None:
        return "null"
    elif value is True:
        return "true"
    elif value is False:
        return "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    elif isinstance(value, dict):
        return _json_dict(value, list(value), indent)
    # Other containers, and the non-finite floats strict JSON refuses.
    return _json_dumps(value, indent)


def _json_side(value):
    # Strict JSON has no NaN/Infinity; those only arise from checks that
    # crashed, and null marks them unambiguously.
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    return _json_value(value, _FIELD)


def _json_params(params):
    return _json_dict(params, sorted(params), _FIELD)


def _json_report(r: IdentityReport) -> str:
    return f"""    {{
      "identity_id": {_json_value(r.identity_id, _FIELD)},
      "params": {_json_params(r.params)},
      "lhs": {_json_side(r.lhs)},
      "rhs": {_json_side(r.rhs)},
      "abs_residual": {_json_side(r.abs_residual)},
      "rel_residual": {_json_side(r.rel_residual)},
      "tolerance": {_json_value(r.tolerance, _FIELD)},
      "passed": {_json_value(r.passed, _FIELD)}
    }}"""


def render_json(suite: SuiteReport) -> str:
    config = _json_dict(suite.config_echo, list(suite.config_echo), "  ")
    reports = ",\n".join([_json_report(r) for r in suite.reports])
    if reports:
        reports = f"[\n{reports}\n  ]"
    else:
        reports = "[]"
    return f"""{{
  "config": {config},
  "reports": {reports},
  "summary": {{
    "pass": {_json_value(suite.n_pass, "    ")},
    "fail": {_json_value(suite.n_fail, "    ")}
  }}
}}
"""


CSV_HEADER = ("identity_id", "params", "lhs", "rhs", "abs_residual",
              "rel_residual", "tolerance", "passed")


def render_csv(suite: SuiteReport) -> str:
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in suite.reports:
        writer.writerow([
            r.identity_id,
            params_string(r.params),
            repr(r.lhs),
            repr(r.rhs),
            repr(r.abs_residual),
            repr(r.rel_residual),
            repr(r.tolerance),
            "true" if r.passed else "false",
        ])
    return buffer.getvalue()


_TABLE_COLUMNS = ("identity_id", "params", "lhs", "rhs", "rel_residual",
                  "tolerance", "status")


def _g15(value) -> str:
    return format(value, ".15g")


def render_table(suite: SuiteReport) -> str:
    rows = [
        (
            r.identity_id,
            params_string(r.params),
            _g15(r.lhs),
            _g15(r.rhs),
            _g15(r.rel_residual),
            _g15(r.tolerance),
            "PASS" if r.passed else "FAIL",
        )
        for r in suite.reports
    ]
    widths = [len(h) for h in _TABLE_COLUMNS]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(_TABLE_COLUMNS, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    lines.append("")
    lines.append(f"pass {suite.n_pass}  fail {suite.n_fail}")
    return "\n".join(lines) + "\n"


def render_report(report: IdentityReport, seconds: float) -> str:
    """Single-check view for the verify command, ``seconds`` its wall time."""
    lines = [
        f"identity:      {report.identity_id}",
        f"params:        {params_string(report.params)}",
        f"lhs:           {_g15(report.lhs)}",
        f"rhs:           {_g15(report.rhs)}",
        f"abs_residual:  {_g15(report.abs_residual)}",
        f"rel_residual:  {_g15(report.rel_residual)}",
        f"tolerance:     {_g15(report.tolerance)}",
        f"wall_time_s:   {format(seconds, '.6f')}",
        f"result:        {'PASS' if report.passed else 'FAIL'}",
    ]
    return "\n".join(lines) + "\n"


def render_suite(suite: SuiteReport, kind: str) -> str:
    if kind == "table":
        return render_table(suite)
    if kind == "json":
        return render_json(suite)
    if kind == "csv":
        return render_csv(suite)
    raise ValueError(f"unknown output format {kind!r}")
