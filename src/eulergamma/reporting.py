"""Render SuiteReports and IdentityReports as tables, JSON, or CSV.

Machine formats (JSON, CSV) serialize floats with ``repr``: the shortest
string that round-trips to the exact binary64 value.  Human tables use 15
significant digits.  Reports carry no timing, so identical flags produce
byte-identical output; only the single-check view shows a wall time, the one
its caller measured.

Each ``suite --format`` has one renderer, ``render_table``, ``render_json``
or ``render_csv``, which the command looks up on this module by name when it
runs, so a replacement put here beforehand is the one it calls.

``render_json`` writes the document ``{"config", "reports", "summary"}``
with one ``json.JSONEncoder(allow_nan=False).encode`` call per part: the
config echo, each report, then the summary, in that order, one report per
line.  Every report has the same keys in the same order, its ``params``
sorted by name.  Non-finite sides (lhs, rhs, residuals) are written as null,
as only crashed checks produce them.  Everything else follows json's own
rules and raises json's own ValueError or TypeError, in document order.

``render_csv`` writes one line per row, the header first, with no ``csv``
module: only the params field can hold a comma, a double quote, CR or LF
(a crashed check echoes its grid's raw params), and then it is quoted by
CSV's minimal rule, wrapped in double quotes with each inner one doubled.
Ids are ``IDENTITIES`` keys, and every other field is a float ``repr`` or
true/false.

``json`` is imported only by ``render_json``, so the table and ``suite
--format csv`` load neither ``json`` nor ``csv``.
"""

import math

from .identities import IdentityReport, SuiteReport, _sortable


def _names(params):
    """``params``' names in the order ``run_suite`` gives names
    (``identities._sortable``), which for str names alone is ``sorted``'s."""
    return sorted(params, key=_sortable)


def params_string(params) -> str:
    """Canonical `name=value` list, ';'-joined, sorted by name; a float's
    str is its repr."""
    return ";".join([f"{k}={params[k]}" for k in _names(params)])


def _side(value):
    # Strict JSON has no NaN/Infinity; those only arise from checks that
    # crashed, and null marks them unambiguously.
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def render_json(suite: SuiteReport) -> str:
    import json

    encode = json.JSONEncoder(allow_nan=False).encode
    config = encode(suite.config_echo)
    reports = [encode({
        "identity_id": r.identity_id,
        "params": {k: r.params[k] for k in _names(r.params)},
        "lhs": _side(r.lhs),
        "rhs": _side(r.rhs),
        "abs_residual": _side(r.abs_residual),
        "rel_residual": _side(r.rel_residual),
        "tolerance": r.tolerance,
        "passed": r.passed,
    }) for r in suite.reports]
    reports = "[\n    " + ",\n    ".join(reports) + "\n  ]" if reports else "[]"
    summary = encode({"pass": suite.n_pass, "fail": suite.n_fail})
    return f'{{\n  "config": {config},\n  "reports": {reports},\n  "summary": {summary}\n}}\n'


CSV_HEADER = ("identity_id", "params", "lhs", "rhs", "abs_residual",
              "rel_residual", "tolerance", "passed")


def render_csv(suite: SuiteReport) -> str:
    lines = [",".join(CSV_HEADER)]
    for r in suite.reports:
        params = params_string(r.params)
        if "," in params or '"' in params or "\r" in params or "\n" in params:
            params = '"' + params.replace('"', '""') + '"'
        lines.append(f"{r.identity_id},{params},{r.lhs!r},{r.rhs!r},{r.abs_residual!r},"
                     f"{r.rel_residual!r},{r.tolerance!r},{'true' if r.passed else 'false'}")
    return "\n".join(lines) + "\n"


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
