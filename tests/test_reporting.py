"""render_json against json's own encoder, render_csv against the csv module.

The JSON oracle is the document as dicts through the compact
``json.dumps(document, allow_nan=False)``.  Every SuiteReport must render to
text that parses to the oracle's document, with one line per report, or
raise the oracle's exception.  The CSV oracle is ``csv.writer``'s minimal
quoting, under which a field holding a comma, a quote, CR or LF is quoted;
every report must parse back through ``csv.reader`` to its eight fields.
"""

import csv
import io
import json
import math

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from eulergamma import reporting
from eulergamma.identities import (
    IDENTITIES,
    MODES,
    IdentityReport,
    SuiteReport,
    _sortable,
    build_grid,
    run_suite,
)
from eulergamma.cli import main
from eulergamma.reporting import CSV_HEADER, params_string, render_csv, render_json


def reference_json(suite):
    def number(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    document = {
        "config": {k: suite.config_echo[k] for k in suite.config_echo},
        "reports": [
            {
                "identity_id": r.identity_id,
                "params": {k: r.params[k] for k in sorted(r.params, key=_sortable)},
                "lhs": number(r.lhs),
                "rhs": number(r.rhs),
                "abs_residual": number(r.abs_residual),
                "rel_residual": number(r.rel_residual),
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in suite.reports
        ],
        "summary": {"pass": suite.n_pass, "fail": suite.n_fail},
    }
    return json.dumps(document, allow_nan=False)


def outcome(render, suite):
    """The parse of ``render(suite)``, every object as its list of pairs, or
    the type and message of the exception it raised."""
    try:
        text = render(suite)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return json.loads(text, object_pairs_hook=list)


def assert_matches_encoder(suite):
    """render_json(suite) parses to the oracle's document with each report on
    a line of its own, or raises the oracle's exception; returns its outcome."""
    expected = outcome(reference_json, suite)
    assert outcome(render_json, suite) == expected
    if isinstance(expected, list):
        reports = dict(expected)["reports"]
        lines = render_json(suite).splitlines()
        assert len(lines) == len(reports) + (6 if reports else 5)
        assert [json.loads(line.rstrip(","), object_pairs_hook=list)
                for line in lines[3:3 + len(reports)]] == reports
    return expected


class ReprFloat(float):
    def __repr__(self):
        return "not-a-json-float"


class ReprInt(int):
    def __repr__(self):
        return "not-a-json-int"


texts = st.text(max_size=6)  # non-ASCII and control characters included
floats = st.one_of(
    st.floats(),  # NaN and infinities included
    st.floats(allow_nan=False, allow_infinity=False).map(ReprFloat),
    st.sampled_from([math.nan, math.inf]).map(ReprFloat),
)
ints = st.one_of(st.integers(), st.integers().map(ReprInt))
scalars = st.one_of(floats, ints, st.booleans(), st.none(), texts)
# What a crashed check echoes from a caller's grid: containers too.
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.tuples(inner, inner),
        st.dictionaries(texts, inner, max_size=3),
    ),
    max_leaves=6,
)
# Names of one type, or of types that do not compare with each other, as a
# crashed check echoes from a grid such as {1: 0.5, "x": 0.3}.
params = st.one_of(
    st.dictionaries(texts, values, max_size=4),
    st.dictionaries(st.integers(), values, min_size=1, max_size=2),
    st.dictionaries(st.one_of(texts, st.integers()), values, min_size=2, max_size=3),
)
sides = st.one_of(floats, ints)
reports = st.builds(
    IdentityReport,
    identity_id=texts,
    params=params,
    lhs=sides,
    rhs=sides,
    abs_residual=sides,
    rel_residual=sides,
    tolerance=st.one_of(floats, ints),
    passed=st.booleans(),
    error=st.one_of(st.none(), texts),
)
configs = st.one_of(
    st.fixed_dictionaries({
        "abs_tol": floats,
        "rel_tol": floats,
        "max_refinements": ints,
        "grid": st.dictionaries(texts, st.integers(0, 700), max_size=3),
    }),
    st.dictionaries(texts, values, max_size=3),
)
suites = st.builds(
    SuiteReport,
    reports=st.lists(reports, max_size=4).map(tuple),
    n_pass=ints,
    n_fail=ints,
    config_echo=configs,
)


@given(suites)
@settings(max_examples=200, deadline=None)
def test_render_json_matches_encoder_on_generated_suites(suite):
    assert_matches_encoder(suite)


def test_render_json_edge_cases_match_encoder():
    nan_params = IdentityReport("reflection", {"x": math.nan}, math.nan, math.nan,
                                math.inf, math.inf, 1e-12, False, 0.0)
    cases = [
        SuiteReport((), 0, 0, {}),
        SuiteReport((IdentityReport("sine-product", {}, 1.0, 1.0, 0.0, 0.0, 1e-10,
                                    True, 0.0),), 1, 0, {"grid": {}}),
        SuiteReport((IdentityReport("réflexion", {"é": "π\n", "n": [1, 2.5]},
                                    -math.inf, 3, None, True, 1e-12, False, 0.0),),
                    0, 1, {"abs_tol": 1e-12}),
        SuiteReport((nan_params,), 0, 1, {"abs_tol": 1e-12}),
        SuiteReport((IdentityReport("x", {"x": 0.5}, 1.0, 1.0, 0.0, 0.0, math.inf,
                                    True, 0.0),), 1, 0, {}),
    ]
    outcomes = [assert_matches_encoder(suite) for suite in cases]
    assert outcomes[3][0] is ValueError
    assert outcomes[4][0] is ValueError


def _nested(depth):
    value = {"leaf": [1, {"k": 2.5}], 3: "int key"}
    for i in range(depth):
        value = {f"level{i}": value, "x": None}
    return value


def test_render_json_strings_and_nested_dicts_match_encoder():
    # Plain printable ASCII is quoted as it is; a quote, a backslash, DEL, a
    # control character or non-ASCII goes through json's escaper.
    looped = {"x": 1.0}
    looped["self"] = looped
    strings = ['a"b', "back\\slash", "del\x7f", "tab\t", "~ !#[]{}", "", "é"]
    report = IdentityReport("sine-product", {s: s for s in strings} | {"deep": _nested(12)},
                            1.0, 1.0, 0.0, 0.0, 1e-10, True)
    cases = [
        SuiteReport((report,), 1, 0, {"grid": _nested(12), "rel_tol": 1e-11}),
        SuiteReport((), 0, 0, {"max_refinements": 12, "grid": {"a": 1, "b\"": 2}}),
        SuiteReport((report._replace(params={"loop": looped}),), 1, 0, {}),
        SuiteReport((), 0, 0, {"loop": looped}),
        # Two bad values: the first in document order raises.
        SuiteReport((report._replace(params={"loop": looped}),), 1, 0, {"x": math.nan}),
        SuiteReport((report._replace(params={"loop": looped}),), math.nan, 0, {}),
    ]
    outcomes = [assert_matches_encoder(suite) for suite in cases]
    assert outcomes[2] == (ValueError, "Circular reference detected")
    assert outcomes[3] == (ValueError, "Circular reference detected")
    assert outcomes[4] == (ValueError, "Out of range float values are not JSON compliant")
    assert outcomes[5] == (ValueError, "Circular reference detected")


def test_render_json_matches_encoder_on_default_suite():
    assert isinstance(assert_matches_encoder(run_suite()), list)


def test_render_json_matches_encoder_on_wide_closed_form_grid():
    grid = build_grid(
        ["duplication", "factorial-root", "gamma-fraction-product",
         "gamma-square-product", "gauss-multiplication", "sine-product"],
        {"n": list(range(2, 121)), "x": [0.013, 0.7, 42.5], "m": [0.06, 3.3],
         "mode": ["closed"]},
    )
    suite = run_suite(grid)
    assert max(r.params.get("n", 0) for r in suite.reports) == 120
    assert isinstance(assert_matches_encoder(suite), list)


def test_suite_reaches_render_json_through_the_module(monkeypatch, capsys):
    # Instrumentation wraps reporting.render_json by name.
    monkeypatch.setattr(reporting, "render_json", lambda suite: "wrapped")
    assert main(["suite", "--format", "json", "--identities", "sine-product", "--n", "2"]) == 0
    assert capsys.readouterr().out == "wrapped"


def _csv_fields(report):
    return [report.identity_id, params_string(report.params), repr(report.lhs),
            repr(report.rhs), repr(report.abs_residual), repr(report.rel_residual),
            repr(report.tolerance), "true" if report.passed else "false"]


def reference_csv(suite):
    """csv.writer's minimal quoting, one row per line.  Each row is written
    alone with the CRLF terminator, under which the writer quotes a field
    holding CR as well as LF, and that terminator is then made LF."""
    rows = []
    for fields in [list(CSV_HEADER), *map(_csv_fields, suite.reports)]:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(fields)
        rows.append(buffer.getvalue()[:-2] + "\n")
    return "".join(rows)


def parsed_csv(text):
    return list(csv.reader(io.StringIO(text, newline="")))


# Reports as checks make them: a row's id and float sides, any params,
# often holding the characters CSV quotes.
csv_texts = st.text(st.sampled_from(',"\r\n;= aé'), max_size=6)
csv_reports = st.builds(
    IdentityReport,
    identity_id=st.sampled_from(sorted(IDENTITIES)),
    params=st.one_of(params, st.dictionaries(csv_texts, csv_texts, max_size=3)),
    lhs=st.floats(),
    rhs=st.floats(),
    abs_residual=st.floats(),
    rel_residual=st.floats(),
    tolerance=st.floats(),
    passed=st.booleans(),
)


@given(st.lists(csv_reports, max_size=4).map(tuple))
@settings(max_examples=200, deadline=None)
def test_render_csv_matches_the_csv_module(reports):
    suite = SuiteReport(reports, 0, 0, {})
    text = render_csv(suite)
    assert text == reference_csv(suite)
    assert parsed_csv(text) == [list(CSV_HEADER), *map(_csv_fields, reports)]


@pytest.mark.parametrize("value", ["a,b", 'a"b', "a\rb", "a\nb", "a\r\nb", ',"\r\n'])
def test_a_crashed_reports_params_parse_back_as_one_row(value):
    # A crashed check echoes its grid's raw params; a bare CR there used to
    # split the report into two rows.
    suite = run_suite({"reflection": [{"x": value}]})
    (report,) = suite.reports
    assert report.error is not None
    assert parsed_csv(render_csv(suite)) == [
        list(CSV_HEADER),
        ["reflection", f"x={value}", "nan", "nan", "inf", "inf", "1e-12", "false"],
    ]


def test_a_crashed_report_whose_names_mix_types_renders():
    # Every renderer sorted the names with <, and raised "'<' not supported
    # between instances of 'str' and 'int'" on the report run_suite returns.
    suite = run_suite({"reflection": [{1: 0.5, "x": 0.3}]})
    (report,) = suite.reports
    assert report.error == "TypeError: keywords must be strings"
    assert render_csv(suite).splitlines()[1] == "reflection,1=0.5;x=0.3,nan,nan,inf,inf,1e-12,false"
    assert json.loads(render_json(suite))["reports"][0]["params"] == {"1": 0.5, "x": 0.3}
    assert "reflection   1=0.5;x=0.3  nan  nan" in reporting.render_table(suite)


def test_only_params_can_need_csv_quoting():
    # render_csv quotes the params field alone: ids, axis names and modes
    # hold nothing a CSV field would need quoted, and the other fields are
    # float reprs and true/false.
    names = [*IDENTITIES, *MODES]
    names += [axis for spec in IDENTITIES.values() for axis in spec.axes]
    assert not [name for name in names if set(name) & set(',"\r\n')]
