"""render_json against the encoder it replaces.

The oracle is the expression render_json used before it wrote reports by
template: the document as dicts, through ``json.dumps(indent=2)``.  Every
SuiteReport must render to the same bytes, or raise the same exception.
"""

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from eulergamma import reporting
from eulergamma.identities import IdentityReport, SuiteReport, build_grid, run_suite
from eulergamma.reporting import render_json, render_suite


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
                "params": {k: r.params[k] for k in sorted(r.params)},
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
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def outcome(render, suite):
    try:
        return render(suite)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


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
# run_suite sorts every params mapping by its items, so a grid whose keys do
# not compare with each other never reaches a report.
params = st.one_of(
    st.dictionaries(texts, values, max_size=4),
    st.dictionaries(st.integers(), values, min_size=1, max_size=2),
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
    assert outcome(render_json, suite) == outcome(reference_json, suite)


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
    for suite in cases:
        assert outcome(render_json, suite) == outcome(reference_json, suite)
    assert outcome(render_json, cases[3])[0] is ValueError
    assert outcome(render_json, cases[4])[0] is ValueError


def test_render_json_matches_encoder_on_default_suite():
    suite = run_suite()
    assert render_json(suite) == reference_json(suite)


def test_render_json_matches_encoder_on_wide_closed_form_grid():
    grid = build_grid(
        ["duplication", "factorial-root", "gamma-fraction-product",
         "gamma-square-product", "gauss-multiplication", "sine-product"],
        {"n": list(range(2, 121)), "x": [0.013, 0.7, 42.5], "m": [0.06, 3.3],
         "mode": ["closed"]},
    )
    suite = run_suite(grid)
    assert max(r.params.get("n", 0) for r in suite.reports) == 120
    assert render_json(suite) == reference_json(suite)


def test_render_suite_reaches_render_json_through_the_module(monkeypatch):
    # Instrumentation wraps reporting.render_json by name.
    monkeypatch.setattr(reporting, "render_json", lambda suite: "wrapped")
    assert render_suite(SuiteReport((), 0, 0, {}), "json") == "wrapped"
