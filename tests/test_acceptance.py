"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion. Each test also prints its worst observed residual so regressions
that stay under the limit remain visible.
"""

import json
import math
import subprocess
import sys

import jsonschema

from eulergamma import (
    beta_closed,
    beta_integral,
    check_algebraic_interpolation,
    check_factorial_root,
    check_gamma_fraction_product,
    check_gamma_square_product,
    check_gauss_multiplication,
    check_log_integral_product,
    check_reflection,
    check_sine_product,
    check_symbol_bridge,
    check_symbol_symmetry,
    gamma_integral,
    gamma_reference,
)

GAUSS_X_GRID = (0.1, 0.5, 1.0, 2.5, 7.0, 19.3, 50.0)
REFLECTION_GRID = sorted({i / 20.0 for i in range(1, 20)} | {1 / 2, 1 / 3, 1 / 4})
ENGINE_GAMMA_GRID = (0.1, 0.25, 0.5, 1.0, 2.5, 7.0, 19.3, 30.0)


# The two log gamma engines' worst errors against 50-digit mpmath where
# |log gamma| < 1, which are absolute there, summed: 1.9e-15 for the batch
# math.lgamma and 4.1e-15 for the g = 7 log_gamma (see test_identities).
TWO_ENGINE_ERROR = 1.9e-15 + 4.1e-15


def _assert_all(reports, limit, label, product=False):
    # Every report's sides are logs, so abs_residual is the relative error
    # of the linear sides to first order.  The product identities' logs
    # grow with n, and their rel_residual is held to the limit as well,
    # but for gauss-multiplication at n = 1 with both sides below 1 in size:
    # each side is one log gamma term, one from each engine, and next to a
    # zero of log gamma rel_residual measures nothing (log gamma(1) is 0.0
    # from one engine and -8.9e-16 from the other, rel_residual 1.0).  There
    # abs_residual is held to the two engines' summed error.
    worst = 0.0
    for report in reports:
        assert report.passed, (label, report.params, report.abs_residual)
        assert report.abs_residual <= limit, (label, report.params)
        near_zero = report.params.get("n") == 1 and max(abs(report.lhs), abs(report.rhs)) < 1.0
        if product and near_zero:
            assert report.abs_residual <= TWO_ENGINE_ERROR, (label, report.params)
        elif product:
            assert report.rel_residual <= limit, (label, report.params)
        worst = max(worst, report.abs_residual)
    print(f"{label}: {len(reports)} cases, worst |delta log| "
          f"{worst:.3e} (limit {limit:g})")


def test_criterion_01_gauss_multiplication():
    reports = [check_gauss_multiplication(x, n)
               for n in range(1, 13) for x in GAUSS_X_GRID]
    _assert_all(reports, 1e-10, "gauss-multiplication", product=True)


def test_criterion_02_gamma_fraction_product():
    reports = [check_gamma_fraction_product(n) for n in range(2, 51)]
    _assert_all(reports, 1e-10, "gamma-fraction-product", product=True)


def test_criterion_03_sine_product():
    reports = [check_sine_product(n) for n in range(2, 31)]
    _assert_all(reports, 1e-10, "sine-product", product=True)
    # the sides are logs: log 1 = 0 and log 0.75
    two = check_sine_product(2)
    three = check_sine_product(3)
    assert abs(two.lhs) <= 1e-14 and two.rhs == 0.0
    assert abs(three.lhs - math.log(0.75)) <= 1e-14
    assert abs(three.rhs - math.log(0.75)) <= 1e-15


def test_criterion_04_gamma_square_product():
    reports = [check_gamma_square_product(n) for n in range(2, 26)]
    _assert_all(reports, 1e-10, "gamma-square-product", product=True)


def test_criterion_05_reflection():
    reports = [check_reflection(x) for x in REFLECTION_GRID]
    _assert_all(reports, 1e-12, "reflection")
    # the sides are logs: log pi
    half = check_reflection(0.5)
    assert abs(half.lhs - math.log(math.pi)) <= 1e-14
    assert abs(half.rhs - math.log(math.pi)) <= 1e-14


def test_criterion_06_factorial_root():
    closed = [check_factorial_root(m, n)
              for m in list(range(1, 11)) + [0.5, 7.3, 19.9]
              for n in range(1, 9)]
    _assert_all(closed, 1e-10, "factorial-root closed")
    quadrature = [check_factorial_root(m, n, mode="quadrature")
                  for m in range(1, 6) for n in range(2, 6)]
    _assert_all(quadrature, 1e-7, "factorial-root quadrature")


def test_criterion_07_derivation_chain():
    # Four routes to log (m/n)!: closed mode's lhs (Gamma direct) and rhs
    # (E421 with the Beta closed forms), quadrature mode's lhs (Gauss's
    # product form) and rhs (E421 by quadrature).
    worst = 0.0
    for m in range(1, 9):
        for n in range(2, 9):
            closed = check_factorial_root(float(m), n)
            quadrature = check_factorial_root(float(m), n, mode="quadrature")
            assert closed.passed and quadrature.passed, (m, n)
            routes = (closed.lhs, closed.rhs, quadrature.lhs, quadrature.rhs)
            spread = max(routes) - min(routes)
            assert spread <= 1e-9, (m, n, routes)
            worst = max(worst, spread)
    print(f"derivation-chain: 56 cases, worst spread {worst:.3e} (limit 1e-09)")


def test_criterion_08_algebraic_interpolation():
    reports = [check_algebraic_interpolation(p, q)
               for p in range(1, 5) for q in range(1, 5)]
    _assert_all(reports, 1e-6, "algebraic-interpolation")
    one_two = check_algebraic_interpolation(1, 2)
    assert abs(one_two.lhs - math.log(math.sqrt(math.pi) / 2.0)) <= 1e-8


def test_criterion_09_log_integral_product():
    reports = [check_log_integral_product(n) for n in range(2, 9)]
    _assert_all(reports, 1e-7, "log-integral-product", product=True)


def test_criterion_10_symbol_symmetry_and_bridge():
    grid = [(float(p), float(q), n)
            for p in range(1, 6) for q in range(1, 6) for n in range(2, 7)]
    symmetry = [check_symbol_symmetry(p, q, n) for p, q, n in grid]
    _assert_all(symmetry, 1e-7, "symbol-symmetry")
    bridge = [check_symbol_bridge(p, q, n) for p, q, n in grid]
    _assert_all(bridge, 1e-7, "symbol-bridge")


def test_criterion_11_engine_cross_validation():
    worst = 0.0
    for x in ENGINE_GAMMA_GRID:
        ref = gamma_reference(x)
        quad = gamma_integral(x).value
        rel = abs(quad - ref) / abs(ref)
        assert rel <= 1e-8, x
        worst = max(worst, rel)
    for x in (0.5, 1.0, 2.5):
        for y in (0.5, 1.0, 2.5):
            ref = beta_closed(x, y)
            quad = beta_integral(x, y).value
            rel = abs(quad - ref) / abs(ref)
            assert rel <= 1e-8, (x, y)
            worst = max(worst, rel)
    print(f"engine cross-validation: worst rel error {worst:.3e} (limit 1e-08)")


_REPORT_SCHEMA = {
    "type": "object",
    "required": ["identity_id", "params", "lhs", "rhs", "abs_residual",
                 "rel_residual", "tolerance", "passed"],
    "additionalProperties": False,
    "properties": {
        "identity_id": {"type": "string"},
        "params": {"type": "object"},
        "lhs": {"type": ["number", "null"]},
        "rhs": {"type": ["number", "null"]},
        "abs_residual": {"type": ["number", "null"]},
        "rel_residual": {"type": ["number", "null"]},
        "tolerance": {"type": "number"},
        "passed": {"type": "boolean"},
    },
}

_SUITE_SCHEMA = {
    "type": "object",
    "required": ["config", "reports", "summary"],
    "additionalProperties": False,
    "properties": {
        "config": {"type": "object"},
        "reports": {"type": "array", "minItems": 1, "items": _REPORT_SCHEMA},
        "summary": {
            "type": "object",
            "required": ["pass", "fail"],
            "properties": {
                "pass": {"type": "integer"},
                "fail": {"type": "integer"},
            },
        },
    },
}


def test_criterion_12_cli_suite_contract():
    runs = []
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-m", "eulergamma", "suite", "--format", "json"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        runs.append(result.stdout)
    assert runs[0] == runs[1], "suite JSON not byte-identical across runs"
    document = json.loads(runs[0])
    jsonschema.validate(document, _SUITE_SCHEMA)
    assert document["summary"]["fail"] == 0
    print(f"cli suite: {document['summary']['pass']} reports, 0 failures, "
          "byte-identical across runs")
