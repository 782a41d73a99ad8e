"""End-to-end CLI tests (subprocess) plus in-process exit-code checks."""

import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from importlib.metadata import EntryPoint
from pathlib import Path

import mpmath
import pytest

import eulergamma
from eulergamma import (
    DomainError,
    beta_closed,
    beta_integral,
    check_reflection,
    cli,
    euler_symbol,
    euler_symbol_closed,
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    identities,
    log_gamma,
    reporting,
)
from eulergamma.cli import main
from eulergamma.gamma import MAX_N, log_gamma_integral
from eulergamma.identities import run_suite
from eulergamma.reporting import render_json, render_report


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "eulergamma", *args],
        capture_output=True, text=True, **kwargs,
    )


def test_eval_gamma_reference():
    result = run_cli("eval", "gamma", "0.5")
    assert result.returncode == 0
    assert result.stdout == "1.77245385090552\n"


def test_eval_beta_reference():
    result = run_cli("eval", "beta", "0.5", "0.5")
    assert result.returncode == 0
    assert result.stdout == "3.14159265358979\n"


def test_eval_symbol_integral_engine():
    result = run_cli("eval", "symbol", "1", "1", "2", "--engine", "integral")
    assert result.returncode == 0
    value = float(result.stdout)
    assert abs(value - math.pi / 2.0) / (math.pi / 2.0) <= 1e-10


def test_eval_lgamma_both_engines():
    ref = run_cli("eval", "lgamma", "7.7")
    quad = run_cli("eval", "lgamma", "7.7", "--engine", "integral")
    assert ref.returncode == 0 and quad.returncode == 0
    assert abs(float(ref.stdout) - float(quad.stdout)) <= 1e-9


def test_eval_lgamma_integral_past_the_gamma_ceiling():
    # log gamma(200) is finite though gamma(200) is not
    ref = run_cli("eval", "lgamma", "200")
    quad = run_cli("eval", "lgamma", "200", "--engine", "integral")
    assert ref.returncode == 0 and ref.stdout == "857.933669825857\n"
    assert quad.returncode == 0 and quad.stderr == ""
    assert abs(float(quad.stdout) - 857.933669825857) <= 1e-13 * 857.933669825857


def test_eval_lgamma_integral_past_max_n_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["eval", "lgamma", "1e300", "--engine", "integral"]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == ("", "error: x must be <= 100000\n")


def test_eval_loggamma_integral():
    result = run_cli("eval", "loggamma_integral", "0.5", "--engine", "integral")
    assert result.returncode == 0
    assert abs(float(result.stdout) - 0.8862269254527580) <= 1e-9


def test_eval_negative_loggamma_integral_exits_2(capsys):
    for engine in ("reference", "integral"):
        assert main(["eval", "loggamma_integral", "-1", "--engine", engine]) == 2
        assert capsys.readouterr().err == "error: s must be nonnegative and finite\n"


# Every (function, engine) pair of eval, its values, and the library call
# whose value it prints.
EVAL_CALLS = [
    ("gamma", "reference", ["2.5"], lambda: gamma_reference(2.5)),
    ("gamma", "integral", ["2.5"], lambda: gamma_integral(2.5).value),
    ("lgamma", "reference", ["7.7"], lambda: log_gamma(7.7)),
    ("lgamma", "integral", ["7.7"], lambda: log_gamma_integral(7.7).value),
    ("beta", "reference", ["0.5", "1.5"], lambda: beta_closed(0.5, 1.5)),
    ("beta", "integral", ["0.5", "1.5"], lambda: beta_integral(0.5, 1.5).value),
    ("symbol", "reference", ["1", "2", "3"], lambda: euler_symbol_closed(1.0, 2.0, 3.0)),
    ("symbol", "integral", ["1", "2", "3"], lambda: euler_symbol(1.0, 2.0, 3.0).value),
    ("loggamma_integral", "reference", ["0.5"], lambda: gamma_reference(1.5)),
    ("loggamma_integral", "integral", ["0.5"], lambda: gamma_log_integral(0.5).value),
]


@pytest.mark.parametrize("function, engine, values, library", EVAL_CALLS)
def test_eval_prints_the_library_value(function, engine, values, library, capsys):
    assert main(["eval", function, *values, "--engine", engine]) == 0
    assert capsys.readouterr().out == format(library(), ".15g") + "\n"


def test_eval_calls_cover_every_function_and_engine():
    pairs = {(function, engine) for function, engine, _, _ in EVAL_CALLS}
    assert pairs == {(function, engine) for function in cli._EVAL
                     for engine in ("reference", "integral")}


def test_eval_wrong_arity_exits_2():
    assert run_cli("eval", "beta", "0.5").returncode == 2
    assert run_cli("eval", "gamma", "1", "2").returncode == 2


def test_eval_domain_error_exits_2():
    result = run_cli("eval", "gamma", "0")
    assert result.returncode == 2
    assert "positive" in result.stderr


def test_eval_non_integer_symbol_exponent_exits_2():
    result = run_cli("eval", "symbol", "1", "1", "2.5")
    assert result.returncode == 2
    assert "integer" in result.stderr


@pytest.mark.parametrize("argv", [
    ("eval", "symbol", "1", "1", "1e300", "--engine", "integral"),
    ("verify", "symbol-bridge", "--p", "1", "--q", "1", "--n", "100001"),
    ("verify", "symbol-symmetry", "--p", "1", "--q", "2", "--n", "1e16"),
])
def test_symbol_exponent_past_the_cap_exits_2(argv, capsys):
    # Euler's symbol by quadrature takes n up to MAX_N, as the product checks
    # do; S(1, 1; 10^300) = 2 used to come out as 1.0.
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be <= 100000\n"


@pytest.mark.parametrize("argv, name", [
    (("eval", "symbol", "5e-324", "1", "2"), "p / n"),
    (("eval", "symbol", "1", "5e-324", "2"), "q / n"),
    (("verify", "symbol-bridge", "--p", "5e-324", "--q", "1", "--n", "2"), "p / n"),
    (("verify", "symbol-bridge", "--p", "1", "--q", "5e-324", "--n", "2"), "q / n"),
])
def test_symbol_exponent_over_n_underflowing_names_it(argv, name, monkeypatch, capsys):
    # p / n rounds to 0 for a subnormal p; the message named log_beta's x or
    # y.  The bridge refuses it before it integrates.
    def no_quadrature(*args):
        raise AssertionError("integrated before validating")

    monkeypatch.setattr(identities, "euler_symbol", no_quadrature)
    assert main(list(argv)) == 2
    assert capsys.readouterr().err == f"error: {name} must be positive and finite\n"


def test_eval_non_finite_symbol_exponent_exits_2():
    result = run_cli("eval", "symbol", "1", "1", "inf")
    assert result.returncode == 2
    assert "n must be finite" in result.stderr
    assert "Traceback" not in result.stderr


# (-log x)^s passes the double range at a node the family loop visits from
# s = 110.02: the node t = 6 of the coarsest level.
@pytest.mark.parametrize("args", [("loggamma_integral", "150")])
def test_eval_overflowing_integrand_exits_1(args):
    result = run_cli("eval", *args, "--engine", "integral")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: integrand not finite\n"


def test_eval_loggamma_integral_past_the_outermost_node_overflow():
    # (-log x)^108.5 overflows at the outermost nodes of every level but the
    # coarsest, yet each level stops before them, where its terms no longer
    # change its total: the integral is Gamma(109.5).
    result = run_cli("eval", "loggamma_integral", "108.5", "--engine", "integral")
    assert result.returncode == 0
    assert result.stderr == ""
    exact = mpmath.gamma(mpmath.mpf("109.5"))
    assert abs(mpmath.mpf(result.stdout) - exact) <= 1e-14 * exact


def test_eval_gamma_integral_reaches_the_double_ceiling():
    result = run_cli("eval", "gamma", "171.5", "--engine", "integral")
    assert result.returncode == 0
    assert result.stdout == "9.4833675668248e+307\n"
    assert result.stderr == ""


@pytest.mark.parametrize("args", [
    ("eval", "gamma", "172"),
    ("eval", "gamma", "1e-320"),
    ("verify", "factorial-root", "--m", "1e307", "--n", "2"),
    ("eval", "gamma", "172", "--engine", "integral"),
    ("eval", "gamma", "800", "--engine", "integral"),
    # log gamma(x) overflows, or fsum's partial sums do
    ("verify", "gauss-multiplication", "--n", "2", "--x", "1e308"),
    ("verify", "duplication", "--x", "1e306"),
    ("verify", "duplication", "--x", "3e305"),
])
def test_result_past_double_range_exits_2(args):
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: result not finite in double precision\n"


def test_log_space_check_just_inside_double_range_passes():
    for args in (("duplication", "--x", "2.5e305"),
                 ("gauss-multiplication", "--n", "2", "--x", "2.5e305")):
        result = run_cli("verify", *args)
        assert result.returncode == 0
        assert "result:        PASS" in result.stdout


def test_suite_names_a_case_past_double_range_as_an_error():
    result = run_cli("suite", "--identities", "duplication", "--x", "2,1e306",
                     "--format", "csv")
    assert result.returncode == 1
    assert result.stderr == ("error: duplication x=1e+306: "
                             "DomainError: result not finite in double precision\n")
    assert result.stdout.splitlines()[1:] == [
        "duplication,x=2.0,-0.12078223763524587,-0.1207822376352452,"
        "6.661338147750939e-16,5.515163717919953e-15,1e-10,true",
        "duplication,x=1e+306,nan,nan,inf,inf,1e-10,false",
    ]


def test_verify_sine_multiple_angle_at_large_phi():
    # sin(3e200) = -0.8637...; the first-order sine of a double-double
    # argument put the product side at -0.388.
    result = run_cli("verify", "sine-multiple-angle", "--n", "3", "--phi", "1e200")
    assert result.returncode == 0
    assert "result:        PASS" in result.stdout
    # phi is reduced exactly at any finite size
    result = run_cli("verify", "sine-multiple-angle", "--n", "3", "--phi", "1.31e300")
    assert result.returncode == 0
    assert "result:        PASS" in result.stdout
    refused = run_cli("verify", "sine-multiple-angle", "--n", "3", "--phi", "inf")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert refused.stderr == "error: phi must be finite\n"


@pytest.mark.parametrize("argv, code, text", [
    # sin(-3e200) = 0.8637...
    (["verify", "sine-multiple-angle", "--n", "3", "--phi", "-1e200"], 0, "result:        PASS"),
    (["verify", "sine-multiple-angle", "--n", "3", "--phi", "-inf"], 2,
     "error: phi must be finite"),
    (["suite", "--identities", "sine-multiple-angle", "--n", "2", "--phi", "-1e5,2"], 0,
     "pass 2  fail 0"),
])
def test_a_negative_value_in_exponent_form_is_read_as_a_flag_value(argv, code, text, capsys):
    # argparse reads "-1e200" and "-inf" as flags, not as --phi's value,
    # which reports print with repr (phi=-1.8777312195033856e+17).
    assert main(argv) == code
    captured = capsys.readouterr()
    assert text in captured.out + captured.err
    assert "expected one argument" not in captured.err


@pytest.mark.parametrize("argv, plain", [
    (["eval", "gamma", "-1e-5"], ["eval", "gamma", "-0.00001"]),
    (["eval", "gamma", "-1e-5", "--engine", "integral"],
     ["eval", "gamma", "-0.00001", "--engine", "integral"]),
    (["eval", "gamma", "-inf"], ["eval", "gamma", "-1.0"]),
    (["eval", "beta", "1", "-1e-3"], ["eval", "beta", "1", "-0.001"]),
    (["eval", "symbol", "1", "1", "-2e0"], ["eval", "symbol", "1", "1", "-2.0"]),
])
def test_eval_reads_a_negative_value_in_exponent_form(argv, plain, capsys):
    # argparse reads "-1e-5" and "-inf" as flags; eval hands them to the
    # engine, which refuses them as it does the plain decimal.
    assert main(plain) == 2
    message = capsys.readouterr()
    assert message.out == "" and message.err.startswith("error: ")
    assert main(argv) == 2
    assert capsys.readouterr() == message


def test_readme_exit_code_table_holds(capsys):
    # Each row of the README's exit-code table, run in-process: its exit
    # code, and the `error: ...` text its meaning quotes.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    row = re.compile(r"\| (\d) \| (.+) \| `([^`]+)` \|")
    rows = [m.groups() for m in map(row.fullmatch, readme.read_text(encoding="utf-8").splitlines())
            if m]
    assert len(rows) == 32
    for code, meaning, example in rows:
        try:
            exit_code = main(example.split())
        except SystemExit as exc:  # argparse's usage errors
            exit_code = exc.code
        stderr = capsys.readouterr().err
        assert exit_code == int(code), example
        for quoted in re.findall(r"`(error: [^`]+)`", meaning):
            assert quoted in stderr, example


def test_verify_non_finite_integer_axis_exits_2():
    result = run_cli("verify", "sine-product", "--n", "inf")
    assert result.returncode == 2
    assert "must be finite" in result.stderr
    assert "Traceback" not in result.stderr


def test_closed_form_n_past_the_cap_exits_2():
    result = run_cli("verify", "gauss-multiplication", "--x", "1", "--n", "1e30", timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: n must be <= 100000\n"


def test_axis_range_past_the_cap_exits_2():
    # One value past the cap; without it this grid runs for hours.
    result = run_cli("suite", "--identities", "sine-product", "--n", "2..4,2..100002",
                     timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "error: argument --n: range '2..100002' is longer than 100000 values" in result.stderr


@pytest.mark.parametrize("axes", [("sine-product", "--n", "1..100000"),
                                  ("gauss-multiplication", "--n", "1..100000", "--x", "0.5"),
                                  ("algebraic-interpolation", "--p", "1", "--q", "1..100000")])
def test_grid_past_the_work_budget_exits_2(axes):
    # Each axis is within its cap, but the work axis (n, or q for
    # algebraic-interpolation) sums to 5e9 over the grid.
    work_axis = identities.IDENTITIES[axes[0]].work_axis
    result = run_cli("suite", "--identities", *axes, timeout=60)
    assert result.returncode == 2
    assert result.stdout == ""
    assert (f"error: the grid's {work_axis} sums to 5000050000 over its cases; "
            "at most 10000000 is allowed") in result.stderr


def test_axis_list_past_the_cap_is_refused_before_it_is_built(capsys):
    # Each range is within the cap, but together they pass it.  The range
    # that would pass it is refused unexpanded, and the later ones unread:
    # twenty such ranges, a 179-byte flag, built 1,999,980 values.
    assert len(cli._axis_values("1..50000,50001..100000")) == MAX_N
    with pytest.raises(argparse.ArgumentTypeError,
                       match=r"^range '50001\.\.100001' takes the list past 100000 values$"):
        cli._axis_values("1..50000,50001..100001")
    tracemalloc.start()
    try:
        with pytest.raises(argparse.ArgumentTypeError, match="takes the list past"):
            cli._axis_values(",".join(["1..99999"] * 20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20
    with pytest.raises(SystemExit) as stopped:
        main(["suite", "--identities", "sine-product", "--n", "1..99999,1..99999"])
    assert stopped.value.code == 2
    assert ("error: argument --n: range '1..99999' takes the list past 100000 values"
            in capsys.readouterr().err)


def test_nonpositive_work_values_do_not_offset_the_budget():
    # A case with n <= 0 is refused before it does work, so it counts 0:
    # these 80,000 cases' positive n sum to 4e9, and -100000 used to cancel
    # them.
    axes = {"n": [100000, -100000], "x": [float(x) for x in range(1, 40001)]}
    with pytest.raises(DomainError, match="^the grid's n sums to 4000000000 over its cases; "
                                          "at most 10000000 is allowed$"):
        identities.build_grid(["gauss-multiplication"], axes)


def test_work_budget_admits_a_grid_at_the_budget(monkeypatch, capsys):
    monkeypatch.setattr(identities, "MAX_GRID_N", 5)
    assert main(["suite", "--identities", "sine-product", "--n", "2,3"]) == 0
    assert main(["suite", "--identities", "sine-product", "--n", "2,4"]) == 2
    assert "n sums to 6 over its cases; at most 5 is allowed" in capsys.readouterr().err


@pytest.mark.parametrize("axes, cases", [
    (("gauss-multiplication", "--n", "1..100000"), 700_000),
    # The case cap is checked first, so it stops these 10^10 cases whatever
    # their q sums to.
    (("algebraic-interpolation", "--p", "1..100000", "--q", "1..100000"), 10 ** 10),
])
def test_grid_past_the_case_cap_exits_2(axes, cases):
    # Rejected before the grid is expanded, so well inside the timeout.
    result = run_cli("suite", "--identities", *axes, timeout=20)
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"error: the grid has {cases} cases; at most 100000 are allowed" in result.stderr


def test_case_cap_admits_a_grid_at_the_cap(monkeypatch):
    monkeypatch.setattr(identities, "MAX_GRID_CASES", 2)
    assert main(["suite", "--identities", "sine-product", "--n", "2,3"]) == 0
    assert main(["suite", "--identities", "sine-product", "--n", "2,3,4"]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerances_exit_2(tol):
    suite = run_cli("suite", "--identities", "sine-product", "--tol", f"sine-product={tol}")
    assert suite.returncode == 2
    assert "positive and finite" in suite.stderr
    verify = run_cli("verify", "reflection", "--x", "0.5", "--tol", tol)
    assert verify.returncode == 2
    assert "positive and finite" in verify.stderr


def test_eval_unknown_function_exits_2():
    assert run_cli("eval", "zeta", "2").returncode == 2


def test_verify_gauss_acceptance_member():
    result = run_cli("verify", "gauss-multiplication", "--n", "5", "--x", "3.7")
    assert result.returncode == 0
    assert "result:        PASS" in result.stdout


def test_verify_reflection_half_shows_pi():
    result = run_cli("verify", "reflection", "--x", "0.5")
    assert result.returncode == 0
    # the sides are logs: log pi
    assert "lhs:           1.1447298858494\n" in result.stdout
    assert "rhs:           1.1447298858494\n" in result.stdout


def test_verify_factorial_root_past_the_double_range_of_its_factorial(capsys):
    # 200! overflows; its log, 863.23198719240547 by mpmath, does not
    assert main(["verify", "factorial-root", "--m", "2000", "--n", "10"]) == 0
    out = capsys.readouterr().out
    assert "lhs:           863.2319871924" in out
    assert "rhs:           863.2319871924" in out
    assert "result:        PASS" in out


def test_an_integral_that_underflows_exits_2_with_its_name(capsys):
    error = "an integral underflowed to 0 in double precision"
    assert main(["verify", "symbol-bridge", "--p", "1.7e308", "--q", "1", "--n", "2"]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert main(["suite", "--identities", "symbol-bridge", "--p", "1.7e308", "--q", "1",
                 "--n", "2", "--format", "csv"]) == 1
    assert capsys.readouterr().err == (
        f"error: symbol-bridge n=2;p=1.7e+308;q=1.0: DomainError: {error}\n")


def test_an_integral_that_underflows_at_most_nodes_is_not_converged(capsys):
    # S(1e300, 1; 2) = 1.2533e-150; most of its nodes underflow to 0.  It
    # printed 0 and exited 0, a value of 0 meeting a bar of 0.
    assert main(["eval", "symbol", "1e300", "1", "2", "--engine", "integral"]) == 1
    out, err = capsys.readouterr()
    assert out == "1.24141813296134e-150\n"
    assert err.startswith("warning: quadrature did not converge")
    assert main(["verify", "symbol-bridge", "--p", "1e300", "--q", "1", "--n", "2"]) == 1
    assert "result:        FAIL" in capsys.readouterr().out


def test_verify_shows_the_wall_time_of_its_check(capsys):
    assert main(["verify", "reflection", "--x", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "identity", "params", "lhs", "rhs", "abs_residual", "rel_residual",
        "tolerance", "wall_time_s", "result"]
    assert float(lines[7].split()[1]) >= 0.0
    shown = render_report(check_reflection(0.5), 0.25).splitlines()
    assert shown[7] == "wall_time_s:   0.250000"
    assert shown[:7] + shown[8:] == lines[:7] + lines[8:]


def test_verify_reflection_out_of_domain_exits_2():
    result = run_cli("verify", "reflection", "--x", "1.5")
    assert result.returncode == 2
    assert "x must lie in (0,1)" in result.stderr


def test_verify_unknown_identity_exits_2():
    result = run_cli("verify", "does-not-exist", "--x", "0.5")
    assert result.returncode == 2
    assert "invalid choice: 'does-not-exist'" in result.stderr


@pytest.mark.parametrize("argv", [("--x", "0.3", "reflection"),
                                  ("--tol", "1e-3", "reflection", "--x", "0.3")])
def test_verify_flag_before_the_identity_exits_2_saying_so(argv):
    result = run_cli("verify", *argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert "IDENTITY comes before its flags" in result.stderr
    assert f"got '{argv[0]}' first" in result.stderr
    assert "invalid choice" not in result.stderr


def test_verify_missing_param_exits_2():
    result = run_cli("verify", "gauss-multiplication", "--n", "5")
    assert result.returncode == 2
    assert "--x" in result.stderr


def test_verify_extraneous_param_exits_2():
    result = run_cli("verify", "reflection", "--x", "0.5", "--n", "3")
    assert result.returncode == 2
    assert "unrecognized arguments: --n 3" in result.stderr


@pytest.mark.parametrize("identity_id", sorted(identities.IDENTITIES))
def test_verify_takes_exactly_its_rows_flags(identity_id, capsys, monkeypatch):
    axes = identities.IDENTITIES[identity_id].axes
    case = identities.build_grid([identity_id])[identity_id][0]
    case.pop("mode", None)  # left to its default

    def flags(omit=None):
        return [item for axis, value in case.items() if axis != omit
                for item in (f"--{axis}", str(value))]

    def usage_error(*argv):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", *argv])
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    shown = []
    monkeypatch.setattr(reporting, "render_report",
                        lambda report, seconds: shown.append(report) or "")
    assert main(["verify", identity_id, *flags()]) == 0
    if "mode" in axes:
        assert shown[0].params["mode"] == "closed"
    for axis in case:
        assert (f"the following arguments are required: --{axis}"
                in usage_error(identity_id, *flags(omit=axis)))
    others = {axis for spec in identities.IDENTITIES.values() for axis in spec.axes} - set(axes)
    for other in sorted(others):
        assert (f"unrecognized arguments: --{other} 1"
                in usage_error(identity_id, *flags(), f"--{other}", "1"))
    assert f"invalid choice: '{identity_id}-x'" in usage_error(f"{identity_id}-x", *flags())
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", identity_id, "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: eulergamma verify {identity_id} [-h]")
    listed = [line.split()[0].rstrip(",") for line in out.split("options:\n")[1].splitlines()]
    assert listed == ["-h", *(f"--{axis}" for axis in axes), "--tol"]


def test_verify_factorial_root_modes():
    closed = run_cli("verify", "factorial-root", "--m", "2", "--n", "3")
    assert closed.returncode == 0
    assert "mode=closed" in closed.stdout
    quad = run_cli("verify", "factorial-root", "--m", "2", "--n", "3",
                   "--mode", "quadrature")
    assert quad.returncode == 0
    assert "mode=quadrature" in quad.stdout


def test_verify_tolerance_override_can_force_failure():
    result = run_cli("verify", "gauss-multiplication", "--n", "5", "--x", "3.7",
                     "--tol", "1e-30")
    assert result.returncode == 1
    assert "result:        FAIL" in result.stdout


def test_verify_beyond_default_grid():
    assert run_cli("verify", "sine-product", "--n", "40").returncode == 0


PERFBENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, PERFBENCH / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_grid_holds_the_cases_the_benchmark_gate_counts(monkeypatch):
    # suite-default fails every unit whose JSON does not hold exactly
    # SUITE_CASES passing reports; a change to the default grid needs a
    # change to the benchmark first.
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports refjobs
    workloads = _perfbench_module("workloads")
    assert sum(map(len, identities.default_grid().values())) == workloads.SUITE_CASES


def _traced_names():
    """Every (namespace, name) the benchmark's tracer replaces, with its value."""
    from eulergamma import backend, beta, quadrature, reporting

    names = [(backend, "level_sum"), (quadrature, "_refine"),
             (identities, "log_gamma"), (beta, "log_gamma"), (cli, "log_gamma"),
             (beta, "beta_closed"), (cli, "beta_closed"),
             (identities, "run_suite"), (identities, "build_grid"),
             (reporting, "render_json"), (reporting, "render_csv"),
             (reporting, "render_table")]
    values = {(target.__name__, name): getattr(target, name) for target, name in names}
    values.update({("IDENTITIES", identity_id): spec
                   for identity_id, spec in identities.IDENTITIES.items()})
    return values


def test_rows_swap_their_run_as_the_benchmark_tracer_does(monkeypatch, tmp_path):
    # The benchmark's tracer replaces each row by dataclasses.replace(spec,
    # run=...) in IDENTITIES itself; run_suite and verify must call the
    # replacement, so they look the row up when they run.
    tracing = _perfbench_module("tracing")
    assert sorted(identities.IDENTITIES) == sorted(tracing.IDENTITY_IDS)
    assert len(tracing.IDENTITY_IDS) == 12
    # The benchmark's provenance record reads this name.
    assert eulergamma.BACKEND == "python"

    # A real tracer around the default suite measures every layer, and
    # finds the default suite's pinned work.
    before = _traced_names()
    tracer = tracing.Tracer().install()
    try:
        patched = _traced_names()
        assert main(["suite", "--format", "json", "--out", str(tmp_path / "r.json")]) == 0
    finally:
        tracer.uninstall()
    assert _traced_names() == before
    assert all(patched[key] is not value for key, value in before.items())
    assert tracer.unmeasured == set()
    counts = tracer.counts()
    assert counts["quadrature.calls"] == 172
    assert counts["backend.level_calls"] == 762
    # 23,936 nodes before each family level stopped at its first term that
    # leaves the total unchanged
    assert counts["backend.nodes"] == 15568
    assert counts["identities.cases"] == 640  # one check: span per case
    assert counts["spans"]["run_suite"] == 1
    assert counts["spans"]["build_grid"] == 1

    calls = []
    for identity_id, spec in list(identities.IDENTITIES.items()):
        def traced(params, tolerance, identity_id=identity_id, run=spec.run):
            calls.append(identity_id)
            return run(params, tolerance)
        monkeypatch.setitem(identities.IDENTITIES, identity_id,
                            dataclasses.replace(spec, run=traced))
    grid = {identity_id: cases[:1] for identity_id, cases in identities.default_grid().items()}
    assert run_suite(grid).n_fail == 0
    assert calls == sorted(tracing.IDENTITY_IDS)
    calls.clear()
    assert main(["verify", "factorial-root", "--m", "2", "--n", "3"]) == 0
    assert calls == ["factorial-root"]


def _traced_pass(tmp_path, workload, name):
    """One traced pass of a benchmark workload, seed 7, in a child process,
    as ``run.py --trace 1`` makes it."""
    passchild = Path(__file__).resolve().parents[1] / "benchmarks" / "perfbench" / "passchild.py"
    out = tmp_path / f"{name}.json"
    result = subprocess.run(
        [sys.executable, str(passchild), "trace", workload, "7", str(tmp_path), str(out)],
        capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def test_traced_closed_form_wide_pass_runs_clean(tmp_path):
    first = _traced_pass(tmp_path, "closed-form-wide", "first")
    second = _traced_pass(tmp_path, "closed-form-wide", "second")
    for record in (first, second):
        assert record["units"] == 6
        assert record["failed"] == 0
        assert record["unmeasured"] == []
    assert first["counts"] == second["counts"]
    assert first["counts"]["quadrature.calls"] == 0


def test_traced_integrals_unique_pass_runs_clean(tmp_path):
    # The tracer wraps quadrature._refine and counts one quadrature per
    # level_sum(..., odd_only=False) call; every unit is gated against mpmath.
    first = _traced_pass(tmp_path, "integrals-unique", "first")
    second = _traced_pass(tmp_path, "integrals-unique", "second")
    for record in (first, second):
        assert record["units"] == 100
        assert record["failed"] == 0
        assert record["unmeasured"] == []
    assert first["counts"] == second["counts"]
    assert first["counts"]["quadrature.calls"] == 1000
    assert first["counts"]["quadrature.unconverged"] == 0


@pytest.mark.parametrize("identity_id", sorted(identities.IDENTITIES))
def test_verify_flags_from_the_table_give_the_suite_report(identity_id, monkeypatch):
    case = identities.build_grid([identity_id])[identity_id][0]
    argv = ["verify", identity_id]
    for axis, value in case.items():
        argv += [f"--{axis}", str(value)]
    shown = []
    monkeypatch.setattr(reporting, "render_report",
                        lambda report, seconds: shown.append(report) or "")
    assert main(argv) == 0
    (expected,) = run_suite({identity_id: [case]}).reports
    assert shown == [expected]


def test_suite_csv_header_and_rows():
    result = run_cli("suite", "--identities", "sine-product", "--n", "2..6",
                     "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "identity_id,params,lhs,rhs,abs_residual,rel_residual,tolerance,passed"
    assert len(lines) == 6
    assert lines[1].startswith("sine-product,n=2,")
    assert lines[1].endswith(",true")


def test_suite_table_summary():
    result = run_cli("suite", "--identities", "reflection", "--x", "0.25,0.5")
    assert result.returncode == 0
    assert "pass 2  fail 0" in result.stdout


def test_suite_tol_override_forces_exit_1():
    result = run_cli("suite", "--identities", "gauss-multiplication",
                     "--tol", "gauss-multiplication=1e-30")
    assert result.returncode == 1


def test_suite_names_each_crashed_check_on_stderr():
    result = run_cli("suite", "--identities", "reflection", "--x", "0.5,1.5",
                     "--format", "csv")
    assert result.returncode == 1
    assert result.stderr == "error: reflection x=1.5: DomainError: x must lie in (0,1)\n"
    assert result.stdout.splitlines()[2] == "reflection,x=1.5,nan,nan,inf,inf,1e-12,false"


def test_suite_unknown_identity_exits_2():
    result = run_cli("suite", "--identities", "nope")
    assert result.returncode == 2
    assert "unknown identity" in result.stderr


def test_suite_bad_flags_exit_2():
    assert run_cli("suite", "--identities", "sine-product", "--n", "5..2").returncode == 2
    assert run_cli("suite", "--identities", "sine-product", "--n", "abc").returncode == 2
    assert run_cli("suite", "--tol", "gauss-multiplication").returncode == 2
    assert run_cli("suite", "--format", "xml").returncode == 2


def test_suite_command_shares_integrals(refine_calls, tmp_path):
    # The suite command integrates each of the default suite's 172 distinct
    # integrals once, and echoes the grid alone.
    out = tmp_path / "r.json"
    assert main(["suite", "--format", "json", "--out", str(out)]) == 0
    assert len(refine_calls) == 172
    assert len(set(refine_calls)) == 172
    config = json.loads(out.read_text())["config"]
    assert list(config) == ["grid"]
    assert sum(config["grid"].values()) == 640


# The sha256 of each default `suite` output, byte for byte.  A change that
# means to move an output updates its pin here and says why in CHANGES.md.
DEFAULT_SUITE_SHA256 = {
    "json": "b039049da8095e5720fe9dd47ca41d5d7be40c4f97c7e539c27baa14ea127601",
    "csv": "46962fd9708061a5ec55a185f2e51a113dffcb5d923d4633a8f15a42c33bcc36",
    "table": "072639a0248e5ee2082e2be1d49b19ba0ea4707f7634550639974ae29c372ce9",
}


@pytest.mark.parametrize("fmt", sorted(DEFAULT_SUITE_SHA256))
def test_default_suite_outputs_are_pinned(fmt):
    result = subprocess.run([sys.executable, "-m", "eulergamma", "suite", "--format", fmt],
                            capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout).hexdigest() == DEFAULT_SUITE_SHA256[fmt]


def _modules_loaded(*args):
    """Names of the modules a fresh ``python -X importtime ARGS`` imports,
    beyond those the interpreter's start already holds."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return {line.rpartition("|")[2].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:") and "self [us]" not in line}


def _csv_and_json(modules):
    return {m for m in modules if m in ("csv", "_csv", "json") or m.startswith("json.")}


def test_table_path_and_import_load_neither_csv_nor_json():
    loaded = _modules_loaded("-m", "eulergamma", "suite", "--identities", "reflection")
    assert {"eulergamma.cli", "eulergamma.identities", "eulergamma.reporting"} <= loaded
    assert _csv_and_json(loaded) == set()
    loaded = _modules_loaded("-c", "import eulergamma")
    assert "eulergamma.identities" not in loaded
    assert _csv_and_json(loaded) == set()


def test_json_path_imports_json_but_no_csv(tmp_path):
    loaded = _modules_loaded("-m", "eulergamma", "suite", "--format", "json",
                             "--out", str(tmp_path / "r.json"))
    assert {"eulergamma.cli", "eulergamma.identities", "eulergamma.reporting"} <= loaded
    assert "json" in _csv_and_json(loaded)
    assert not {"csv", "_csv"} & loaded


def test_csv_path_imports_no_json(tmp_path):
    loaded = _modules_loaded("-m", "eulergamma", "suite", "--format", "csv",
                             "--out", str(tmp_path / "r.csv"))
    assert _csv_and_json(loaded) == {"csv", "_csv"}


@pytest.mark.parametrize("args", [
    ("-c", "import eulergamma"),
    ("-m", "eulergamma", "eval", "gamma", "0.5"),
    ("-m", "eulergamma", "eval", "symbol", "3", "2", "5", "--engine", "integral"),
])
def test_engine_paths_load_no_identity_layer(args):
    layer = {"eulergamma.identities", "eulergamma.reporting", "dataclasses", "inspect"}
    loaded = _modules_loaded(*args)
    assert {"eulergamma.beta", "eulergamma.gamma", "eulergamma.quadrature"} <= loaded
    assert loaded & layer == set()
    assert _csv_and_json(loaded) == set()


def test_identity_names_load_on_first_use():
    script = (
        "import sys, eulergamma\n"
        "assert 'eulergamma.identities' not in sys.modules\n"
        "assert 'run_suite' not in vars(eulergamma)\n"
        "assert set(eulergamma.__all__) <= set(dir(eulergamma))\n"
        "run_suite = eulergamma.run_suite\n"
        "from eulergamma import identities\n"
        "assert run_suite is identities.run_suite is vars(eulergamma)['run_suite']\n"
        "assert 'check_reflection' not in vars(eulergamma)\n"
        "namespace = {}\n"
        "exec('from eulergamma import *', namespace)\n"
        "assert set(namespace) - {'__builtins__'} == set(eulergamma.__all__)\n"
        "assert 'eulergamma.reporting' not in sys.modules\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_every_public_name_is_its_home_modules_object():
    from eulergamma import beta, errors, gamma, quadrature

    homes = (beta, errors, gamma, identities, quadrature)
    for name in eulergamma.__all__:
        if name in ("BACKEND", "__version__"):
            continue
        owners = [module for module in homes if name in vars(module)]
        assert owners, name
        assert all(getattr(eulergamma, name) is vars(module)[name] for module in owners), name
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        eulergamma.no_such_name


@pytest.mark.parametrize("argv", [
    ["-h"], ["eval", "-h"], ["verify", "-h"], ["suite", "-h"], [], ["zeta", "2"],
    ["verify", "reflection", "--x"], ["--", "eval", "gamma"],
])
def test_help_and_usage_errors_match_the_full_parser(argv, capsys, monkeypatch):
    # main fills in only the command its first argument names; what it
    # prints, and its exit code, are those of main with every command filled.
    # verify's flags are parsed by its row's parser, in its handler.
    with pytest.raises(SystemExit) as shown:
        main(argv)
    printed = capsys.readouterr()
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: build())
    with pytest.raises(SystemExit) as reference:
        main(argv)
    assert (shown.value.code, printed) == (reference.value.code, capsys.readouterr())
    assert printed.out or printed.err


def test_suite_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    to_file = run_cli("suite", "--identities", "sine-product", "--format", "json",
                      "--out", str(out))
    to_stdout = run_cli("suite", "--identities", "sine-product", "--format", "json")
    assert to_file.returncode == 0
    assert to_file.stdout == ""
    assert out.read_text() == to_stdout.stdout


def test_suite_unwritable_out_exits_3():
    result = run_cli("suite", "--identities", "sine-product",
                     "--out", "/nonexistent-dir/report.json")
    assert result.returncode == 3
    assert result.stderr.strip() != ""


def test_suite_json_round_trips_report_fields():
    suite = run_suite({"sine-product": [{"n": n} for n in range(2, 7)]})
    parsed = json.loads(render_json(suite))
    assert parsed["summary"] == {"pass": suite.n_pass, "fail": suite.n_fail}
    for rendered, report in zip(parsed["reports"], suite.reports):
        assert rendered["identity_id"] == report.identity_id
        assert rendered["params"] == {k: report.params[k] for k in report.params}
        assert rendered["lhs"] == report.lhs
        assert rendered["rhs"] == report.rhs
        assert rendered["abs_residual"] == report.abs_residual
        assert rendered["rel_residual"] == report.rel_residual
        assert rendered["tolerance"] == report.tolerance
        assert rendered["passed"] is report.passed


def test_suite_restricted_axes_apply_to_matching_identities_only():
    result = run_cli("suite", "--identities", "sine-product,reflection",
                     "--n", "2,3", "--format", "csv")
    assert result.returncode == 0
    lines = result.stdout.splitlines()[1:]
    sine = [line for line in lines if line.startswith("sine-product")]
    reflection = [line for line in lines if line.startswith("reflection")]
    assert len(sine) == 2
    assert len(reflection) == 20  # untouched default axis


def _table_axes():
    return [f"--{axis}" for axis in
            dict.fromkeys(axis for spec in identities.IDENTITIES.values() for axis in spec.axes)]


def _options(parser):
    return [option for action in parser._actions for option in action.option_strings]


@pytest.mark.parametrize("command", [["eval", "gamma", "1"], ["suite"],
                                     ["verify", "reflection", "--x", "0.25"]])
def test_truncation_threshold_is_no_flag(command, capsys):
    # Each command takes exactly these options; a new flag is an edit here.
    # Every quadrature runs at one tolerance and budget, so no command takes
    # either; nor a truncation threshold, since no command integrates over a
    # semi-infinite interval.
    name = command[0]
    expected = {"eval": ["--engine"],
                "verify": [],
                "suite": ["--identities", *_table_axes(), "--format", "--tol", "--out"]}
    parser = cli._build_parser(name)
    (commands,) = [action for action in parser._actions if action.dest == "command"]
    assert _options(commands.choices[name]) == ["-h", "--help", *expected[name]]
    if name == "verify":
        # each identity's flags follow its name, parsed by its row's parser
        for identity_id, spec in identities.IDENTITIES.items():
            assert _options(cli._row_parser(identity_id)) == [
                "-h", "--help", *(f"--{axis}" for axis in spec.axes), "--tol"]
    for flag, value in [("--truncation-threshold", "1e-9"), ("--rel-tol", "1e-9"),
                        ("--max-refinements", "12")]:
        with pytest.raises(SystemExit) as exit_info:
            main([*command, flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_main_is_callable_in_process(capsys):
    code = main(["eval", "gamma", "5"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "24\n"


def test_main_maps_domain_error_to_usage_exit(capsys):
    code = main(["verify", "reflection", "--x", "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "x must lie in (0,1)" in captured.err


def test_console_script_installed(tmp_path):
    """The console script this checkout declares runs by name.

    Whether an ``eulergamma`` executable is on PATH is a property of the
    machine, and one found there may belong to another version or checkout.
    So the launcher pip would write for the ``[project.scripts]`` entry in
    this checkout's ``pyproject.toml`` is built here and run against the
    package under test. Everything is written
    under ``tmp_path``; no ``eulergamma`` outside it is run.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "eulergamma" in scripts
    ep = EntryPoint(name="eulergamma", value=scripts["eulergamma"],
                    group="console_scripts")
    assert ep.load() is main

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "eulergamma"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n"
    )
    launcher.chmod(0o755)

    src_dir = Path(eulergamma.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    assert shutil.which("eulergamma", path=env["PATH"]) == str(launcher)

    result = subprocess.run(["eulergamma", "eval", "gamma", "0.5"],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout == "1.77245385090552\n"
