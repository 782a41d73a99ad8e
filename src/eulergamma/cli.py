"""Command-line interface.

Examples:
    eulergamma eval gamma 0.5
    eulergamma eval symbol 1 1 2 --engine integral
    eulergamma verify gauss-multiplication --n 5 --x 3.7
    eulergamma verify reflection --x 0.25
    eulergamma suite --format json --out report.json
    eulergamma suite --identities sine-product --n 2..40

Exit codes: 0 success / all checks passed; 1 failed check, unconverged
quadrature or non-finite integrand; 2 usage error, domain error or a result
past the double-precision range; 3 I/O error.
"""

import argparse
import math
import sys
import time

from .beta import beta_closed, beta_integral, euler_symbol, euler_symbol_closed
from .errors import DomainError, NonFiniteIntegrandError, nonnegative, positive
from .gamma import (
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    log_gamma,
    log_gamma_integral,
)
from .identities import IDENTITIES, MAX_N, MODES, build_grid, run_suite
from .quadrature import DEFAULT_CONFIG, MAX_REFINEMENTS, QuadratureConfig
from .reporting import params_string, render_report, render_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

_NOT_FINITE = "result not finite in double precision"


# One row per eval function: its arity, its reference route (called with the
# values) and its integral route (called with the values and the quadrature
# config, returning an IntegralEstimate).
_EVAL = {
    "gamma": (1, gamma_reference, gamma_integral),
    "lgamma": (1, log_gamma, log_gamma_integral),
    "beta": (2, beta_closed, beta_integral),
    "symbol": (3, euler_symbol_closed, euler_symbol),
    "loggamma_integral": (1, lambda s: gamma_reference(nonnegative(s, "s") + 1.0),
                          gamma_log_integral),
}

# Every parameter axis of the identity table, in order of first use; each is
# a --<axis> flag of verify and suite, its text validated by the row's
# converter.
_AXES = tuple(dict.fromkeys(axis for spec in IDENTITIES.values() for axis in spec.axes))


def _add_config_flags(sub):
    group = sub.add_argument_group("quadrature options")
    group.add_argument("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol, metavar="TOL")
    group.add_argument("--max-refinements", type=int, default=DEFAULT_CONFIG.max_refinements,
                       metavar="N", help="step halvings allowed past the coarsest level, "
                                         f"1..{MAX_REFINEMENTS}; each doubles the nodes")


def _config_from(args):
    # QuadratureConfig validates; ValueError maps to a usage error in main().
    return QuadratureConfig(rel_tol=args.rel_tol, max_refinements=args.max_refinements)


def _tolerance(text):
    """argparse type for a pass tolerance: a positive finite number."""
    try:
        return positive(text, "tolerance")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="eulergamma",
        description="Evaluate gamma/beta functions and verify classical gamma identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one function at given arguments")
    p_eval.add_argument("function", choices=sorted(_EVAL))
    p_eval.add_argument("values", nargs="+", type=float, metavar="VALUE")
    p_eval.add_argument("--engine", choices=("reference", "integral"), default="reference")
    _add_config_flags(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run one identity check")
    p_verify.add_argument("identity", metavar="IDENTITY")
    for axis in _AXES:
        p_verify.add_argument(f"--{axis}", default=None,
                              choices=MODES if axis == "mode" else None)
    p_verify.add_argument("--tol", type=_tolerance, default=None,
                          help="override the identity's default tolerance")
    _add_config_flags(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_suite = sub.add_parser("suite", help="run identity checks over parameter grids")
    p_suite.add_argument("--identities", default=None, metavar="ID,ID,...",
                         help="restrict to a comma-separated subset")
    for axis in _AXES:
        p_suite.add_argument(f"--{axis}", default=None, metavar="LIST",
                             help=f"override the {axis} axis: comma list and/or "
                                  "lo..hi integer ranges")
    p_suite.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_suite.add_argument("--tol", action="append", default=[], metavar="ID=TOL",
                         help="per-identity tolerance override, repeatable")
    p_suite.add_argument("--out", default=None, metavar="PATH",
                         help="write the report to PATH instead of standard output")
    _add_config_flags(p_suite)
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def _cmd_eval(args, parser):
    arity, reference, integral = _EVAL[args.function]
    if len(args.values) != arity:
        parser.error(f"{args.function} takes {arity} value(s), got {len(args.values)}")
    config = _config_from(args)
    if args.engine == "reference":
        estimate, value = None, reference(*args.values)
    else:
        estimate = integral(*args.values, config)
        value = estimate.value
    if not math.isfinite(value):
        raise DomainError(_NOT_FINITE)
    print(format(value, ".15g"))
    if estimate is not None and not estimate.converged:
        print(
            f"warning: quadrature did not converge "
            f"(error estimate {estimate.error_estimate:.3e})",
            file=sys.stderr,
        )
        return EXIT_FAIL
    return EXIT_OK


def _cmd_verify(args, parser):
    identity_id = args.identity
    if identity_id not in IDENTITIES:
        parser.error(
            f"unknown identity {identity_id!r} (known: {', '.join(sorted(IDENTITIES))})"
        )
    spec = IDENTITIES[identity_id]
    for axis in _AXES:
        if axis not in spec.axes and getattr(args, axis) is not None:
            parser.error(f"identity '{identity_id}' does not take --{axis}")
    params = {}
    for axis, convert in spec.axes.items():
        raw = getattr(args, axis)
        if raw is None:
            if axis != "mode":
                parser.error(f"identity '{identity_id}' requires --{axis}")
            raw = MODES[0]
        params[axis] = convert(raw, axis)
    config = _config_from(args)
    start = time.perf_counter()
    report = spec.run(params, args.tol, config)
    sys.stdout.write(render_report(report, time.perf_counter() - start))
    return EXIT_OK if report.passed else EXIT_FAIL


def _parse_axis_values(axis, text, parser):
    """Split `1,2.5,7` / `2..12` / mixes of both into a value list; single
    values stay text, for the identity's converter to validate."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." in chunk:
            lo_text, _, hi_text = chunk.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                parser.error(f"--{axis}: ranges need integer endpoints, got {chunk!r}")
            if hi < lo:
                parser.error(f"--{axis}: empty range {chunk!r}")
            if hi - lo >= MAX_N:
                parser.error(f"--{axis}: range {chunk!r} is longer than {MAX_N} values")
            values.extend(float(v) for v in range(lo, hi + 1))
        else:
            values.append(chunk)
    return values


def _parse_tolerances(entries, parser):
    tolerances = {}
    for entry in entries:
        for piece in entry.split(","):
            name, sep, text = piece.partition("=")
            if not sep:
                parser.error(f"--tol expects ID=VALUE, got {piece!r}")
            try:
                tolerances[name.strip()] = _tolerance(text)
            except argparse.ArgumentTypeError as exc:
                parser.error(f"--tol {name}: {exc}")
    return tolerances


def _cmd_suite(args, parser):
    identities = None
    if args.identities is not None:
        identities = [name.strip() for name in args.identities.split(",")]
    axis_values = {}
    for axis in _AXES:
        raw = getattr(args, axis)
        if raw is not None:
            axis_values[axis] = _parse_axis_values(axis, raw, parser)
    tolerances = _parse_tolerances(args.tol, parser)
    config = _config_from(args)
    grid = build_grid(identities, axis_values)
    suite = run_suite(grid, config, tolerances)
    text = render_suite(suite, args.format)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    for report in suite.reports:
        if report.error is not None:
            print(f"error: {report.identity_id} {params_string(report.params)}: {report.error}",
                  file=sys.stderr)
    return EXIT_OK if suite.n_fail == 0 else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except NonFiniteIntegrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # DomainError and config validation both land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # gamma_reference and other closed forms raise it, as math.gamma does
        print(f"error: {_NOT_FINITE}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
