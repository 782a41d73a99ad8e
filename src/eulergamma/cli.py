"""Command-line interface.

Examples:
    eulergamma eval gamma 0.5
    eulergamma eval symbol 1 1 2 --engine integral
    eulergamma verify gauss-multiplication --n 5 --x 3.7
    eulergamma verify reflection --x 0.25
    eulergamma verify factorial-root -h
    eulergamma suite --format json --out report.json
    eulergamma suite --identities sine-product --n 2..40

argparse checks the whole command line.  ``verify`` takes the identity's
name, then that identity's flags, which a parser built from its
``IDENTITIES`` row reads: one required ``--<axis>`` per axis, but ``--mode``,
which defaults to ``closed``, and ``--tol``; ``verify IDENTITY -h`` lists
them.  A flag written before the identity's name is refused with a message
saying IDENTITY comes first, since argparse would read the flag's value as
the name.  ``suite``'s lists are split and its ranges expanded by argparse
``type`` functions.  A --flag followed by a negative value that argparse
would read as a flag, such as ``-1e200`` or ``-inf``, is passed to it as
``--flag=value``, so a phi a report prints can be given back; such a value
among ``eval``'s VALUEs is read as one, and reaches its engine.

Exit codes: 0 success / all checks passed; 1 failed check, unconverged
quadrature or non-finite integrand; 2 usage error (argparse's message),
domain error or a result past the double-precision range; 3 I/O error.

``eval`` needs only the engines.  The identity layer and the renderers are
imported by the verify and suite handlers, and by the code that adds those
two commands' arguments, which ``main`` skips when its first argument names
another command; so ``eval`` loads neither.
"""

import argparse
import math
import re
import sys

from .beta import beta_closed, beta_integral, euler_symbol, euler_symbol_closed
from .errors import (
    NOT_FINITE,
    DomainError,
    NonFiniteIntegrandError,
    nonnegative,
    positive,
)
from .gamma import (
    MAX_N,
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    log_gamma,
    log_gamma_integral,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# One row per eval function: its arity, its reference route and its integral
# route, each called with the values; the integral route returns an
# IntegralEstimate.
_EVAL = {
    "gamma": (1, gamma_reference, gamma_integral),
    "lgamma": (1, log_gamma, log_gamma_integral),
    "beta": (2, beta_closed, beta_integral),
    "symbol": (3, euler_symbol_closed, euler_symbol),
    "loggamma_integral": (1, lambda s: gamma_reference(nonnegative(s, "s") + 1.0),
                          gamma_log_integral),
}


def _axes():
    """Every parameter axis of the identity table, in order of first use; each
    is a --<axis> flag of suite, its values validated by each row's
    converter."""
    from .identities import IDENTITIES

    return tuple(dict.fromkeys(axis for spec in IDENTITIES.values() for axis in spec.axes))


def _tolerance(text, name="tolerance"):
    """argparse type for a pass tolerance: a positive finite number."""
    try:
        return positive(text, name)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _tolerances(text):
    """argparse type for suite's --tol: ID=TOL[,ID=TOL...] as (ID, TOL) pairs."""
    pairs = []
    for piece in text.split(","):
        name, sep, value = piece.partition("=")
        if not sep:
            raise argparse.ArgumentTypeError(f"expects ID=VALUE, got {piece!r}")
        name = name.strip()
        pairs.append((name, _tolerance(value, f"tolerance for {name}")))
    return pairs


def _names(text):
    """argparse type for suite's --identities: a comma-separated name list."""
    return [name.strip() for name in text.split(",")]


def _axis_values(text):
    """argparse type for a suite --<axis> list: `1,2.5,7` / `2..12` / mixes
    of both; single values stay text, for the identity's converter to
    validate.  A range that would take the list past MAX_N values, the case
    cap of a grid, is refused before it is expanded."""
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if ".." not in chunk:
            values.append(chunk)
            continue
        lo_text, _, hi_text = chunk.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"ranges need integer endpoints, got {chunk!r}") from None
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {chunk!r}")
        if hi - lo >= MAX_N:
            raise argparse.ArgumentTypeError(f"range {chunk!r} is longer than {MAX_N} values")
        if len(values) + hi - lo >= MAX_N:
            raise argparse.ArgumentTypeError(f"range {chunk!r} takes the list past {MAX_N} values")
        values.extend(float(v) for v in range(lo, hi + 1))
    return values


def _fill_eval(p_eval):
    p_eval.add_argument("function", choices=sorted(_EVAL))
    p_eval.add_argument("values", nargs="+", type=float, metavar="VALUE")
    p_eval.add_argument("--engine", choices=("reference", "integral"), default="reference")
    p_eval.set_defaults(handler=_cmd_eval)


def _fill_verify(p_verify):
    from .identities import IDENTITIES

    p_verify.add_argument("identity", metavar="IDENTITY", choices=IDENTITIES,
                          help=f"one of: {', '.join(IDENTITIES)}")
    p_verify.add_argument("flags", nargs=argparse.REMAINDER,
                          help="the identity's flags; 'verify IDENTITY -h' lists them")
    p_verify.set_defaults(handler=_cmd_verify)


def _row_parser(identity_id):
    """verify's parser for one identity's flags: a required --<axis> per axis
    of its row, but --mode, which defaults to the first of MODES, and --tol.
    No flag may be abbreviated, so another row's --p is not read as --phi."""
    from .identities import IDENTITIES, MODES

    parser = argparse.ArgumentParser(prog=f"eulergamma verify {identity_id}",
                                     allow_abbrev=False)
    for axis in IDENTITIES[identity_id].axes:
        if axis == "mode":
            parser.add_argument("--mode", choices=MODES, default=MODES[0])
        else:
            parser.add_argument(f"--{axis}", required=True)
    parser.add_argument("--tol", type=_tolerance, help="override the identity's default tolerance")
    return parser


def _fill_suite(p_suite):
    p_suite.add_argument("--identities", type=_names, default=None, metavar="ID,ID,...",
                         help="restrict to a comma-separated subset")
    for axis in _axes():
        p_suite.add_argument(f"--{axis}", type=_axis_values, default=argparse.SUPPRESS,
                             metavar="LIST",
                             help=f"override the {axis} axis: comma list and/or "
                                  "lo..hi integer ranges")
    p_suite.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_suite.add_argument("--tol", type=_tolerances, action="extend", default=[],
                         metavar="ID=TOL", help="per-identity tolerance override, repeatable")
    p_suite.add_argument("--out", default=None, metavar="PATH",
                         help="write the report to PATH instead of standard output")
    p_suite.set_defaults(handler=_cmd_suite)


# Each command: its help line and the function that adds its arguments.
_COMMANDS = {
    "eval": ("evaluate one function at given arguments", _fill_eval),
    "verify": ("run one identity check", _fill_verify),
    "suite": ("run identity checks over parameter grids", _fill_suite),
}


def _build_parser(command=None):
    """The parser; every command is listed, but when ``command`` names one,
    only that command gets its arguments, since no other can be parsed."""
    parser = argparse.ArgumentParser(
        prog="eulergamma",
        description="Evaluate gamma/beta functions and verify classical gamma identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in _COMMANDS.items():
        sub_parser = sub.add_parser(name, help=help_text)
        if command not in _COMMANDS or command == name:
            fill(sub_parser)
    return parser


def _cmd_eval(args, parser):
    arity, reference, integral = _EVAL[args.function]
    if len(args.values) != arity:
        parser.error(f"{args.function} takes {arity} value(s), got {len(args.values)}")
    if args.engine == "reference":
        estimate, value = None, reference(*args.values)
    else:
        estimate = integral(*args.values)
        value = estimate.value
    if not math.isfinite(value):
        raise DomainError(NOT_FINITE)
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
    import time

    from .identities import IDENTITIES
    from .reporting import render_report

    flags = _row_parser(args.identity).parse_args(args.flags)
    spec = IDENTITIES[args.identity]
    params = {axis: convert(getattr(flags, axis), axis) for axis, convert in spec.axes.items()}
    start = time.perf_counter()
    report = spec.run(params, flags.tol)
    sys.stdout.write(render_report(report, time.perf_counter() - start))
    return EXIT_OK if report.passed else EXIT_FAIL


def _cmd_suite(args, parser):
    # Imported per call: a tracer may have replaced these since the last one.
    from .identities import build_grid, run_suite
    from .reporting import params_string, render_suite

    axis_values = {axis: getattr(args, axis) for axis in _axes() if hasattr(args, axis)}
    suite = run_suite(build_grid(args.identities, axis_values), dict(args.tol))
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


def _join_negative_values(argv):
    """``argv`` with each negative number made a value: argparse reads "-2"
    and "-0.5" as numbers, but "-1e5" and "-inf" as flags.  One that follows
    a --flag is joined to it as --flag=value; any other one under ``eval``
    is written after a space, and argparse reads a token that does not start
    with "-" as a value, which ``float`` reads as if the space were not
    there.  The pattern is compiled only when a token starts with one "-",
    so a command line without one pays nothing."""
    joined = []
    for token in argv:
        if token[:1] == "-" and token[1:2] != "-" \
                and re.match(r"-(\.?\d|inf|nan)", token, re.IGNORECASE):
            flag = joined[-1] if joined else ""
            if flag.startswith("--") and "=" not in flag and flag not in ("--", "--help"):
                joined[-1] += "=" + token
                continue
            if argv[0] == "eval":
                token = " " + token
        joined.append(token)
    return joined


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(argv[0] if argv else None)
    if argv[:1] == ["verify"] and len(argv) > 1 and argv[1].startswith("-") \
            and argv[1] not in ("-h", "--help", "--"):
        # argparse would set the flag aside and read its value as IDENTITY.
        parser.error(f"verify: IDENTITY comes before its flags, as in "
                     f"'eulergamma verify reflection --x 0.25'; got {argv[1]!r} first")
    args = parser.parse_args(_join_negative_values(argv))
    try:
        return args.handler(args, parser)
    except NonFiniteIntegrandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # DomainError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverflowError:
        # gamma_reference and other closed forms raise it, as math.gamma does
        print(f"error: {NOT_FINITE}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
