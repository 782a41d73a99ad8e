"""Classical gamma-function identities as checkable LHS/RHS pairs.

Every check evaluates both sides of one identity independently, measures the
residual, and returns an IdentityReport; run_suite drives all checks over
parameter grids and aggregates.  A report is a value of the identity, its
parameters and the tolerance alone: equal inputs give equal reports, and
nothing in one is timed.

``IDENTITIES`` holds one ``IdentitySpec`` row per identity: its check, axes,
default grid, default tolerance and work axis.  The row's ``run`` is the
check function itself, which ``run_suite`` and ``verify`` call with a case's
params as keywords.  ``default_tolerance``, ``build_grid``, ``run_suite`` and
the command line's ``--<axis>`` flags all read the rows.  Adding an identity
takes one check function, one row and the function's name in
``eulergamma.__all__``, which the package's lazy ``__getattr__`` reads; the
benchmark's tracer lists the ids in its own ``IDENTITY_IDS``, which a test
pins at these twelve, so that list changes too until it is read from the
rows.

Conventions shared by all checks:

* Products of gamma values and powers of n are accumulated in log space with
  ``math.fsum`` (exactly rounded, hence independent of term order); direct
  products would overflow binary64 once n*x grows past ~170.
* All but sine-multiple-angle report logs: lhs/rhs are the natural logs of
  the two sides and the residuals are log-space residuals.  Their sides are
  products of positive gamma, beta and S(p, q; n) values, which shrink or
  grow geometrically in n, so a linear comparison would meet the near-zero
  rule below and pass on any sides small enough: with the integral doubled,
  symbol-bridge at S(200, 200; 2), both sides about 1e-61, read
  rel_residual 0.5 and passed.  sine-multiple-angle, whose sides change
  sign, reports linear values.
* The log gamma terms of the gamma products and of factorial-root are
  evaluated one batch per side: each side passes all its log gamma
  arguments to ``gamma.log_gamma_terms`` as one list, and only the
  log gamma(i/n) table and a subnormal quotient's term are taken apart from
  it.  Gauss's shifted terms log gamma((x + k)/n), k = 0..n-1, are one
  ``_gauss_terms`` batch for gauss-multiplication and factorial-root
  alike, which holds the subnormal rule and takes k from a stored float
  column (``_shift_column``).  The arguments are positive by construction,
  so the per-call check is skipped.  Each term is ``math.lgamma``'s float,
  CPython's own Lanczos engine, while the single
  log gamma terms (gauss-multiplication's log gamma(x), factorial-root's
  log gamma(m/n + 1) in closed mode and its right side's log gamma(m) in
  quadrature mode, log-integral-product's log gamma(n) and
  algebraic-interpolation's log gamma(p + 1)) come from the g = 7
  ``log_gamma``.  So no check compares one log gamma engine with itself:
  gauss-multiplication (with duplication) and both factorial-root modes put
  one engine on each side, and reflection and the gamma fraction and square
  products have log gamma terms on one side only.  The
  table log gamma(i/n), i = 1..n-1, is kept in ``_fraction_tables``, keyed
  on n <= FRACTION_TABLE_MAX_N (1024), for the life of the process and
  shared by every check that needs it, in or outside a run: 8 bytes per
  term, at most 4.2 MB.  A larger n's table is computed by each call that
  needs it and kept by none.
* The log of an n-th root is the fsum of the radicand's log terms divided by
  n once; every radicand on the supported domain is a product of positive
  reals, so there is no branch to pick.
* A quadrature value that underflowed to 0 has no finite log: its check
  raises DomainError rather than report -inf.
* A quotient x/n below the smallest normal double is rounded to fewer bits
  than x has, so the log of gauss-multiplication's smallest term and of
  factorial-root's m/n is taken there as log x - log n
  (``_log_quotient``).  One that underflows to 0 is refused.
* rel_residual = |lhs - rhs| / max(|lhs|, |rhs|, 1e-300) and abs_residual =
  |lhs - rhs| are both reported.  A log-space check passes when
  abs_residual <= tolerance: a difference of logs is already the relative
  error of the two linear products, so it needs no scaling by |log|, which
  would loosen the rule where the log is large and blow it up where the log
  nears 0.  Rounding alone, though, puts
  a few ulps of each log term into abs_residual, more than 1e-10 once the
  logs pass about 10^6 (log gamma(1e6) = 1.28e7, whose ulp is 1.9e-9).  So
  a log-space check also passes when abs_residual is within 8 eps S, S the
  summed magnitude of the log terms of both sides, and rel_residual <=
  tolerance: where rounding is all the logs can resolve, the rule is the
  relative one, and it is never looser than it.  (Over 4,000 sampled
  checks, n up to 10^5 and x up to 10^300, abs_residual stayed within
  1.1 eps S wherever S > 1000, and within 6.8 eps S overall.)
  sine-multiple-angle passes when rel_residual <= tolerance alone: it
  reduces phi exactly (see its docstring), so each side is relatively
  accurate, next to a zero of sin(n phi) too.  Below _TINY = 1e-300 the
  denominator is _TINY, so there the rule is absolute, |lhs - rhs| <=
  tolerance * 1e-300, which subnormal sides meet.
* Checks that integrate also require every quadrature to have converged;
  a nonconverged estimate fails the report even if the residual looks small.
"""

import itertools
import math
import operator
import sys
from array import array
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

from .beta import beta_integral, euler_symbol, log_beta
from .errors import NOT_FINITE, DomainError, finite, integer, number, positive
from .gamma import MAX_N, gamma_log_integral, log_gamma, log_gamma_terms
from .quadrature import suite_memo

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(math.tau)

# Rounding allowance of the log-space pass rule, per unit of the summed
# magnitude of the log terms of both sides.
_LOG_ROUNDING = 8.0 * sys.float_info.epsilon

# ``MAX_N`` (from ``gamma``) is the largest n the product checks accept, and
# largest q of algebraic-interpolation; the symbol checks meet the same cap
# on n in ``euler_symbol``.  Their work grows linearly in n (or q); the cap
# turns a mistyped n such as 1e30 into a DomainError instead of a loop that
# never ends, and sits far above any grid in use (the widest benchmark grid
# stops at n = 120).

# Bounds on a whole grid, checked before it is expanded.  Most checks do
# work in proportion to one axis, the row's ``work_axis`` (n for the product
# checks, q for algebraic-interpolation), so that axis summed over the cases
# may be at most MAX_GRID_N (the default grid asks for 4,386); the case count
# is capped on its own because a grid with no work axis passes that budget.
MAX_GRID_N = 10_000_000
MAX_GRID_CASES = 100_000

_TINY = 1e-300

# The values of factorial-root's ``mode`` axis; the first is the default.
MODES = ("closed", "quadrature")


def _mode_axis(value, name="mode"):
    mode = str(value)
    if mode not in MODES:
        raise DomainError(f"{name} must be {' or '.join(map(repr, MODES))}")
    return mode


def default_tolerance(identity_id: str, mode: str = "closed") -> float:
    """The built-in pass tolerance for one identity, read from its row.

    ``mode`` matters only to a row whose tolerance is a mapping by mode
    (factorial-root); a mode outside ``MODES`` reads as the first.
    """
    tolerance = _row_of(identity_id).tolerance
    if isinstance(tolerance, float):
        return tolerance
    return tolerance[mode if mode in MODES else MODES[0]]


def _resolved(tolerance, identity_id, params):
    """``tolerance``, or the identity's default at ``params`` when it is None."""
    if tolerance is None:
        return default_tolerance(identity_id, params.get("mode", MODES[0]))
    return tolerance


class IdentityReport(NamedTuple):
    """Outcome of checking one identity at one parameter point.

    ``error`` is set only on the report of a check that raised: the
    exception's class and message, as ``"DomainError: x must ..."``.
    """

    identity_id: str
    params: Mapping[str, object]
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    tolerance: float
    passed: bool
    error: str | None = None


class SuiteReport(NamedTuple):
    """All reports of one suite run, in deterministic order."""

    reports: tuple
    n_pass: int
    n_fail: int
    config_echo: Mapping[str, object]


def _report(identity_id, params, lhs, rhs, tolerance, aux_ok=True, log_terms=None):
    """Assemble a report; ``aux_ok`` folds in side conditions (quadrature
    convergence) that must hold for a pass.  ``log_terms``, given when the
    sides are logs, is the pair of their term lists; such sides pass on the
    absolute residual, or on the relative one where the absolute residual is
    within rounding of the terms' summed magnitude, which is summed only
    when the absolute rule fails.  Linear sides, sine-multiple-angle's
    alone, pass on the relative residual.  A ``tolerance`` of None is the
    identity's default."""
    tolerance = _resolved(tolerance, identity_id, params)
    abs_residual = abs(lhs - rhs)
    rel_residual = abs_residual / max(abs(lhs), abs(rhs), _TINY)
    if log_terms is not None:
        passed = abs_residual <= tolerance or (rel_residual <= tolerance and abs_residual <=
            _LOG_ROUNDING * (sum(map(abs, log_terms[0])) + sum(map(abs, log_terms[1]))))
    else:
        passed = rel_residual <= tolerance
    # A side that is nan or infinite makes a nan or inf residual, which
    # fails every comparison above.
    passed = bool(passed and aux_ok)
    return IdentityReport(identity_id, params, lhs, rhs, abs_residual, rel_residual, tolerance,
                          passed)


def _fsum(terms):
    """``math.fsum`` of log terms.  A sum that overflows, as one holding
    log gamma(x) does past about x = 1e305, raises DomainError: the identity
    is not false there, it is past what a double can hold."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # partial sums overflowed, or inf - inf
        raise DomainError(NOT_FINITE) from None
    if not math.isfinite(total):
        raise DomainError(NOT_FINITE)
    return total


def _log_values(estimates):
    """(the logs of the quadrature values, whether every quadrature
    converged), taking ``estimates`` one at a time as they are produced.  A
    value whose log is not finite raises DomainError before any later
    estimate is computed: one that underflowed to 0, or one past the double
    range, as ``gamma_log_integral`` returns past Gamma's."""
    logs, converged = [], True
    for estimate in estimates:
        if estimate.value <= 0.0:
            raise DomainError("an integral underflowed to 0 in double precision")
        if estimate.value == math.inf:
            raise DomainError(NOT_FINITE)
        logs.append(math.log(estimate.value))
        converged = converged and estimate.converged
    return logs, converged


def _log_report(identity_id, params, lhs_terms, rhs_terms, tolerance, aux_ok=True):
    """Report on sides given as lists of log terms: each side is their
    ``_fsum``, and the terms are the ``log_terms`` of its rounding rule."""
    return _report(identity_id, params, _fsum(lhs_terms), _fsum(rhs_terms), tolerance, aux_ok,
                   log_terms=(lhs_terms, rhs_terms))


# The store of log gamma(i/n) tables (see the module docstring).  A fixed
# bound on n rather than an eviction rule: run_suite visits factorial-root
# cases by m, then n, so a wide sweep meets each n once per m, and an
# evicted table would be rebuilt for every m.  Past the bound that is what
# happens, and is accepted: every check that needs a table with n > 1024
# builds it, which about doubles a closed factorial-root case's log gamma
# work there (factorial-root m = 1..10 with the two fraction-product checks
# at n = 5000 takes 137 ms where a table kept per run took 65 ms).  No
# built-in or benchmark grid goes past n = 120.
FRACTION_TABLE_MAX_N = 1024
_fraction_tables = {}


def _log_gamma_fractions(n):
    """log gamma(1/n), log gamma(2/n), ..., log gamma((n-1)/n), as an
    ``array('d')`` (8 bytes per term; callers only read it).

    Read from ``_fraction_tables`` when n <= FRACTION_TABLE_MAX_N, computed
    afresh otherwise.  A table is stored only once complete, so two threads
    racing to build one get equal tables.
    """
    table = _fraction_tables.get(n)
    if table is None:
        table = array("d", log_gamma_terms(i / n for i in range(1, n)))
        if n <= FRACTION_TABLE_MAX_N:
            _fraction_tables[n] = table
    return table


def _log_quotient(a, n):
    """log(a / n).  A subnormal quotient keeps fewer bits than a, and its log
    is off by up to its rounding, so there it is log a - log n; a normal
    quotient is logged as it is."""
    quotient = a / n
    if quotient < sys.float_info.min:
        return math.log(a) - math.log(n)
    return math.log(quotient)


def check_reflection(x: float, tolerance: float | None = None) -> IdentityReport:
    """gamma(x) * gamma(1-x) = pi / sin(pi x), for x in (0, 1).

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    x = number(x, "x")
    if not (math.isfinite(x) and 0.0 < x < 1.0):
        raise DomainError("x must lie in (0,1)")
    # sin(pi x) = sin(pi t) with t the smaller of x and 1 - x (exact for
    # x >= 0.5).  Near x = 1, math.pi * x misses pi x by up to a few 1e-16, a
    # large error beside sin's small value there.  Below t = 1e-9, sin(pi t)
    # is pi t to 2e-18 relative, and pi t loses bits once it is subnormal,
    # so log sin(pi t) is taken as log pi + log t.
    t = min(x, 1.0 - x)
    if t < 1e-9:
        rhs_terms = [-math.log(t)]
    else:
        rhs_terms = [_LN_PI, -math.log(math.sin(math.pi * t))]
    return _log_report("reflection", {"x": x}, log_gamma_terms((x, 1.0 - x)), rhs_terms,
                       tolerance)


# The floats 0.0, 1.0, ..., n - 1 for the largest n Gauss's terms were asked
# for, at most MAX_N (3.2 MB), kept for the life of the process.  An int
# below 2^53 converts to a double exactly, so (x + k)/float(n) is the double
# (x + k)/n gives, without CPython's mixed int and float arithmetic per
# term.  A longer column replaces it whole, in one assignment, so a thread
# reads a complete column or its predecessor.
_shift_column = []


def _gauss_terms(x, n, *extra):
    """log gamma((x + k)/n) for k = 0..n-1, then log gamma of each of
    ``extra``, as one ``log_gamma_terms`` batch.  The arguments are
    (x + k)/float(n) over the stored float column of k, the same doubles
    as (x + k)/n with int k and n.  Below the smallest normal double
    gamma(q) = gamma(q + 1)/q with q + 1 rounding to 1, so a subnormal
    x/n's term is -``_log_quotient``."""
    global _shift_column
    column = _shift_column
    if len(column) < n:
        column = _shift_column = [float(k) for k in range(n)]
    fn = float(n)
    args = [(x + k) / fn for k in column[:n]]
    terms = log_gamma_terms(args + list(extra))
    if args[0] < sys.float_info.min:
        terms[0] = -_log_quotient(x, n)
    return terms


def check_gauss_multiplication(x: float, n: int,
                               tolerance: float | None = None) -> IdentityReport:
    """gamma(x/n) gamma((x+1)/n) ... gamma((x+n-1)/n) = (2 pi)^((n-1)/2) n^(1/2-x) gamma(x).

    Compared in log space; lhs/rhs are the logs of the two sides.  n = 1
    degenerates to gamma(x) = gamma(x).
    """
    x = positive(x, "x")
    n = integer(n, "n", 1, MAX_N)
    # the smallest term, x/n, can underflow to 0 for a subnormal x
    positive(x / n, "x / n")
    lhs_terms = _gauss_terms(x, n)
    rhs_terms = [0.5 * (n - 1) * _LN_2PI, (0.5 - x) * math.log(n), log_gamma(x)]
    return _log_report("gauss-multiplication", {"n": n, "x": x}, lhs_terms, rhs_terms, tolerance)


def check_duplication(x: float, tolerance: float | None = None) -> IdentityReport:
    """gamma(x/2) gamma((x+1)/2) = (2 pi)^(1/2) 2^(1/2-x) gamma(x).

    The n = 2 instance of the multiplication formula; the delegation makes
    the two checks agree bit for bit.
    """
    tolerance = _resolved(tolerance, "duplication", {})
    inner = check_gauss_multiplication(x, 2, tolerance=tolerance)
    return inner._replace(identity_id="duplication", params={"x": float(x)})


def _log_sines(n):
    """log sin(i pi/n) for i in 1..n-1, each taken as log sin(j pi/n) with
    j = min(i, n - i): sin(i pi/n) = sin((n - i) pi/n), and the smaller
    multiple of pi/n is the well-conditioned one, so the rounding of
    ``math.pi`` does not pile up in one direction over the upper half.  So
    the upper half is the lower half's floats in reverse, computed once."""
    half = [math.log(math.sin(j * math.pi / n)) for j in range(1, n // 2 + 1)]
    return half + half[:(n - 1) // 2][::-1]


def check_sine_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """sin(pi/n) sin(2 pi/n) ... sin((n-1) pi/n) = n / 2^(n-1), for n >= 2.

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    n = integer(n, "n", 2, MAX_N)
    lhs_terms = _log_sines(n)
    rhs_terms = [math.log(n), (1 - n) * _LN_2]
    return _log_report("sine-product", {"n": n}, lhs_terms, rhs_terms, tolerance)


# floor(pi 2^_BITS): pi in fixed point, to reduce sine arguments exactly.
_BITS = 1280
_PI = 0x3243f6a8885a308d313198a2e03707344a4093822299f31d0082efa98ec4e6c89452821e638d01377be5466cf34e90c6cc0ac29b7c97c50dd3f84d5b5b54709179216d5d98979fb1bd1310ba698dfb5ac2ffd72dbd01adfb7b8e1afed6a267e96ba7c9045f12c7f9924a19947b3916cf70801f2e2858efc16636920d871574e69a458fea3f4933d7e0d95748f728eb658718bcd5882154aee7b54a41dc25a59b5


def _sin_quadrant(q, t):
    """sin(q pi/2 + t), as +-sin t or +-cos t.  ``math.sin`` and ``math.cos``
    are looked up at each call, so a test can replace them."""
    value = (math.cos if q % 2 else math.sin)(t)
    return -value if q % 4 >= 2 else value


def check_sine_multiple_angle(n: int, phi: float,
                              tolerance: float | None = None) -> IdentityReport:
    """sin(n phi) = 2^(n-1) * product over k in 0..n-1 of sin(phi + k pi/n).

    The uniform product runs over phi + k pi/n; the alternating-sign pairing
    seen in older statements is the same thing because
    sin((n-k) pi/n + phi) = sin(k pi/n - phi).

    phi is reduced once, exactly, in fixed point with ``_BITS`` fraction
    bits (Payne and Hanek's reduction): phi = m pi/(2n) + rho, |rho| <=
    pi/(4n).  So n phi = m pi/2 + n rho, and phi + k pi/n = q pi/2 +
    j pi/(2n) + rho with |j| <= n/2, and each sine is +-sin or +-cos of an
    argument of at most about pi/4.  rho is off by less than m 2^-_BITS <=
    2^(1040 - _BITS), since m < 2^1040 for every finite phi and n <= MAX_N.
    So the factor next to a zero of sin(n phi), whose j is 0, takes rho
    itself, every other argument is at least pi/(4n) in size, and both
    sides are relatively accurate.

    Each factor's argument is j step + (j tail + rho), with step + tail =
    pi/(2n) and j step exact, so it is rounded about once: j fl(pi/(2n))
    would scale every argument by the same relative error, which put the
    product 1.4e-12 off at n = 72,748.  The product is kept as a mantissa in
    [0.5, 1) and a power of two, and each factor is split the same way
    before it is multiplied in, so no partial product underflows.
    """
    n = integer(n, "n", 1, MAX_N)
    phi = finite(phi, "phi")
    a, b = phi.as_integer_ratio()  # b divides 2^1074, so phi 2^_BITS is exact
    scale = 1 << _BITS
    unit = _PI // (2 * n)
    m, rest = divmod((a << _BITS) // b + unit // 2, unit)
    rest -= unit // 2
    m %= 4 * n
    lhs = _sin_quadrant(m, n * rest / scale)
    # pi/(2n) = step + tail, step to 36 bits, so that j step is exact for
    # every |j| <= n/2 < 2^16
    shift = unit.bit_length() - 36
    head = unit >> shift << shift
    step, tail, rho = head / scale, (unit - head) / scale, rest / scale
    rhs, exponent = 1.0, n - 1
    for k in range(n):
        q, j = divmod(m + 2 * k + n // 2, n)
        j -= n // 2
        mantissa, e = math.frexp(_sin_quadrant(q, j * step + (j * tail + rho)))
        rhs, e2 = math.frexp(rhs * mantissa)
        exponent += e + e2
    return _report("sine-multiple-angle", {"n": n, "phi": phi}, lhs,
                   math.ldexp(rhs, exponent), tolerance)


def check_gamma_square_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """product of gamma(i/n)^2 over i in 1..n-1 = pi^(n-1) / product of sin(i pi/n).

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    n = integer(n, "n", 2, MAX_N)
    lhs_terms = [2.0 * term for term in _log_gamma_fractions(n)]
    rhs_terms = [(n - 1) * _LN_PI, *map(operator.neg, _log_sines(n))]
    return _log_report("gamma-square-product", {"n": n}, lhs_terms, rhs_terms, tolerance)


def check_gamma_fraction_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """gamma(1/n) gamma(2/n) ... gamma((n-1)/n) = sqrt((2 pi)^(n-1) / n).

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    n = integer(n, "n", 2, MAX_N)
    lhs_terms = _log_gamma_fractions(n)
    rhs_terms = [0.5 * (n - 1) * _LN_2PI, -0.5 * math.log(n)]
    return _log_report("gamma-fraction-product", {"n": n}, lhs_terms, rhs_terms, tolerance)


def check_log_integral_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """product over k in 1..n-1 of integral_0^1 (-log x)^(k/n) dx
    = ((n-1)!/n^(n-1)) sqrt(2^(n-1) pi^(n-1) / n), for n >= 2.

    The left side is n-1 independent quadratures.  Compared in log space;
    lhs/rhs are the logs of the two sides.
    """
    n = integer(n, "n", 2, MAX_N)
    lhs_terms, converged = _log_values(gamma_log_integral(k / n) for k in range(1, n))
    rhs_terms = [log_gamma(float(n)), -(n - 1) * math.log(n), 0.5 * (n - 1) * _LN_2,
                 0.5 * (n - 1) * _LN_PI, -0.5 * math.log(n)]
    return _log_report("log-integral-product", {"n": n}, lhs_terms, rhs_terms, tolerance,
                       converged)


# Veltkamp's splitter 2^17 + 1 cuts a double into a head of at most 36 bits
# and a tail of at most 17, so k times either is exact for k < 2^17, which
# MAX_N keeps; the bounds keep 131073 v from overflowing and every part
# clear of the subnormal range.
_SPLITTER = 131073.0
_SPLIT_RANGE = (2.0 ** -960, 2.0 ** 1000)


def _repeated(v, k):
    """Terms whose exact sum is k v, k copies of v being what they stand for
    in a ``math.fsum``: k times v's Veltkamp head and tail, or v repeated k
    times where the split is not exact."""
    if k and _SPLIT_RANGE[0] < abs(v) < _SPLIT_RANGE[1]:
        c = _SPLITTER * v
        head = c - (c - v)
        return k * head, k * (v - head)
    return itertools.repeat(v, k)


def _factorial_root_log_inner(m, n, mode, batch):
    """Log of the radicand n^(n-m) gamma(m) S(1,m;n) S(2,m;n) ... S(n-1,m;n).

    Returns (log terms, all quadratures converged); the terms are an
    iterable to be summed once.  ``batch`` is ``_gauss_terms(m, n, m)``,
    Gauss's shifted terms at x = m with log gamma(m) appended.  In closed
    mode each symbol contributes
    log gamma(i/n) + log gamma(m/n) - log gamma((i+m)/n) - log n, through
    B(i/n, m/n)/n, all taken from ``batch``.
    The terms are grouped by kind rather than symbol by symbol, and the
    n-1 copies of log gamma(m/n) and of -log n, which do not depend on i,
    come as two exact products each (``_repeated``): their exact sum is
    that of the floats the per-symbol evaluation gives, so the terms'
    ``math.fsum`` is unchanged.  In quadrature mode each symbol is
    integrated directly.
    """
    log_n = math.log(n)
    if mode == "closed":
        return itertools.chain(
            ((n - m) * log_n, batch[n]), _log_gamma_fractions(n), _repeated(batch[0], n - 1),
            map(operator.neg, itertools.islice(batch, 1, n)), _repeated(-log_n, n - 1)), True
    terms = [(n - m) * log_n, log_gamma(m)]
    logs, converged = _log_values(euler_symbol(float(i), m, n) for i in range(1, n))
    return terms + logs, converged


def check_factorial_root(m: float, n: int, mode: str = "closed",
                         tolerance: float | None = None) -> IdentityReport:
    """(m/n)! = (m/n) (n^(n-m) gamma(m) S(1,m;n) ... S(n-1,m;n))^(1/n).

    The n-th-root reconstruction of the interpolated factorial from Euler
    symbols S(i, m; n); gamma(m) interpolates the (m-1)! that a natural m
    would contribute, and the formula holds for real m > 0.  In closed mode
    the left side is log gamma(m/n + 1) and the symbols come from the Beta
    closed form.  Quadrature mode checks the paper's equivalence of this
    root with Gauss's multiplication formula: the symbols are integrated
    directly, and the left side is the multiplication formula at x = m
    solved for gamma(m/n), with (2 pi)^((n-1)/2) eliminated through the
    fraction product: log(m/n) + log gamma(m) + (1 - m) log n
    + sum_i log gamma(i/n) - sum_k log gamma((m + k)/n), k = 1..n-1, its
    terms from the ``_gauss_terms`` batch closed mode takes.  Below
    m/n = 0.05 the symbols' endpoint at x = 1 is too weak for the quadrature
    to converge, and such a case fails.  Compared in log space; lhs/rhs are
    the logs of the two sides, and the log of the n-th root is the fsum of
    the radicand's log terms divided by n once.
    """
    m = positive(m, "m")
    n = integer(n, "n", 1, MAX_N)
    mode = _mode_axis(mode)
    # m / n underflows to 0 for a subnormal m
    lam = positive(m / n, "m / n")
    batch = _gauss_terms(m, n, m)
    terms, converged = _factorial_root_log_inner(m, n, mode, batch)
    log_quotient = _log_quotient(m, n)
    if mode == "closed":
        lhs_terms = [log_gamma(lam + 1.0)]
    else:
        lhs_terms = [log_quotient, batch[n], (1.0 - m) * math.log(n), *_log_gamma_fractions(n),
                     *map(operator.neg, batch[1:n])]
    params = {"m": m, "n": n, "mode": mode}
    return _log_report("factorial-root", params, lhs_terms,
                       [log_quotient, _fsum(terms) / n], tolerance, converged)


def check_algebraic_interpolation(p: int, q: int,
                                  tolerance: float | None = None) -> IdentityReport:
    """integral_0^1 (-log x)^(p/q) dx
    = (p! (2p/q+1)(3p/q+1)...(qp/q+1))^(1/q) * (prod_k integral_0^1 (x^k - x^(k+1))^(p/q) dx)^(1/q)

    with k running 1..q-1; natural p, q.  With s = p/q the k-th integral is
    integral_0^1 x^(ks) (1 - x)^s dx, so the right side takes a chained
    product of Beta integrals B(ks + 1, s + 1).  The left side is one
    quadrature and the right side chains q-1 more, so this is the loosest
    check in the set.  Compared in log space; lhs/rhs are the logs of the
    two sides.
    """
    p = integer(p, "p", 1)
    q = integer(q, "q", 1, MAX_N)
    s = p / q
    # logs[0] is the left side's integral, logs[1:] the right side's Betas
    logs, converged = _log_values(itertools.chain(
        [gamma_log_integral(s)], (beta_integral(k * s + 1.0, s + 1.0) for k in range(1, q))))
    terms = [log_gamma(p + 1.0), *logs[1:]]
    terms += [math.log(j * s + 1.0) for j in range(2, q + 1)]
    return _log_report("algebraic-interpolation", {"p": p, "q": q}, logs[:1],
                       [_fsum(terms) / q], tolerance, converged)


def check_symbol_symmetry(p: float, q: float, n: int,
                          tolerance: float | None = None) -> IdentityReport:
    """S(p, q; n) = S(q, p; n), both sides by direct quadrature.

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    (lhs, rhs), converged = _log_values(euler_symbol(a, b, n) for a, b in ((p, q), (q, p)))
    params = {"n": integer(n, "n", 1), "p": float(p), "q": float(q)}
    return _log_report("symbol-symmetry", params, [lhs], [rhs], tolerance, converged)


def check_symbol_bridge(p: float, q: float, n: int,
                        tolerance: float | None = None) -> IdentityReport:
    """S(p, q; n) by quadrature = B(p/n, q/n)/n in closed form.

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    p, q, n = positive(p, "p"), positive(q, "q"), integer(n, "n", 1, MAX_N)
    # p / n or q / n underflows to 0 for a subnormal p or q
    p_n, q_n = positive(p / n, "p / n"), positive(q / n, "q / n")
    lhs_terms, converged = _log_values([euler_symbol(p, q, n)])
    return _log_report("symbol-bridge", {"n": n, "p": p, "q": q}, lhs_terms,
                       [log_beta(p_n, q_n), -math.log(n)], tolerance, converged)


@dataclass(frozen=True)
class IdentitySpec:
    """Everything the suite knows about one identity.

    ``run`` is the identity's check function, called with one case's params
    as keywords and ``tolerance=``.  ``axes`` maps each parameter, in order,
    to its converter, called as ``converter(value, name)``.  ``grid`` is the
    default grid: a tuple of blocks of axis value lists, each expanded by
    product.  ``tolerance`` is the default pass tolerance, or a mapping from
    mode to it.  ``work_axis`` is the axis the check's work grows with, if
    any.

    This is the package's one dataclass: the benchmark's tracer swaps each
    row's ``run`` through ``dataclasses.replace``.  The report types are
    NamedTuples, which generate no code at import.
    """

    identity_id: str
    run: Callable
    axes: Mapping[str, Callable]
    grid: tuple
    tolerance: float | Mapping[str, float]
    work_axis: str | None = None


_X_GRID = [0.1, 0.5, 1.0, 2.5, 7.0, 19.3, 50.0]
_SYMBOL_AXES = {"p": finite, "q": finite, "n": integer}
_SYMBOL_GRID = ({"p": [1.0, 2.0, 3.0, 4.0, 5.0], "q": [1.0, 2.0, 3.0, 4.0, 5.0],
                 "n": [2, 3, 4, 5, 6]},)

# Each row: id, check, axes, default grid blocks, default tolerance, work
# axis.  Closed-form-only identities run at 1e-10; one layer of quadrature
# loosens that to 1e-7; the algebraic interpolation chains q-1 quadratures
# and gets 1e-6.  Conservative multiples of observed engine accuracy.
IDENTITIES = {spec.identity_id: spec for spec in (
    IdentitySpec("reflection", check_reflection, {"x": finite},
                 ({"x": sorted(set(i / 20 for i in range(1, 20)) | {1 / 2, 1 / 3, 1 / 4})},),
                 1e-12),
    IdentitySpec("gauss-multiplication", check_gauss_multiplication, {"n": integer, "x": finite},
                 ({"n": list(range(1, 13)), "x": _X_GRID},), 1e-10, "n"),
    IdentitySpec("duplication", check_duplication, {"x": finite}, ({"x": _X_GRID},), 1e-10),
    IdentitySpec("sine-product", check_sine_product, {"n": integer},
                 ({"n": list(range(2, 31))},), 1e-10, "n"),
    IdentitySpec("sine-multiple-angle", check_sine_multiple_angle, {"n": integer, "phi": finite},
                 ({"n": list(range(1, 11)), "phi": [0.3, 0.7, 1.1]},), 1e-10, "n"),
    IdentitySpec("gamma-square-product", check_gamma_square_product, {"n": integer},
                 ({"n": list(range(2, 26))},), 1e-10, "n"),
    IdentitySpec("gamma-fraction-product", check_gamma_fraction_product, {"n": integer},
                 ({"n": list(range(2, 51))},), 1e-10, "n"),
    IdentitySpec("log-integral-product", check_log_integral_product, {"n": integer},
                 ({"n": list(range(2, 9))},), 1e-7, "n"),
    IdentitySpec("factorial-root", check_factorial_root,
                 {"m": finite, "n": integer, "mode": _mode_axis},
                 ({"m": [float(m) for m in range(1, 11)] + [0.5, 7.3, 19.9],
                   "n": list(range(1, 9)), "mode": ["closed"]},
                  {"m": [float(m) for m in range(1, 6)], "n": list(range(2, 6)),
                   "mode": ["quadrature"]}),
                 {"closed": 1e-10, "quadrature": 1e-7}, "n"),
    IdentitySpec("algebraic-interpolation", check_algebraic_interpolation,
                 {"p": integer, "q": integer}, ({"p": [1, 2, 3, 4], "q": [1, 2, 3, 4]},),
                 1e-6, "q"),
    IdentitySpec("symbol-symmetry", check_symbol_symmetry, _SYMBOL_AXES, _SYMBOL_GRID, 1e-7, "n"),
    IdentitySpec("symbol-bridge", check_symbol_bridge, _SYMBOL_AXES, _SYMBOL_GRID, 1e-7, "n"),
)}


def _row_of(identity_id):
    """The row of ``identity_id`` at call time; DomainError if there is none."""
    try:
        return IDENTITIES[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity {identity_id!r}") from None


def _sortable(value):
    """A sort key for one parameter name or value that compares with any
    other's: real numbers by value, then anything else by its type's name,
    strings by themselves and the rest by repr.  A grid from ``build_grid``
    holds numbers of one type per axis and strings, which keep their order."""
    if isinstance(value, (int, float)) and value == value:
        return 0, value, type(value).__name__
    return 1, type(value).__name__, value if isinstance(value, str) else repr(value)


def params_key(params: Mapping) -> tuple:
    """Deterministic sort key that cannot fail: (name, value) pairs ordered
    by name, each taken through ``_sortable``."""
    return tuple(sorted([(_sortable(name), _sortable(value)) for name, value in params.items()]))


def _order_key(cases):
    """A sort key that orders ``cases`` as ``params_key`` does.  When every
    case is a dict with the same str names, at least one, and each name's
    values are all floats (none NaN), all ints or all strs, that is
    ``itemgetter`` of the sorted names, which ``params_key`` then reduces
    to; otherwise it is ``params_key``.  The test is a few C-level passes."""
    if set(map(type, cases)) != {dict}:
        return params_key
    names = cases[0].keys()
    if set(map(type, names)) != {str} or not all(map(names.__eq__, map(dict.keys, cases))):
        return params_key
    for name in names:
        column = list(map(operator.itemgetter(name), cases))
        kinds = set(map(type, column))
        if kinds not in ({float}, {int}, {str}) or (
                kinds == {float} and any(map(math.isnan, column))):
            return params_key
    return operator.itemgetter(*sorted(names))


def build_grid(identities=None, axis_values=None) -> dict:
    """Expand the default grid blocks into per-identity parameter lists.

    ``identities`` restricts to a subset; ``axis_values`` maps an axis name
    to a replacement value list that overrides the default wherever that
    axis occurs.  Duplicate parameter points collapse to one.

    Raises DomainError, before expanding any block, when the grid would hold
    more than MAX_GRID_CASES cases or its work axes (each row's
    ``work_axis``) summed over the cases would exceed MAX_GRID_N; both are
    counted before duplicates collapse.
    """
    if identities is None:
        identities = sorted(IDENTITIES)
    axis_values = axis_values or {}
    blocks = {}
    n_cases = work = 0
    work_axes = set()
    for identity_id in identities:
        spec = _row_of(identity_id)
        blocks[identity_id] = []
        for block in spec.grid:
            axes = {axis: [convert(v, axis) for v in axis_values.get(axis, block[axis])]
                    for axis, convert in spec.axes.items()}
            size = math.prod(len(values) for values in axes.values())
            n_cases += size
            if spec.work_axis is not None and size:
                # a case with a work value <= 0 is refused before it does work
                values = axes[spec.work_axis]
                work += sum(max(v, 0) for v in values) * (size // len(values))
                work_axes.add(spec.work_axis)
            blocks[identity_id].append(axes)
    if n_cases > MAX_GRID_CASES:
        raise DomainError(f"the grid has {n_cases} cases; at most {MAX_GRID_CASES} "
                          "are allowed")
    if work > MAX_GRID_N:
        raise DomainError(f"the grid's {' + '.join(sorted(work_axes))} sums to {work} "
                          f"over its cases; at most {MAX_GRID_N} is allowed")
    grid = {}
    for identity_id, axes_list in blocks.items():
        # every block lists the row's axes in the row's order, so equal
        # points have equal value tuples
        points = dict.fromkeys(itertools.chain.from_iterable(
            itertools.product(*axes.values()) for axes in axes_list))
        grid[identity_id] = [dict(zip(axes_list[0], point)) for point in points]
    return grid


def default_grid() -> dict:
    """The full built-in parameter grid, one list of param dicts per identity."""
    return build_grid()


def run_suite(grid: dict | None = None,
              tolerances: Mapping[str, float] | None = None) -> SuiteReport:
    """Run every check in ``grid`` (default: the full built-in grid).

    Reports come back sorted by identity_id, then by parameter values
    (``params_key``, which orders any values, of any types), no matter the
    order of the input.  A case list that ``build_grid`` could give, every
    case with the same names and each name's values of one type, float
    without NaN, int or str, is sorted by ``itemgetter`` of the sorted
    names instead, the order ``params_key`` gives at C speed
    (``_order_key``).  A check that raises is recorded as a
    failed report with NaN sides, and the exception in its ``error``, rather
    than aborting the suite.

    Within one run, equal family integrals (the same integrand and
    parameters) are computed once and shared by every check that needs
    them, so S(p, q; n) serves both symbol-symmetry and symbol-bridge.  The
    run's memo, ``quadrature.suite_memo``, is keyed on (family, p0, p1, p2),
    holds family integrals and nothing else, and ends with the run;
    calls outside a run never share an integral.  The stores that outlive a
    run, the log gamma(i/n) tables and Gauss's shift column (see the module
    docstring) and ``backend``'s node tables, keep what a rule on their key
    admits, whatever the run asks for.
    """
    if grid is None:
        grid = default_grid()
    tolerances = dict(tolerances or {})
    for identity_id, tol in tolerances.items():
        _row_of(identity_id)
        tolerances[identity_id] = positive(tol, f"tolerance for {identity_id}")
    if not any(grid.values()):
        raise DomainError("grid is empty")
    reports = []
    memo_token = suite_memo.set({})
    try:
        for identity_id in sorted(grid):
            spec = _row_of(identity_id)
            tol = tolerances.get(identity_id)
            cases = list(grid[identity_id])
            for params in sorted(cases, key=_order_key(cases)):
                try:
                    report = spec.run(**params, tolerance=tol)
                except Exception as exc:
                    report = IdentityReport(
                        identity_id=identity_id,
                        params=dict(params),
                        lhs=math.nan,
                        rhs=math.nan,
                        abs_residual=math.inf,
                        rel_residual=math.inf,
                        tolerance=_resolved(tol, identity_id, params),
                        passed=False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                reports.append(report)
    finally:
        suite_memo.reset(memo_token)
    n_pass = sum(1 for r in reports if r.passed)
    config_echo = {"grid": {identity_id: len(grid[identity_id]) for identity_id in sorted(grid)}}
    return SuiteReport(tuple(reports), n_pass, len(reports) - n_pass, config_echo)
