"""Classical gamma-function identities as checkable LHS/RHS pairs.

Every check evaluates both sides of one identity independently, measures the
residual, and returns an IdentityReport; run_suite drives all checks over
parameter grids and aggregates.  Conventions shared by all checks:

* Products of gamma values and powers of n are accumulated in log space with
  ``math.fsum`` (exactly rounded, hence independent of term order); direct
  products would overflow binary64 once n*x grows past ~170.
* Identities that are pure gamma products (gauss-multiplication, duplication,
  gamma-fraction-product, gamma-square-product) report lhs/rhs as the natural
  logs of the two sides and their residuals are log-space residuals.  All
  other checks report linear values.
* The log gamma terms of those products, and of closed-mode factorial-root
  and ``derivation_chain_values``, are evaluated in batches by
  ``gamma.log_gamma_terms``: the arguments are positive by construction, so
  the per-call check is skipped, and each term is the float ``log_gamma``
  gives.  The table log gamma(i/n), i = 1..n-1, depends on n alone; inside
  one ``run_suite`` it is computed once per n and shared by every check that
  needs it, and it is never kept past the run or between calls outside one.
  A run keeps 8 bytes per term of each distinct n it meets, at most 80 MB
  under the grid caps below (n summed over the cases <= MAX_GRID_N).
* n-th roots are computed as exp(log/n); every radicand on the supported
  domain is a product of positive reals, so there is no branch to pick.
* rel_residual = |lhs - rhs| / max(|lhs|, |rhs|, 1e-300) and abs_residual =
  |lhs - rhs| are both reported.  A linear check passes when rel_residual <=
  tolerance, except that sides both within 1e-6 of zero are compared
  absolutely (relative error is meaningless at a zero of the identity).  A
  log-space check passes when abs_residual <= tolerance: a difference of
  logs is already the relative error of the two linear products, so it
  needs no scaling by |log|, which would loosen the rule where the log is
  large and blow it up where the log nears 0.  Rounding alone, though, puts
  a few ulps of each log term into abs_residual, more than 1e-10 once the
  logs pass about 10^6 (log gamma(1e6) = 1.28e7, whose ulp is 1.9e-9).  So
  a log-space check also passes when abs_residual is within 8 eps S, S the
  summed magnitude of the log terms of both sides, and rel_residual <=
  tolerance: where rounding is all the logs can resolve, the rule is the
  relative one, and it is never looser than it.  (Over 4,000 sampled
  checks, n up to 10^5 and x up to 10^300, abs_residual stayed within
  1.1 eps S wherever S > 1000, and within 6.8 eps S overall.)
* Checks that integrate also require every quadrature to have converged;
  a nonconverged estimate fails the report even if the residual looks small.
"""

import itertools
import math
import sys
import time
from array import array
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .beta import euler_symbol, euler_symbol_closed
from .errors import DomainError, integer, positive
from .gamma import (
    factorial_interp,
    gamma_reference,
    gamma_log_integral,
    log_gamma,
    log_gamma_terms,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _integrate_family, suite_memo
from . import backend

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_LN_2PI = math.log(math.tau)

# Rounding allowance of the log-space pass rule, per unit of the summed
# magnitude of the log terms of both sides.
_LOG_ROUNDING = 8.0 * sys.float_info.epsilon

# Largest n the product checks accept, and largest q of
# algebraic-interpolation.  Their work grows linearly in n (or q); the cap
# turns a mistyped n such as 1e30 into a DomainError instead of a loop that
# never ends, and sits far above any grid in use (the widest benchmark grid
# stops at n = 120).
MAX_N = 100_000

# Bounds on a whole grid, checked before it is expanded.  The closed-form
# product checks do work in proportion to n, so n summed over the cases may
# be at most MAX_GRID_N (the default grid asks for 4,346); the case count is
# capped on its own because a grid with no n axis passes that budget.
MAX_GRID_N = 10_000_000
MAX_GRID_CASES = 100_000

# Sides this close to zero switch the pass rule to absolute residual.
NEAR_ZERO = 1e-6
_TINY = 1e-300

# Closed-form-only identities run at 1e-10; one layer of quadrature loosens
# that to 1e-7; the algebraic interpolation chains q-1 quadratures and gets
# 1e-6.  Conservative multiples of observed engine accuracy.
_DEFAULT_TOL = {
    "reflection": 1e-12,
    "gauss-multiplication": 1e-10,
    "duplication": 1e-10,
    "sine-product": 1e-10,
    "sine-multiple-angle": 1e-10,
    "gamma-square-product": 1e-10,
    "gamma-fraction-product": 1e-10,
    "log-integral-product": 1e-7,
    "factorial-root": 1e-10,
    "algebraic-interpolation": 1e-6,
    "symbol-symmetry": 1e-7,
    "symbol-bridge": 1e-7,
}


def default_tolerance(identity_id: str, mode: str = "closed") -> float:
    """The built-in pass tolerance for one identity (mode-aware)."""
    if identity_id == "factorial-root" and mode == "quadrature":
        return 1e-7
    try:
        return _DEFAULT_TOL[identity_id]
    except KeyError:
        raise DomainError(f"unknown identity {identity_id!r}") from None


@dataclass(frozen=True)
class IdentityReport:
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
    wall_time: float
    error: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    """All reports of one suite run, in deterministic order."""

    reports: tuple
    n_pass: int
    n_fail: int
    config_echo: Mapping[str, object]


def _rel(lhs, rhs):
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _TINY)


def _report(identity_id, params, lhs, rhs, tolerance, start, aux_ok=True,
            log_scale=None):
    """Assemble a report; ``aux_ok`` folds in side conditions (quadrature
    convergence, secondary-form agreement) that must hold for a pass.
    ``log_scale``, given when the sides are logs, is the summed magnitude of
    their terms; such sides pass on the absolute residual, or on the
    relative one where the absolute residual is within rounding of them."""
    abs_residual = abs(lhs - rhs)
    rel_residual = abs_residual / max(abs(lhs), abs(rhs), _TINY)
    if log_scale is not None:
        passed = abs_residual <= tolerance or (
            abs_residual <= _LOG_ROUNDING * log_scale and rel_residual <= tolerance)
    elif max(abs(lhs), abs(rhs)) <= NEAR_ZERO:
        passed = abs_residual <= tolerance
    else:
        passed = rel_residual <= tolerance
    passed = bool(passed and aux_ok and math.isfinite(lhs) and math.isfinite(rhs))
    return IdentityReport(
        identity_id=identity_id,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_residual=abs_residual,
        rel_residual=rel_residual,
        tolerance=tolerance,
        passed=passed,
        wall_time=time.perf_counter() - start,
    )


def _magnitude(*term_lists):
    """Summed magnitude of the log terms, the scale of their rounding."""
    return sum(sum(map(abs, terms)) for terms in term_lists)


def _log_gamma_fractions(n):
    """log gamma(1/n), log gamma(2/n), ..., log gamma((n-1)/n), as an
    ``array('d')`` (8 bytes per term; callers only read it).

    The table depends on n alone.  Inside a suite run it is computed once per
    n and kept in the run's ``suite_memo`` dict, under a 2-tuple key that no
    7-tuple quadrature key can equal; outside a run it is computed afresh.
    """
    memo = suite_memo.get()
    if memo is None:
        memo = {}
    key = ("log_gamma_fractions", n)
    table = memo.get(key)
    if table is None:
        table = memo[key] = array("d", log_gamma_terms(i / n for i in range(1, n)))
    return table


def check_reflection(x: float, tolerance: float | None = None) -> IdentityReport:
    """gamma(x) * gamma(1-x) = pi / sin(pi x), for x in (0, 1).

    The report carries the gamma form.  The equivalent factorial form
    x! * (-x)! = pi x / sin(pi x) is cross-checked against the same
    tolerance; a pass certifies both.
    """
    start = time.perf_counter()
    x = float(x)
    if not (math.isfinite(x) and 0.0 < x < 1.0):
        raise DomainError("x must lie in (0,1)")
    if tolerance is None:
        tolerance = default_tolerance("reflection")
    lhs = gamma_reference(x) * gamma_reference(1.0 - x)
    rhs = math.pi / math.sin(math.pi * x)
    fact_lhs = factorial_interp(x) * factorial_interp(-x)
    fact_rhs = math.pi * x / math.sin(math.pi * x)
    fact_ok = _rel(fact_lhs, fact_rhs) <= tolerance
    return _report("reflection", {"x": x}, lhs, rhs, tolerance, start, aux_ok=fact_ok)


def check_gauss_multiplication(x: float, n: int,
                               tolerance: float | None = None) -> IdentityReport:
    """gamma(x/n) gamma((x+1)/n) ... gamma((x+n-1)/n) = (2 pi)^((n-1)/2) n^(1/2-x) gamma(x).

    Compared in log space; lhs/rhs are the logs of the two sides.  n = 1
    degenerates to gamma(x) = gamma(x).
    """
    start = time.perf_counter()
    x = positive(x, "x")
    n = integer(n, "n", 1, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("gauss-multiplication")
    # the smallest term, x/n, can underflow to 0 for a subnormal x
    positive(x / n, "x / n")
    lhs_terms = log_gamma_terms((x + k) / n for k in range(n))
    rhs_terms = [0.5 * (n - 1) * _LN_2PI, (0.5 - x) * math.log(n), log_gamma(x)]
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    return _report("gauss-multiplication", {"n": n, "x": x}, lhs, rhs, tolerance, start,
                   log_scale=_magnitude(lhs_terms, rhs_terms))


def check_duplication(x: float, tolerance: float | None = None) -> IdentityReport:
    """gamma(x/2) gamma((x+1)/2) = (2 pi)^(1/2) 2^(1/2-x) gamma(x).

    The n = 2 instance of the multiplication formula; the delegation makes
    the two checks agree bit for bit.
    """
    start = time.perf_counter()
    inner = check_gauss_multiplication(x, 2, tolerance=tolerance)
    return replace(
        inner,
        identity_id="duplication",
        params={"x": float(x)},
        wall_time=time.perf_counter() - start,
    )


def check_sine_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """sin(pi/n) sin(2 pi/n) ... sin((n-1) pi/n) = n / 2^(n-1), for n >= 2."""
    start = time.perf_counter()
    n = integer(n, "n", 2, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("sine-product")
    lhs = math.exp(math.fsum(math.log(math.sin(i * math.pi / n)) for i in range(1, n)))
    rhs = n * 2.0 ** (1 - n)
    return _report("sine-product", {"n": n}, lhs, rhs, tolerance, start)


def check_sine_multiple_angle(n: int, phi: float,
                              tolerance: float | None = None) -> IdentityReport:
    """sin(n phi) = 2^(n-1) * product over k in 0..n-1 of sin(phi + k pi/n).

    The uniform product runs over phi + k pi/n; the alternating-sign pairing
    seen in older statements is the same thing because
    sin((n-k) pi/n + phi) = sin(k pi/n - phi).  Factors may be negative, so
    the sign is tracked separately from the log-space magnitude.
    """
    start = time.perf_counter()
    n = integer(n, "n", 1, MAX_N)
    phi = float(phi)
    if not math.isfinite(phi):
        raise DomainError("phi must be finite")
    if tolerance is None:
        tolerance = default_tolerance("sine-multiple-angle")
    lhs = math.sin(n * phi)
    factors = [math.sin(phi + k * math.pi / n) for k in range(n)]
    if any(f == 0.0 for f in factors):
        rhs = 0.0
    else:
        sign = -1.0 if sum(f < 0.0 for f in factors) % 2 else 1.0
        rhs = sign * math.exp(
            math.fsum([(n - 1) * _LN_2] + [math.log(abs(f)) for f in factors])
        )
    return _report("sine-multiple-angle", {"n": n, "phi": phi}, lhs, rhs, tolerance, start)


def check_gamma_square_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """product of gamma(i/n)^2 over i in 1..n-1 = pi^(n-1) / product of sin(i pi/n).

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    start = time.perf_counter()
    n = integer(n, "n", 2, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("gamma-square-product")
    lhs_terms = [2.0 * term for term in _log_gamma_fractions(n)]
    rhs_terms = [(n - 1) * _LN_PI] + [-math.log(math.sin(i * math.pi / n)) for i in range(1, n)]
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    return _report("gamma-square-product", {"n": n}, lhs, rhs, tolerance, start,
                   log_scale=_magnitude(lhs_terms, rhs_terms))


def check_gamma_fraction_product(n: int, tolerance: float | None = None) -> IdentityReport:
    """gamma(1/n) gamma(2/n) ... gamma((n-1)/n) = sqrt((2 pi)^(n-1) / n).

    Compared in log space; lhs/rhs are the logs of the two sides.
    """
    start = time.perf_counter()
    n = integer(n, "n", 2, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("gamma-fraction-product")
    lhs_terms = _log_gamma_fractions(n)
    rhs_terms = [0.5 * (n - 1) * _LN_2PI, -0.5 * math.log(n)]
    lhs = math.fsum(lhs_terms)
    rhs = math.fsum(rhs_terms)
    return _report("gamma-fraction-product", {"n": n}, lhs, rhs, tolerance, start,
                   log_scale=_magnitude(lhs_terms, rhs_terms))


def check_log_integral_product(n: int, config: QuadratureConfig = DEFAULT_CONFIG,
                               tolerance: float | None = None) -> IdentityReport:
    """product over k in 1..n-1 of integral_0^1 (-log x)^(k/n) dx
    = ((n-1)!/n^(n-1)) sqrt(2^(n-1) pi^(n-1) / n), for n >= 2.

    The left side is n-1 independent quadratures, multiplied in log space.
    """
    start = time.perf_counter()
    n = integer(n, "n", 2, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("log-integral-product")
    estimates = [gamma_log_integral(k / n, config) for k in range(1, n)]
    converged = all(e.converged for e in estimates)
    lhs = math.exp(math.fsum(math.log(e.value) for e in estimates))
    rhs = math.exp(
        math.fsum(
            [
                log_gamma(float(n)),
                -(n - 1) * math.log(n),
                0.5 * (n - 1) * _LN_2,
                0.5 * (n - 1) * _LN_PI,
                -0.5 * math.log(n),
            ]
        )
    )
    return _report("log-integral-product", {"n": n}, lhs, rhs, tolerance, start, converged)


def _factorial_root_log_inner(m, n, mode, config):
    """Log of the radicand n^(n-m) gamma(m) S(1,m;n) S(2,m;n) ... S(n-1,m;n).

    Returns (log terms, all quadratures converged).  In closed mode each
    symbol contributes log gamma(i/n) + log gamma(m/n) - log gamma((i+m)/n)
    - log n, through B(i/n, m/n)/n.  The terms are appended grouped by kind
    rather than symbol by symbol, and log gamma(m/n) and log n, which do not
    depend on i, are computed once and appended n-1 times: the list holds the
    same floats the per-symbol evaluation would, so ``math.fsum`` of it is
    unchanged.  In quadrature mode each symbol is integrated directly.
    """
    log_n = math.log(n)
    terms = [(n - m) * log_n, log_gamma(m)]
    converged = True
    if mode == "closed":
        terms += _log_gamma_fractions(n)
        terms += [log_gamma(m / n)] * (n - 1)
        terms += [-term for term in log_gamma_terms((i + m) / n for i in range(1, n))]
        terms += [-log_n] * (n - 1)
    else:
        for i in range(1, n):
            estimate = euler_symbol(float(i), m, n, config)
            converged = converged and estimate.converged
            terms.append(math.log(estimate.value))
    return terms, converged


def check_factorial_root(m: float, n: int, mode: str = "closed",
                         config: QuadratureConfig = DEFAULT_CONFIG,
                         tolerance: float | None = None) -> IdentityReport:
    """(m/n)! = (m/n) (n^(n-m) gamma(m) S(1,m;n) ... S(n-1,m;n))^(1/n).

    The n-th-root reconstruction of the interpolated factorial from Euler
    symbols S(i, m; n); gamma(m) interpolates the (m-1)! that a natural m
    would contribute, and the formula holds for real m > 0.  In closed mode
    the symbols come from the Beta closed form, in quadrature mode from
    direct integration.
    """
    start = time.perf_counter()
    m = positive(m, "m")
    n = integer(n, "n", 1, MAX_N)
    if mode not in ("closed", "quadrature"):
        raise DomainError("mode must be 'closed' or 'quadrature'")
    if tolerance is None:
        tolerance = default_tolerance("factorial-root", mode)
    lhs = factorial_interp(m / n)
    terms, converged = _factorial_root_log_inner(m, n, mode, config)
    rhs = (m / n) * math.exp(math.fsum(terms) / n)
    params = {"m": m, "n": n, "mode": mode}
    return _report("factorial-root", params, lhs, rhs, tolerance, start, converged)


def check_algebraic_interpolation(p: int, q: int,
                                  config: QuadratureConfig = DEFAULT_CONFIG,
                                  tolerance: float | None = None) -> IdentityReport:
    """integral_0^1 (-log x)^(p/q) dx
    = (p! (2p/q+1)(3p/q+1)...(qp/q+1))^(1/q) * (prod_k integral_0^1 (x^k - x^(k+1))^(p/q) dx)^(1/q)

    with k running 1..q-1; natural p, q.  The left side is one quadrature and
    the right side chains q-1 more, so this is the loosest check in the set.
    """
    start = time.perf_counter()
    p = integer(p, "p", 1)
    q = integer(q, "q", 1, MAX_N)
    if tolerance is None:
        tolerance = default_tolerance("algebraic-interpolation")
    s = p / q
    lhs_estimate = gamma_log_integral(s, config)
    converged = lhs_estimate.converged
    lhs = lhs_estimate.value
    terms = [log_gamma(p + 1.0)]
    terms += [math.log(j * s + 1.0) for j in range(2, q + 1)]
    for k in range(1, q):
        estimate = _integrate_family(backend.ALGEBRAIC, float(k), s, 0.0, 0.0, 1.0, config)
        converged = converged and estimate.converged
        terms.append(math.log(estimate.value))
    rhs = math.exp(math.fsum(terms) / q)
    return _report("algebraic-interpolation", {"p": p, "q": q}, lhs, rhs, tolerance,
                   start, converged)


def check_symbol_symmetry(p: float, q: float, n: int,
                          config: QuadratureConfig = DEFAULT_CONFIG,
                          tolerance: float | None = None) -> IdentityReport:
    """S(p, q; n) = S(q, p; n), both sides by direct quadrature."""
    start = time.perf_counter()
    if tolerance is None:
        tolerance = default_tolerance("symbol-symmetry")
    a = euler_symbol(p, q, n, config)
    b = euler_symbol(q, p, n, config)
    params = {"n": integer(n, "n", 1), "p": float(p), "q": float(q)}
    return _report("symbol-symmetry", params, a.value, b.value, tolerance, start,
                   a.converged and b.converged)


def check_symbol_bridge(p: float, q: float, n: int,
                        config: QuadratureConfig = DEFAULT_CONFIG,
                        tolerance: float | None = None) -> IdentityReport:
    """S(p, q; n) by quadrature = B(p/n, q/n)/n in closed form."""
    start = time.perf_counter()
    if tolerance is None:
        tolerance = default_tolerance("symbol-bridge")
    estimate = euler_symbol(p, q, n, config)
    rhs = euler_symbol_closed(p, q, n)
    params = {"n": integer(n, "n", 1), "p": float(p), "q": float(q)}
    return _report("symbol-bridge", params, estimate.value, rhs, tolerance, start,
                   estimate.converged)


def derivation_chain_values(m: float, n: int) -> tuple:
    """Three independent routes to (m/n)!, for cross-validation.

    Returns (direct, root_form, product_form):
      direct       gamma(m/n + 1) from the reference engine;
      root_form    the factorial-root right side in closed mode;
      product_form (m/n) gamma(m) n^(1-m) * prod_k gamma(k/n)/gamma((m+k)/n),
                   i.e. the multiplication formula rearranged for gamma(m/n)
                   with (2 pi)^((n-1)/2) eliminated through the fraction
                   product gamma(1/n)...gamma((n-1)/n) = sqrt((2 pi)^(n-1)/n).

    Pairwise agreement of the three certifies that the factorial-root
    identity plus the fraction product imply the multiplication formula.
    """
    m = positive(m, "m")
    n = integer(n, "n", 1)
    direct = factorial_interp(m / n)
    terms, _ = _factorial_root_log_inner(m, n, "closed", DEFAULT_CONFIG)
    root_form = (m / n) * math.exp(math.fsum(terms) / n)
    product_terms = [math.log(m / n), log_gamma(m), (1.0 - m) * math.log(n)]
    product_terms += _log_gamma_fractions(n)
    product_terms += [-term for term in log_gamma_terms((m + k) / n for k in range(1, n))]
    product_form = math.exp(math.fsum(product_terms))
    return direct, root_form, product_form


def _float_axis(value):
    value = float(value)
    if not math.isfinite(value):
        raise DomainError("parameter must be finite")
    return value


def _mode_axis(value):
    mode = str(value)
    if mode not in ("closed", "quadrature"):
        raise DomainError("mode must be 'closed' or 'quadrature'")
    return mode


@dataclass(frozen=True)
class IdentitySpec:
    """Wiring for one identity: its parameter axes and a run adapter."""

    identity_id: str
    axes: tuple
    convert: Mapping[str, Callable]
    run: Callable


IDENTITIES = {
    "reflection": IdentitySpec(
        "reflection", ("x",), {"x": _float_axis},
        lambda params, tol, config: check_reflection(params["x"], tolerance=tol),
    ),
    "gauss-multiplication": IdentitySpec(
        "gauss-multiplication", ("n", "x"), {"n": integer, "x": _float_axis},
        lambda params, tol, config: check_gauss_multiplication(
            params["x"], params["n"], tolerance=tol),
    ),
    "duplication": IdentitySpec(
        "duplication", ("x",), {"x": _float_axis},
        lambda params, tol, config: check_duplication(params["x"], tolerance=tol),
    ),
    "sine-product": IdentitySpec(
        "sine-product", ("n",), {"n": integer},
        lambda params, tol, config: check_sine_product(params["n"], tolerance=tol),
    ),
    "sine-multiple-angle": IdentitySpec(
        "sine-multiple-angle", ("n", "phi"), {"n": integer, "phi": _float_axis},
        lambda params, tol, config: check_sine_multiple_angle(
            params["n"], params["phi"], tolerance=tol),
    ),
    "gamma-square-product": IdentitySpec(
        "gamma-square-product", ("n",), {"n": integer},
        lambda params, tol, config: check_gamma_square_product(params["n"], tolerance=tol),
    ),
    "gamma-fraction-product": IdentitySpec(
        "gamma-fraction-product", ("n",), {"n": integer},
        lambda params, tol, config: check_gamma_fraction_product(params["n"], tolerance=tol),
    ),
    "log-integral-product": IdentitySpec(
        "log-integral-product", ("n",), {"n": integer},
        lambda params, tol, config: check_log_integral_product(
            params["n"], config, tolerance=tol),
    ),
    "factorial-root": IdentitySpec(
        "factorial-root", ("m", "n", "mode"),
        {"m": _float_axis, "n": integer, "mode": _mode_axis},
        lambda params, tol, config: check_factorial_root(
            params["m"], params["n"], params["mode"], config, tolerance=tol),
    ),
    "algebraic-interpolation": IdentitySpec(
        "algebraic-interpolation", ("p", "q"), {"p": integer, "q": integer},
        lambda params, tol, config: check_algebraic_interpolation(
            params["p"], params["q"], config, tolerance=tol),
    ),
    "symbol-symmetry": IdentitySpec(
        "symbol-symmetry", ("p", "q", "n"),
        {"p": _float_axis, "q": _float_axis, "n": integer},
        lambda params, tol, config: check_symbol_symmetry(
            params["p"], params["q"], params["n"], config, tolerance=tol),
    ),
    "symbol-bridge": IdentitySpec(
        "symbol-bridge", ("p", "q", "n"),
        {"p": _float_axis, "q": _float_axis, "n": integer},
        lambda params, tol, config: check_symbol_bridge(
            params["p"], params["q"], params["n"], config, tolerance=tol),
    ),
}

# Default parameter grids, as blocks of axis lists expanded by product.  An
# identity may have several blocks (factorial-root runs a wide closed-mode
# grid and a smaller quadrature-mode one).
_GRID_BLOCKS = {
    "reflection": [
        {"x": sorted(set(i / 20 for i in range(1, 20)) | {1 / 2, 1 / 3, 1 / 4})},
    ],
    "gauss-multiplication": [
        {"n": list(range(1, 13)), "x": [0.1, 0.5, 1.0, 2.5, 7.0, 19.3, 50.0]},
    ],
    "duplication": [
        {"x": [0.1, 0.5, 1.0, 2.5, 7.0, 19.3, 50.0]},
    ],
    "sine-product": [{"n": list(range(2, 31))}],
    "sine-multiple-angle": [
        {"n": list(range(1, 11)), "phi": [0.3, 0.7, 1.1]},
    ],
    "gamma-square-product": [{"n": list(range(2, 26))}],
    "gamma-fraction-product": [{"n": list(range(2, 51))}],
    "log-integral-product": [{"n": list(range(2, 9))}],
    "factorial-root": [
        {
            "m": [float(m) for m in range(1, 11)] + [0.5, 7.3, 19.9],
            "n": list(range(1, 9)),
            "mode": ["closed"],
        },
        {
            "m": [float(m) for m in range(1, 6)],
            "n": list(range(2, 6)),
            "mode": ["quadrature"],
        },
    ],
    "algebraic-interpolation": [
        {"p": [1, 2, 3, 4], "q": [1, 2, 3, 4]},
    ],
    "symbol-symmetry": [
        {
            "p": [1.0, 2.0, 3.0, 4.0, 5.0],
            "q": [1.0, 2.0, 3.0, 4.0, 5.0],
            "n": [2, 3, 4, 5, 6],
        },
    ],
    "symbol-bridge": [
        {
            "p": [1.0, 2.0, 3.0, 4.0, 5.0],
            "q": [1.0, 2.0, 3.0, 4.0, 5.0],
            "n": [2, 3, 4, 5, 6],
        },
    ],
}


def params_key(params: Mapping) -> tuple:
    """Deterministic sort key: (name, value) pairs ordered by name."""
    return tuple(sorted(params.items()))


def build_grid(identities=None, axis_values=None) -> dict:
    """Expand the default grid blocks into per-identity parameter lists.

    ``identities`` restricts to a subset; ``axis_values`` maps an axis name
    to a replacement value list that overrides the default wherever that
    axis occurs.  Duplicate parameter points collapse to one.

    Raises DomainError, before expanding any block, when the grid would hold
    more than MAX_GRID_CASES cases or its n summed over the cases would
    exceed MAX_GRID_N; both are counted before duplicates collapse.
    """
    if identities is None:
        identities = sorted(_GRID_BLOCKS)
    axis_values = axis_values or {}
    blocks = {}
    n_cases = n_sum = 0
    for identity_id in identities:
        if identity_id not in IDENTITIES:
            raise DomainError(f"unknown identity {identity_id!r}")
        spec = IDENTITIES[identity_id]
        blocks[identity_id] = []
        for block in _GRID_BLOCKS[identity_id]:
            axes = {axis: [spec.convert[axis](v) for v in axis_values.get(axis, block[axis])]
                    for axis in spec.axes}
            size = math.prod(len(values) for values in axes.values())
            n_cases += size
            if "n" in axes and size:
                n_sum += sum(axes["n"]) * (size // len(axes["n"]))
            blocks[identity_id].append(axes)
    if n_cases > MAX_GRID_CASES:
        raise DomainError(f"the grid has {n_cases} cases; at most {MAX_GRID_CASES} "
                          "are allowed")
    if n_sum > MAX_GRID_N:
        raise DomainError(f"the grid's n sums to {n_sum} over its cases; "
                          f"at most {MAX_GRID_N} is allowed")
    grid = {}
    for identity_id, axes_list in blocks.items():
        cases, seen = [], set()
        for axes in axes_list:
            for combo in itertools.product(*axes.values()):
                params = dict(zip(axes, combo))
                key = params_key(params)
                if key not in seen:
                    seen.add(key)
                    cases.append(params)
        grid[identity_id] = cases
    return grid


def default_grid() -> dict:
    """The full built-in parameter grid, one list of param dicts per identity."""
    return build_grid()


def run_suite(grid: dict | None = None,
              config: QuadratureConfig = DEFAULT_CONFIG,
              tolerances: Mapping[str, float] | None = None) -> SuiteReport:
    """Run every check in ``grid`` (default: the full built-in grid).

    Reports come back sorted by identity_id, then by parameter values, no
    matter the order of the input.  A check that raises is recorded as a
    failed report with NaN sides, and the exception in its ``error``, rather
    than aborting the suite.

    Within one run, equal family integrals (the same integrand, parameters,
    interval and config) are computed once and shared by every check that
    needs them, so S(p, q; n) serves both symbol-symmetry and symbol-bridge.
    The same memo holds each n's table of log gamma(i/n), shared by the
    closed-form product and factorial-root checks with that n.  Nothing is
    kept between runs, and calls outside a run are never shared.
    """
    if grid is None:
        grid = default_grid()
    tolerances = dict(tolerances or {})
    for identity_id, tol in tolerances.items():
        if identity_id not in IDENTITIES:
            raise DomainError(f"unknown identity {identity_id!r}")
        tolerances[identity_id] = positive(tol, f"tolerance for {identity_id}")
    if not any(grid.values()):
        raise DomainError("grid is empty")
    reports = []
    memo_token = suite_memo.set({})
    try:
        for identity_id in sorted(grid):
            if identity_id not in IDENTITIES:
                raise DomainError(f"unknown identity {identity_id!r}")
            spec = IDENTITIES[identity_id]
            tol = tolerances.get(identity_id)
            for params in sorted(grid[identity_id], key=params_key):
                start = time.perf_counter()
                try:
                    report = spec.run(params, tol, config)
                except Exception as exc:
                    mode = params.get("mode", "closed")
                    tolerance = tol if tol is not None else default_tolerance(identity_id, mode)
                    report = IdentityReport(
                        identity_id=identity_id,
                        params=dict(params),
                        lhs=math.nan,
                        rhs=math.nan,
                        abs_residual=math.inf,
                        rel_residual=math.inf,
                        tolerance=tolerance,
                        passed=False,
                        wall_time=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                reports.append(report)
    finally:
        suite_memo.reset(memo_token)
    n_pass = sum(1 for r in reports if r.passed)
    config_echo = {
        "abs_tol": config.abs_tol,
        "rel_tol": config.rel_tol,
        "max_refinements": config.max_refinements,
        "truncation_threshold": config.truncation_threshold,
        "grid": {identity_id: len(grid[identity_id]) for identity_id in sorted(grid)},
    }
    return SuiteReport(tuple(reports), n_pass, len(reports) - n_pass, config_echo)
