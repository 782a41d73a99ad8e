"""Gamma function: closed-form reference engine and integral engines.

The reference engine is a Lanczos approximation with the classic g = 7,
n = 9 double-precision coefficient set.  Measured against a 50-digit
reference, its relative error stays below 7e-14 on [0.5, 100]; arguments
below 0.5 are lifted through the recurrence gamma(x) = gamma(x + 1) / x,
evaluated at x + 1 in the same call.  ``log_gamma`` reuses the same
coefficients in log form rather than calling ``math.lgamma`` so that both
engines share one rounding profile and results are reproducible across libm
builds.  The Lanczos sum is written out term by term in the order a loop
over the coefficients adds them, so it rounds exactly as that loop does, on
every platform.

``log_gamma_terms`` is the batch form of ``log_gamma`` for callers that
evaluate many terms at once.  It takes arguments the caller has already
validated as positive and finite, skips the per-call check, and returns
exactly the floats ``log_gamma`` would: ``log_gamma`` validates its one
argument and runs the same loop, so the log form is written once.

The integral engines evaluate gamma through Euler's integral

    Gamma(s + 1) = s! = integral over (0, 1) of (-log u)^s du

with tanh-sinh quadrature and report an IntegralEstimate rather than a bare
float.  ``gamma_integral`` is ``gamma_log_integral`` at s = x - 1, lifted by
the recurrence into x in [1, 100], where the integrand stays finite;
``log_gamma_integral`` takes the same integral and adds the logs of the
recurrence's factors, so it stays finite wherever log gamma does.
"""

import math

from .errors import DomainError, nonnegative, number, positive
from .quadrature import IntegralEstimate, _integrate_family
from . import backend

# Lanczos g = 7; the nine coefficients live in ``_lanczos_sum``.
_LANCZOS_G = 7.0

_SQRT_2PI = math.sqrt(math.tau)
_LN_SQRT_2PI = 0.5 * math.log(math.tau)

# Largest argument the log-space integral engine lifts by the recurrence,
# one log term per unit of x; ``identities`` caps its n and q at the same
# value, and ``beta.euler_symbol`` its n.  The cap turns a mistyped x such
# as 1e300 into a DomainError instead of a loop that never ends.
MAX_N = 100_000

# Above this, t**(x - 0.5) overflows on its own even though gamma(x) is still
# finite; switch to the exp-combined form there.
_POW_EXPONENT_LIMIT = 700.0


def _lanczos_sum(y):
    """A_g(x) = c0 + sum over i in 1..8 of c_i / (x - 1 + i), given y = x - 1.

    The nine terms are added left to right, as a loop over a coefficient
    tuple would add them, and ``y + i`` is the float ``x - 1.0 + i``.  The
    coefficients are the widely reproduced double-precision set (Godfrey's
    computation); do not reorder or "clean up" the digits, the trailing ones
    are load-bearing.
    """
    return (0.99999999999980993
            + 676.5203681218851 / (y + 1.0)
            - 1259.1392167224028 / (y + 2.0)
            + 771.32342877765313 / (y + 3.0)
            - 176.61502916214059 / (y + 4.0)
            + 12.507343278686905 / (y + 5.0)
            - 0.13857109526572012 / (y + 6.0)
            + 9.9843695780195716e-6 / (y + 7.0)
            + 1.5056327351493116e-7 / (y + 8.0))


def gamma_reference(x: float) -> float:
    """Gamma(x) for x > 0 via the Lanczos approximation.

    Overflows (OverflowError, as with ``math.gamma``) wherever the result is
    not finite: x above about 171.62, or below about 5.6e-309.
    """
    x = positive(x, "x")
    divisor = 1.0
    if x < 0.5:
        divisor = x
        x += 1.0
    t = x + (_LANCZOS_G - 0.5)
    a = _lanczos_sum(x - 1.0)
    pow_exponent = (x - 0.5) * math.log(t)
    if pow_exponent > _POW_EXPONENT_LIMIT:
        value = _SQRT_2PI * a * math.exp(pow_exponent - t) / divisor
    else:
        value = _SQRT_2PI * t ** (x - 0.5) * math.exp(-t) * a / divisor
    if not math.isfinite(value):
        raise OverflowError("math range error")
    return value


def log_gamma(x: float) -> float:
    """log(Gamma(x)) for x > 0, on the same coefficient set as gamma_reference.

    Near the zeros of log Gamma, x = 1 and x = 2, the error is absolute, not
    relative: against 50-digit mpmath it stays below 4e-15 for x within 0.1
    of either zero, and below 1e-15 at 1 + 1e-9 and 2 + 1e-9, where the
    relative error is 1.4e-6 and 2.3e-6 because log Gamma itself is below
    1e-9 in magnitude.  ``log_gamma(1.0)`` is -8.9e-16, not 0.
    """
    return log_gamma_terms((positive(x, "x"),))[0]


def log_gamma_terms(xs) -> list:
    """[log(Gamma(x)) for x in xs], for arguments the caller has already
    validated as positive finite floats.

    Nothing is checked here; each value is the float ``log_gamma`` returns
    for the same argument, since ``log_gamma`` is this loop run once.
    """
    log = math.log
    lanczos_sum = _lanczos_sum
    ln_sqrt_2pi = _LN_SQRT_2PI
    t_offset = _LANCZOS_G - 0.5
    terms = []
    for x in xs:
        shift = 0.0
        if x < 0.5:
            shift = log(x)
            x += 1.0
        t = x + t_offset
        terms.append(ln_sqrt_2pi + (x - 0.5) * log(t) - t + log(lanczos_sum(x - 1.0)) - shift)
    return terms


def _recurrence(x):
    """Lift x > 0 into [1, 100], where Euler's integral is taken.

    Returns (y, divisor, factors) with gamma(x) = gamma(y) * product of
    ``factors`` / divisor, and y - 1 >= 0.  Below 1, gamma(x) =
    gamma(x + 1) / x; on [1, 100] y is x, with no factor; above 100,
    gamma(x) = (x - 1) gamma(x - 1), applied until x <= 100, since
    (-log u)^(x-1) overflows at a node the levels visit from about
    x = 111.02.
    ``factors`` is empty but above 100, where it yields x - 1, x - 2, ..., y
    lazily, in the order the recurrence applies them, so a caller reads only
    as many as it needs; below MAX_N each subtraction is exact.
    """
    if x < 1.0:
        return x + 1.0, x, ()
    if x <= 100.0:
        return x, 1.0, ()
    steps = math.ceil(x - 100.0)
    return x - steps, 1.0, (x - k for k in range(1, steps + 1))


def gamma_integral(x: float) -> IntegralEstimate:
    """Gamma(x) as Euler's integral of (-log u)^(x-1) over (0, 1).

    The integral is taken for x in [1, 100] only, and the recurrence lifts
    it to x (``_recurrence``): value and error are the integral's times the
    recurrence's factor, and ``converged`` is the quadrature's.  The
    integral is the ``NEG_LOG_POW`` family's at s = y - 1, which the
    recurrence keeps >= 0 and finite, so it is passed to the quadrature
    driver as it is, as ``gamma_log_integral`` would after its check.  Past the
    double-precision range (x above about 171.62, or x below about
    5.6e-309) the estimate is inf with error inf, not converged, and no node
    is evaluated once the factor itself is infinite, which it is within
    about 70 factors for any x past that range.
    """
    x = positive(x, "x")
    y, divisor, factors = _recurrence(x)
    factor = 1.0 / divisor
    for f in factors:
        if not math.isfinite(factor):
            break
        factor *= f
    if not math.isfinite(factor):
        return IntegralEstimate(math.inf, math.inf, 0, False)
    estimate = _integrate_family(backend.NEG_LOG_POW, y - 1.0, 0.0, 0.0)
    value = estimate.value * factor
    if not math.isfinite(value):
        return IntegralEstimate(value, math.inf, estimate.evaluations, False)
    return IntegralEstimate(value, estimate.error_estimate * factor, estimate.evaluations,
                            estimate.converged)


def log_gamma_integral(x: float) -> IntegralEstimate:
    """log(Gamma(x)) as the log of Euler's integral at the lifted argument
    plus the ``math.fsum`` of the logs of the recurrence's factors.

    Finite wherever log Gamma(x) is.  Its work grows with x, one log term
    per unit of x, so x is capped at MAX_N (DomainError past it).  The error
    estimate is the integral's relative error, which is the absolute error
    of its log, and ``converged`` is the quadrature's.
    """
    x = positive(x, "x")
    if x > MAX_N:
        raise DomainError(f"x must be <= {MAX_N}")
    y, divisor, factors = _recurrence(x)
    estimate = _integrate_family(backend.NEG_LOG_POW, y - 1.0, 0.0, 0.0)
    terms = [math.log(estimate.value), -math.log(divisor)]
    terms += map(math.log, factors)
    return IntegralEstimate(math.fsum(terms), estimate.error_estimate / estimate.value,
                            estimate.evaluations, estimate.converged)


def gamma_log_integral(s: float) -> IntegralEstimate:
    """Integral of (-log x)^s over (0, 1), which equals Gamma(s + 1).

    Requires s >= 0.  Node values are formed in linear space, so s large
    enough to push (-log x)^s past the double-precision ceiling at a node
    the levels visit (s from about 110.02) raises NonFiniteIntegrandError;
    the closed-form engine is the right tool there.
    """
    s = nonnegative(s, "s")
    return _integrate_family(backend.NEG_LOG_POW, s, 0.0, 0.0)


def factorial_interp(lam: float) -> float:
    """The factorial interpolated off the integers: lam! = Gamma(lam + 1).

    Requires lam > -1.
    """
    lam = number(lam, "lam")
    if not (math.isfinite(lam) and lam > -1.0):
        raise DomainError("lam must exceed -1")
    return gamma_reference(lam + 1.0)
