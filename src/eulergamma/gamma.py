"""Gamma function: closed-form engines and integral engines.

``gamma_reference`` is ``math.gamma``, CPython's own Lanczos approximation
(g about 6.02, 13 terms), not the C library's ``tgamma``.  It is exact at
the integers 1 through 23, and against 50-digit mpmath its relative error
stays below 1e-15 over (1e-300, 171.62).  Where Gamma(x) rounds past the
largest double, above about 171.62 or below about 5.6e-309, it raises
OverflowError.

``log_gamma`` is a Lanczos approximation in log form with the classic
g = 7, n = 9 double-precision coefficient set; arguments below 0.5 are
lifted through the recurrence log gamma(x) = log gamma(x + 1) - log x,
evaluated at x + 1 in the same call.  The Lanczos sum is written out term
by term in the order a loop over the coefficients adds them, so it rounds
exactly as that loop does, on every platform.

``log_gamma_terms`` is a second, independent log engine for callers that
evaluate many log gamma terms at once: ``math.lgamma`` of each, which is the
same CPython Lanczos sum as ``math.gamma``, not the C library's ``lgamma``.
A batch of 100 terms takes about a tenth of the time the g = 7 log form
takes in Python (6 against 70 us on a 2-CPU Xeon), and it is more accurate:
against 50-digit mpmath its worst error is 1.9e-15 relative to
max(|log gamma|, 1), where the g = 7 form reaches 4.1e-15, both next to
x = 3 (90,000 seeded draws in (1e-300, 1e5) and (0.2, 4)).  It takes
arguments the caller has already validated as positive and finite, and
skips the per-call check.  Both log engines depend on the C library only
through its ``log``.  They are kept apart on purpose: where a check puts a
batch on one side and ``log_gamma`` on the other, a fault in either engine
shows as a residual.

The integral engines evaluate gamma through Euler's integral

    Gamma(s + 1) = s! = integral over (0, 1) of (-log u)^s du

with tanh-sinh quadrature and report an IntegralEstimate rather than a bare
float.  Each takes the integral one way: ``_lift`` carries s into [0, 99],
where the integrand stays finite at every node the levels visit, by
Gamma(s + 1) = s (s - 1) ... (t + 1) Gamma(t + 1).  ``gamma_log_integral``
scales the integral at t by those factors, so it is finite wherever
Gamma(s + 1) is; ``gamma_integral`` is the same at s = x - 1, and below 1
is Gamma(x + 1) / x, integrated at s = x; ``log_gamma_integral`` adds the
logs of the factors, so it stays finite wherever log gamma does.
"""

import math

from .errors import NOT_FINITE, DomainError, nonnegative, number, positive
from .quadrature import IntegralEstimate, _integrate_family
from . import backend

# Lanczos g = 7; the nine coefficients live in ``_lanczos_sum``.
_LANCZOS_G = 7.0

_LN_SQRT_2PI = 0.5 * math.log(math.tau)

# Largest argument the log-space integral engine lifts, one log term per
# unit of x; ``identities`` caps its n and q at the same
# value, and ``beta.euler_symbol`` its n.  The cap turns a mistyped x such
# as 1e300 into a DomainError instead of a loop that never ends.
MAX_N = 100_000


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
    """Gamma(x) for x > 0: ``math.gamma``, after the package's argument check.

    Overflows (OverflowError, from ``math.gamma``) wherever the result rounds
    past the largest double: x above about 171.62, or below about 5.6e-309.
    """
    return math.gamma(positive(x, "x"))


def log_gamma(x: float) -> float:
    """log(Gamma(x)) for x > 0, by the g = 7 Lanczos sum in log form.

    Near the zeros of log Gamma, x = 1 and x = 2, the error is absolute, not
    relative: against 50-digit mpmath it stays below 4e-15 for x within 0.1
    of either zero, and below 1e-15 at 1 + 1e-9 and 2 + 1e-9, where the
    relative error is 1.4e-6 and 2.3e-6 because log Gamma itself is below
    1e-9 in magnitude.  ``log_gamma(1.0)`` is -8.9e-16, not 0.
    """
    x = positive(x, "x")
    shift = 0.0
    if x < 0.5:
        shift = math.log(x)
        x += 1.0
    t = x + (_LANCZOS_G - 0.5)
    return _LN_SQRT_2PI + (x - 0.5) * math.log(t) - t + math.log(_lanczos_sum(x - 1.0)) - shift


def log_gamma_terms(xs) -> list:
    """[math.lgamma(x) for x in xs], for arguments the caller has already
    validated as positive finite floats.

    Nothing is checked here.  A term past the double range (x above about
    2.6e305) raises DomainError(NOT_FINITE), as a side summed past it does.
    """
    try:
        return list(map(math.lgamma, xs))
    except OverflowError:
        raise DomainError(NOT_FINITE) from None


def _lift(s):
    """Lift s >= 0 into [0, 99], where Euler's integral is taken.

    Returns (t, steps) with Gamma(s + 1) = s (s - 1) ... (t + 1) Gamma(t + 1),
    the ``steps`` factors s - k for k in range(steps): for s above 99,
    steps = ceil(s - 99) and t = s - steps, in (98, 99]; else t is s and
    there is no factor.  (-log u)^s passes the double range at a node the
    levels visit from about s = 110.02 (see ``backend``), so no engine sums
    it above 99.  Below 2^52 each subtraction is exact.
    """
    steps = math.ceil(s - 99.0) if s > 99.0 else 0
    return s - steps, steps


def _scaled_integral(s, factor):
    """Gamma(s + 1) * factor, for s >= 0, as Euler's integral at the lifted
    t (``_lift``) times ``factor`` and the lift's factors s, s - 1, ...,
    t + 1, multiplied in that order.

    The product is no longer multiplied once it is inf, and then no node is
    evaluated: the estimate is (inf, inf, 0, False), which it is within about
    70 factors for any s past the double range.  A value that passes the
    double range is inf with error inf, not converged.  Otherwise value and
    error are the integral's times the product, and ``converged`` is the
    quadrature's; a product of 1 hands the quadrature's estimate back as it
    is.
    """
    t, steps = _lift(s)
    for k in range(steps):
        if math.isinf(factor):
            break
        factor *= s - k
    if math.isinf(factor):
        return IntegralEstimate(math.inf, math.inf, 0, False)
    estimate = _integrate_family(backend.NEG_LOG_POW, t, 0.0, 0.0)
    if factor == 1.0:
        return estimate
    value, error, evaluations, converged = estimate
    value *= factor
    if not math.isfinite(value):
        return IntegralEstimate(value, math.inf, evaluations, False)
    return IntegralEstimate(value, error * factor, evaluations, converged)


def gamma_integral(x: float) -> IntegralEstimate:
    """Gamma(x) as Euler's integral: for x >= 1 it is ``gamma_log_integral``
    at s = x - 1, and below 1 it is Gamma(x + 1) / x, the integral at s = x
    times 1 / x.

    Past the double-precision range (x above about 171.62, or x below about
    5.6e-309, where 1 / x is inf) the estimate is inf with error inf, not
    converged, and no node is evaluated once the factor is inf.
    """
    x = positive(x, "x")
    return _scaled_integral(x, 1.0 / x) if x < 1.0 else _scaled_integral(x - 1.0, 1.0)


def log_gamma_integral(x: float) -> IntegralEstimate:
    """log(Gamma(x)) as the ``math.fsum`` of the log of Euler's integral at
    the lifted argument (``_lift``, from s = x - 1, or s = x below 1), the
    logs of the lift's factors and, below 1, -log x.

    Finite wherever log Gamma(x) is.  Its work grows with x, one log term
    per unit of x, so x is capped at MAX_N (DomainError past it).  The error
    estimate is the integral's relative error, which is the absolute error
    of its log, and ``converged`` is the quadrature's.
    """
    x = positive(x, "x")
    if x > MAX_N:
        raise DomainError(f"x must be <= {MAX_N}")
    s, divisor = (x, x) if x < 1.0 else (x - 1.0, 1.0)
    t, steps = _lift(s)
    value, error, evaluations, converged = _integrate_family(backend.NEG_LOG_POW, t, 0.0, 0.0)
    terms = [math.log(value), -math.log(divisor)] + [math.log(s - k) for k in range(steps)]
    return IntegralEstimate(math.fsum(terms), error / value, evaluations, converged)


def gamma_log_integral(s: float) -> IntegralEstimate:
    """Integral of (-log x)^s over (0, 1), which equals Gamma(s + 1).

    Requires s >= 0.  Above 99 the integral is taken at the lifted s
    (``_lift``) and scaled by the lift's factors, so it is finite up to
    about s = 170.62, where Gamma(s + 1) passes the largest double; past
    that the estimate is inf with error inf, not converged, and no node is
    evaluated once the factors' product is inf.
    """
    return _scaled_integral(nonnegative(s, "s"), 1.0)


def factorial_interp(lam: float) -> float:
    """The factorial interpolated off the integers: lam! = Gamma(lam + 1).

    Requires lam > -1.
    """
    lam = number(lam, "lam")
    if not (math.isfinite(lam) and lam > -1.0):
        raise DomainError("lam must exceed -1")
    return gamma_reference(lam + 1.0)
