"""Beta function and the two-parameter power-integral symbol built on it.

``euler_symbol`` evaluates the integral

    S(p, q; n) = integral_0^1 x^(p-1) (1 - x^n)^((q-n)/n) dx,

which is symmetric in p and q and collapses to B(p/n, q/n) / n; the closed
form is ``euler_symbol_closed``.  The integrand is singular at x = 1 when
q < n and at x = 0 when p < 1, both integrable; the exponent (n - q)/n may
also be negative (q > n), which merely makes the integrand vanish at x = 1
and needs no special handling.  p and q are any positive reals, not just
naturals.

``log_beta`` is the log of the closed form.  With x >= y, log gamma(x) and
log gamma(x + y) nearly cancel once x is large, so their difference is taken
from the Lanczos terms directly: as a difference of the two logs,
exp(lgamma(x) + lgamma(y) - lgamma(x + y)) would be off by 3.9e-5 relative
at B(1e10, 0.5) and by 96% at B(1e15, 0.5).
"""

import math

from . import backend
from .errors import integer, positive
from .gamma import _LANCZOS_G, MAX_N, _lanczos_sum, log_gamma
from .quadrature import IntegralEstimate, _integrate_family


def log_beta(x: float, y: float) -> float:
    """log B(x, y) for x, y > 0, symmetric in x and y to the bit.

    The arguments are swapped so that x >= y.  For x >= 0.5 the Lanczos
    forms of log gamma(x) and log gamma(x + y) are subtracted term by term:
    with t1 = x + g - 0.5 and t2 = t1 + y their difference is
    -(x - 0.5) log1p(y / t1) - y log t2 + y + log(A(x) / A(x + y)), so no
    two terms of the size of log gamma(x) are subtracted.
    """
    y, x = sorted((positive(x, "x"), positive(y, "y")))
    if x < 0.5:
        return log_gamma(x) + log_gamma(y) - log_gamma(x + y)
    t1 = x + (_LANCZOS_G - 0.5)
    t2 = t1 + y
    return (log_gamma(y) - (x - 0.5) * math.log1p(y / t1) - y * math.log(t2) + y
            + math.log(_lanczos_sum(x - 1.0) / _lanczos_sum(x + y - 1.0)))


def beta_closed(x: float, y: float) -> float:
    """B(x, y) as exp(log_beta(x, y)); x, y > 0."""
    return math.exp(log_beta(x, y))


def beta_integral(x: float, y: float) -> IntegralEstimate:
    """B(x, y) as the integral of t^(x-1) (1-t)^(y-1) over (0, 1), which is
    S(x, y; 1): inside a suite run the two share one estimate."""
    x = positive(x, "x")
    y = positive(y, "y")
    return _integrate_family(backend.EULER_SYMBOL, x, y, 1.0)


def euler_symbol(p: float, q: float, n: int) -> IntegralEstimate:
    """S(p, q; n) by direct quadrature of its defining integral.

    n is capped at MAX_N (DomainError past it): the family loop stops where
    a term no longer changes its total, which is exact only while 1 - x^n
    does not dip near x = 1 - 1/n (see ``backend``).
    """
    p = positive(p, "p")
    q = positive(q, "q")
    n = integer(n, "n", 1, MAX_N)
    return _integrate_family(backend.EULER_SYMBOL, p, q, float(n))


def euler_symbol_closed(p: float, q: float, n: int) -> float:
    """S(p, q; n) in closed form, B(p/n, q/n) / n."""
    p = positive(p, "p")
    q = positive(q, "q")
    n = integer(n, "n", 1)
    # p / n or q / n underflows to 0 for a subnormal p or q
    return beta_closed(positive(p / n, "p / n"), positive(q / n, "q / n")) / n
