"""Beta function and the two-parameter power-integral symbol built on it.

``euler_symbol`` evaluates the integral

    S(p, q; n) = integral_0^1 x^(p-1) (1 - x^n)^((q-n)/n) dx,

which is symmetric in p and q and collapses to B(p/n, q/n) / n; the closed
form is ``euler_symbol_closed``.  The integrand is singular at x = 1 when
q < n and at x = 0 when p < 1, both integrable; the exponent (n - q)/n may
also be negative (q > n), which merely makes the integrand vanish at x = 1
and needs no special handling.  p and q are any positive reals, not just
naturals.
"""

import math

from . import backend
from .errors import integer, positive
from .gamma import log_gamma
from .quadrature import (
    DEFAULT_CONFIG,
    IntegralEstimate,
    QuadratureConfig,
    _integrate_family,
)


def beta_closed(x: float, y: float) -> float:
    """B(x, y) as exp(lgamma(x) + lgamma(y) - lgamma(x + y)); x, y > 0."""
    x = positive(x, "x")
    y = positive(y, "y")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def beta_integral(x: float, y: float,
                  config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralEstimate:
    """B(x, y) as the integral of t^(x-1) (1-t)^(y-1) over (0, 1)."""
    x = positive(x, "x")
    y = positive(y, "y")
    return _integrate_family(backend.BETA, x, y, 0.0, config)


def euler_symbol(p: float, q: float, n: int,
                 config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralEstimate:
    """S(p, q; n) by direct quadrature of its defining integral."""
    p = positive(p, "p")
    q = positive(q, "q")
    n = integer(n, "n", 1)
    return _integrate_family(backend.EULER_SYMBOL, p, q, float(n), config)


def euler_symbol_closed(p: float, q: float, n: int) -> float:
    """S(p, q; n) in closed form, B(p/n, q/n) / n."""
    p = positive(p, "p")
    q = positive(q, "q")
    n = integer(n, "n", 1)
    return beta_closed(p / n, q / n) / n
