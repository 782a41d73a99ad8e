"""Adaptive tanh-sinh quadrature.

The variable change x = mid + halfspan * tanh((pi/2) * sinh(t)) pushes the
endpoints to t = +/-infinity and makes the transformed integrand decay doubly
exponentially, so the plain trapezoid rule in t converges at near-spectral
rate even when f blows up (integrably) at an endpoint.  Refinement halves the
step h and reuses every node already evaluated: the level-j estimate is

    I_j = I_{j-1} / 2 + h_j * sum over odd k of w(k h_j) f(x(k h_j)),

and |I_j - I_{j-1}| serves as the error estimate.  Nodes beyond |t| = 6.1
carry weights below the double-precision underflow threshold and are never
visited.

Two evaluation paths share this driver.  Arbitrary callables, through
``integrate_finite``, are integrated over any finite interval: they receive
plain abscissae and nodes that round onto an endpoint are skipped.  The
built-in integrand families (see ``backend``) are defined on (0, 1) alone,
the interval of every integral the engines compute, and are evaluated from
each node's exact distance to its nearest endpoint instead, which keeps
endpoint singularities fully resolved; the gamma and beta modules rely on
that path.
"""

import contextvars
import math
from dataclasses import dataclass
from typing import Callable

from . import backend
from .errors import DomainError, finite, positive

# Family integrals already computed in the current suite run, keyed on every
# input of ``_integrate_family``.  ``identities.run_suite`` sets a fresh dict
# for the length of one run; everywhere else it is None and nothing is kept.
suite_memo = contextvars.ContextVar("suite_memo", default=None)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive refinement.

    abs_tol, rel_tol
        Refinement stops once the level-to-level change is at or below
        ``rel_tol * |value|``.  For arbitrary callables the bar is
        ``max(abs_tol, rel_tol * |value|)``, so an integral of zero (say
        cos over (0, pi)) still converges.  The built-in integrand families
        are positive and ignore ``abs_tol``: a floor would accept any
        integral smaller than it, however wrong.
    max_refinements
        Number of step halvings allowed past the coarsest level.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-11
    max_refinements: int = 12

    def __post_init__(self):
        positive(self.abs_tol, "abs_tol")
        positive(self.rel_tol, "rel_tol")
        if not (isinstance(self.max_refinements, int) and self.max_refinements >= 1):
            raise ValueError("max_refinements must be an integer >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class IntegralEstimate:
    """Result of one adaptive integration.

    ``converged`` is True exactly when ``value`` is finite and
    ``error_estimate`` met the configured tolerance; a False value still
    carries the best estimate found.  Refinement stops at the first level
    whose value is not finite, and reports an ``error_estimate`` of inf.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _error_floor(family, config):
    """Error that always passes: abs_tol for arbitrary callables, none for
    the positive built-in families."""
    return config.abs_tol if family == backend.GENERIC else 0.0


def _refine(a, b, config, family, p0, p1, p2, f):
    """Run the level-doubling loop over (a, b); returns an IntegralEstimate."""
    floor = _error_floor(family, config)
    h = 1.0
    s, n = backend.level_sum(a, b, h, False, family, p0, p1, p2, f)
    value = h * s
    evaluations = n
    error = math.inf
    converged = False
    for _ in range(config.max_refinements):
        if not math.isfinite(value):
            break  # every later change would be inf - inf = nan
        h *= 0.5
        s, n = backend.level_sum(a, b, h, True, family, p0, p1, p2, f)
        new_value = 0.5 * value + h * s
        evaluations += n
        error = abs(new_value - value)
        value = new_value
        if error <= max(floor, config.rel_tol * abs(value)):
            converged = True
            break
    if not math.isfinite(value):
        # An infinite value meets the stop rule vacuously (inf <= inf).
        return IntegralEstimate(value, math.inf, evaluations, False)
    return IntegralEstimate(value, error, evaluations, converged)


def integrate_finite(f: Callable[[float], float], a: float, b: float,
                     config: QuadratureConfig = DEFAULT_CONFIG) -> IntegralEstimate:
    """Integrate ``f`` over the finite interval (a, b).

    ``f`` must be finite at every interior node; integrable endpoint
    singularities are fine because the endpoints themselves are never
    evaluated.  Raises NonFiniteIntegrandError if ``f`` returns NaN or an
    infinity, and DomainError for a degenerate interval.
    """
    a, b = finite(a, "a"), finite(b, "b")
    if not a < b:
        raise DomainError("integration bounds must satisfy a < b")
    return _refine(a, b, config, backend.GENERIC, 0.0, 0.0, 0.0, f)


def _integrate_family(family, p0, p1, p2, config):
    """Driver for the built-in integrand families, over (0, 1).

    Inside a suite run an equal call returns the estimate already computed;
    a call that raised is not remembered and raises again when repeated.
    """
    memo = suite_memo.get()
    if memo is None:
        return _refine(0.0, 1.0, config, family, p0, p1, p2, None)
    key = (family, p0, p1, p2, config)
    estimate = memo.get(key)
    if estimate is None:
        estimate = memo[key] = _refine(0.0, 1.0, config, family, p0, p1, p2, None)
    return estimate
