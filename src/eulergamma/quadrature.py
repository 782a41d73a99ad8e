"""Adaptive tanh-sinh quadrature.

The variable change x = mid + halfspan * tanh((pi/2) * sinh(t)) pushes the
endpoints to t = +/-infinity and makes the transformed integrand decay doubly
exponentially, so the plain trapezoid rule in t converges at near-spectral
rate even when f blows up (integrably) at an endpoint.  Refinement halves the
step h and reuses every node already evaluated: the level-j estimate is

    I_j = I_{j-1} / 2 + h_j * sum over odd k of w(k h_j) f(x(k h_j)),

Nodes beyond |t| = 6.1 carry weights below the double-precision underflow
threshold and are never visited.

Refinement stops at the first level j that passes one of two tests, each
against the bar rel_tol * |I_j| (for callables, at least abs_tol):

* the change test: d_j = |I_j - I_{j-1}| meets the bar, and is reported as
  the error estimate;
* the extrapolated test, tried from level 3 on when the change test fails.
  Each halving of h roughly squares the error, so once the last three
  relative changes r_i = d_i / |I_j| contract quadratically (r_{j-2} < 1,
  r_{j-1} <= r_{j-2}^1.5 and r_j <= r_{j-1}^1.5), I_j is already good to
  about r_j^2 / r_{j-1} (Borwein, Bailey and Girgensohn).  The estimate
  EXTRAPOLATION_C * r_j^2 / r_{j-1} * |I_j| must meet the bar, and is
  reported.  Where it fires it saves the level the change test would
  compute; it never adds one.

A bar of 0 is met by neither test: a family value of 0, as when every node
of S(1.7e308, 1; 2) underflows, is not known to be the integral, and is
reported unconverged.

Either estimate is raised to at least the rounding floor
ROUNDING_K * eps * (1 + e) * |I_j|, with e the sum of the |powers| the
integrand raises x, 1 - x, 1 - x^n or -log x to, which ``backend`` keeps
beside each family's node loop (0 for a callable): the error rounding alone
leaves in a value.  So no converged estimate is 0.

C = 1000, the exponent 1.5 and K = 16 were set against a seeded 30-digit
mpmath sweep (``tests/test_error_estimates.py``): no true error exceeds its
estimate while every endpoint exponent (x and y for beta, p and q/n for
Euler's symbol) is at least 0.05.  C = 100 under-reported S(2.26, 2.64; 10)
3.7 times, its level changes dropping faster than the error that was left;
K = 4 under-reported cos over (0, b) for b near 3, where the integrand's
two signs cancel.  Below an endpoint exponent of 0.05 the nodes stop at
``backend.T_MAX`` before the endpoint's mass is resolved, and an estimate
there may fall below its true error under either test.

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
import sys
from typing import Callable, NamedTuple

from . import backend
from .errors import DomainError, finite, positive

# Family integrals already computed in the current suite run, keyed on every
# input of ``_integrate_family``.  ``identities.run_suite`` sets a fresh dict
# for the length of one run; everywhere else it is None and nothing is kept.
suite_memo = contextvars.ContextVar("suite_memo", default=None)

# The extrapolated stop and the rounding floor; see the module docstring.
EXTRAPOLATION_C = 1000.0
CONTRACTION = 1.5
ROUNDING_K = 16.0
EPSILON = sys.float_info.epsilon


# The most step halvings a QuadratureConfig allows, and the default.  Each
# halving doubles the nodes, so an integral that does not converge evaluates
# at most 49,971, and every level a quadrature visits has h >= 2^-12, which
# ``backend`` stores.  Past 12 the new nodes fall where h = 2^-12 already
# resolves the integrand, and the error left is the truncation at
# ``backend.T_MAX``, which no halving mends: in a seeded sweep of family
# integrals, halvings 13 to 20 certified none that 12 had left unconverged,
# and certified some wrong ones (see the README).
MAX_REFINEMENTS = 12


class QuadratureConfig:
    """Tolerances and budget for the adaptive refinement.

    abs_tol, rel_tol
        Refinement stops once the level-to-level change, or the extrapolated
        error, is at or below ``rel_tol * |value|`` (see the module
        docstring).  For arbitrary callables the bar is
        ``max(abs_tol, rel_tol * |value|)``, so an integral of zero (say
        cos over (0, pi)) still converges.  The built-in integrand families
        are positive and ignore ``abs_tol``: a floor would accept any
        integral smaller than it, however wrong.  A ``rel_tol`` below the
        rounding floor, ROUNDING_K * eps * (1 + e), cannot be met.
    max_refinements
        Number of step halvings allowed past the coarsest level, an int in
        1..MAX_REFINEMENTS.

    A config is an immutable value: it stores the floats and the int it
    validated (a bool is refused), compares and hashes by its three fields,
    and refuses assignment.  The suite memo keys on it.
    """

    __slots__ = ("abs_tol", "rel_tol", "max_refinements")

    def __init__(self, abs_tol=1e-12, rel_tol=1e-11, max_refinements=MAX_REFINEMENTS):
        if isinstance(abs_tol, bool) or isinstance(rel_tol, bool):
            raise DomainError("abs_tol and rel_tol must be numbers, not bools")
        if (isinstance(max_refinements, bool) or not isinstance(max_refinements, int)
                or not 1 <= max_refinements <= MAX_REFINEMENTS):
            raise ValueError(
                f"max_refinements must be an integer in 1..{MAX_REFINEMENTS}")
        store = object.__setattr__
        store(self, "abs_tol", positive(abs_tol, "abs_tol"))
        store(self, "rel_tol", positive(rel_tol, "rel_tol"))
        store(self, "max_refinements", int(max_refinements))

    def _key(self):
        return (self.abs_tol, self.rel_tol, self.max_refinements)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"QuadratureConfig(abs_tol={self.abs_tol!r}, rel_tol={self.rel_tol!r}, "
                f"max_refinements={self.max_refinements!r})")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, which validates again
        return (QuadratureConfig, self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadratureConfig is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadratureConfig is immutable: cannot delete {name!r}")


DEFAULT_CONFIG = QuadratureConfig()


class IntegralEstimate(NamedTuple):
    """Result of one adaptive integration.

    ``evaluations`` counts the distinct nodes the integrand was evaluated
    at, over every level: the centre node once, though a family's loop
    adds its value there from both ends.

    ``error_estimate`` is the last level's change or, where the extrapolated
    test stopped the refinement, the extrapolated error; either is at least
    the rounding floor (see the module docstring).  ``converged`` is True
    exactly when ``value`` is finite and ``error_estimate`` met the
    configured tolerance, a bar of 0 being met by none; a False value still
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


def _rounding_floor(family, p0, p1, p2):
    """ROUNDING_K * eps * (1 + e), with e from ``backend.family_powers``
    (0 for a callable): the relative error a value can carry from rounding
    alone.  An unknown family tag raises ValueError, as ``level_sum`` does."""
    powers = 0.0 if family == backend.GENERIC else backend.family_powers(family, p0, p1, p2)
    return ROUNDING_K * EPSILON * (1.0 + powers)


def _extrapolated(d2, d1, d0, size):
    """EXTRAPOLATION_C * r0^2 / r1 * size, where r2, r1, r0 are the last
    three level changes relative to ``size``, once they contract
    quadratically; inf otherwise."""
    r2 = d2 / size
    r1 = d1 / size
    r0 = d0 / size
    if r2 < 1.0 and 0.0 < r1 <= r2 ** CONTRACTION and r0 <= r1 ** CONTRACTION:
        return EXTRAPOLATION_C * r0 * r0 / r1 * size
    return math.inf


def _refine(a, b, config, family, p0, p1, p2, f):
    """Run the level-doubling loop over (a, b); returns an IntegralEstimate."""
    floor = _error_floor(family, config)
    rounding = _rounding_floor(family, p0, p1, p2)
    rel_tol = config.rel_tol
    h = 1.0
    s, n = backend.level_sum(a, b, h, False, family, p0, p1, p2, f)
    value = h * s
    evaluations = n
    error = math.inf
    converged = False
    d2 = d1 = math.inf  # the two level changes before this one
    for _ in range(config.max_refinements):
        if not math.isfinite(value):
            break  # every later change would be inf - inf = nan
        h *= 0.5
        s, n = backend.level_sum(a, b, h, True, family, p0, p1, p2, f)
        new_value = 0.5 * value + h * s
        evaluations += n
        change = abs(new_value - value)
        value = new_value
        size = abs(value)
        least = rounding * size
        bar = rel_tol * size
        if bar < floor:
            bar = floor
        error = change if change > least else least
        if error <= bar and bar > 0.0:
            converged = True
            break
        if d2 < size and bar > 0.0:
            extrapolated = _extrapolated(d2, d1, change, size)
            if extrapolated < least:
                extrapolated = least
            if extrapolated <= bar:
                error = extrapolated
                converged = True
                break
        d2, d1 = d1, change
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
