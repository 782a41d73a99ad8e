"""Adaptive tanh-sinh quadrature.

The variable change x = mid + halfspan * tanh((pi/2) * sinh(t)) pushes the
endpoints to t = +/-infinity and makes the transformed integrand decay doubly
exponentially, so the plain trapezoid rule in t converges at near-spectral
rate even when f blows up (integrably) at an endpoint.  Refinement halves the
step h and reuses every node already evaluated: the level-j estimate is

    I_j = I_{j-1} / 2 + h_j * sum over odd k of w(k h_j) f(x(k h_j)),

Nodes beyond |t| = 6.1 carry weights below the double-precision underflow
threshold and are never visited; a built-in family's level stops sooner,
at the first node whose term leaves its sum unchanged (see ``backend``).

Refinement stops at the first level j that passes one of two tests, each
against the bar REL_TOL * |I_j| (for callables, at least ABS_TOL):

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

A family integral also stops, unconverged and with an estimate of inf, at
the first level that passes neither test while its tail term (see below)
at the finest level, the least any level can reach, exceeds a nonzero
bar: a later level could converge only if its value grew past that tail
over REL_TOL, and in the seeded sweeps of the README no integral that
converges without this stop is stopped by it.  A quadrature that passes neither test
within MAX_REFINEMENTS halvings is reported unconverged.  A bar of 0 is met
by neither test nor stops on the tail: a family value of 0, as when every
node of S(1.7e308, 1; 2) underflows, is not known to be the integral, and
is reported unconverged.  But where the first level sums to 0 and the
family's integrand is bounded, with a peak below 2^-1075
(``UNDERFLOW_LOG``, against the log peak of the family's row, see
``backend``), the integral, less than its peak, rounds to 0, as does every
node of every level: the quadrature stops there, with value 0, unconverged
and an estimate of inf, as the stop on the tail reports.  B(1e4, 1e4)
takes 13 nodes, not 49,971.  The margin of 1e-6 is over two million times
the log peak's worst error near the threshold.  An unbounded integrand,
as S(1.7e308, 1; 2)'s at x = 1, still runs every level.

Either estimate is raised to at least the rounding floor
ROUNDING_K * eps * (1 + e) * |I_j|, with e the sum of the |powers| the
integrand raises x, 1 - x, 1 - x^n or -log x to (0 for a callable): the
error rounding alone leaves in a value.  So no converged estimate is 0.
The driver reads e and the tail term below from the family's one row of
``backend._FAMILIES``, once per integral.

A family integral's estimate then takes its tail term (see ``backend``):
the mass beyond the outermost node of the last level, which neither test
sees, since no level has a node there.  It is added once, after the
refinement, to the estimate and never to the value, and the quadrature is
converged only if the sum still meets the bar.  Below an endpoint exponent
of about 0.05 (p and q/n for Euler's symbol, so x and y for beta, its
n = 1) that mass nears or passes the bar, and most such integrals are
reported unconverged, most after two levels, by the stop on the tail.
Above it the term is below 2.2e-14 of the integral; over 1,000 seeded
integrals of the four engines it moved no bit of an estimate whose
smallest exponent was above 0.109.

C = 1000, the exponent 1.5 and K = 16 were set against a seeded 30-digit
mpmath sweep (``tests/test_error_estimates.py``): no true error exceeds its
estimate while every endpoint exponent (p and q/n for Euler's symbol, so
x and y for beta, its n = 1, and ks + 1 and s + 1 for the algebraic
interpolation's B(ks + 1, s + 1)) is at least 0.05.  C = 100
under-reported S(2.26, 2.64; 10) 3.7 times, its level changes dropping
faster than the error that was left;
K = 4 under-reported cos over (0, b) for b near 3, where the integrand's
two signs cancel.  Below an exponent of 0.05 the same file's second sweep,
with exponents down to 1e-300, finds every estimate at or above its true
error or unconverged.

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
from .errors import DomainError, finite

# Family integrals already computed in the current suite run, keyed on every
# input of ``_integrate_family``.  ``identities.run_suite`` sets a fresh dict
# for the length of one run; everywhere else it is None and nothing is kept.
suite_memo = contextvars.ContextVar("suite_memo", default=None)

# The extrapolated stop and the rounding floor; see the module docstring.
EXTRAPOLATION_C = 1000.0
CONTRACTION = 1.5
ROUNDING_K = 16.0
EPSILON = sys.float_info.epsilon


# log 2^-1075, below which a double rounds to 0, less a margin for the
# rounding of a family's log peak (see the module docstring).
UNDERFLOW_LOG = -1075.0 * math.log(2.0) - 1e-6

# The bar's relative tolerance, and its absolute floor for arbitrary
# callables only, so that an integral of 0 (cos over (0, pi)) converges.
# The built-in families are positive and take no floor, which would accept
# any integral smaller than it, however wrong.  The constants above and the
# tolerances of ``identities`` were fitted at REL_TOL and MAX_REFINEMENTS;
# no caller sets another.
REL_TOL = 1e-11
ABS_TOL = 1e-12

# The most step halvings past the coarsest level.  Each halving doubles the
# nodes, so an integral that does not converge evaluates at most 49,971
# (fewer where its levels stop before T_MAX or its tail stops it early), and
# every level a quadrature visits has h >= 2^-12, which ``backend`` stores.
# Past 12 the new nodes fall where h = 2^-12 already resolves the integrand,
# and the error left is the truncation at ``backend.T_MAX``, which no halving
# mends: in a seeded sweep of family integrals, halvings 13 to 20 certified
# none that 12 had left unconverged, and certified some wrong ones (see the
# README).
MAX_REFINEMENTS = 12


class IntegralEstimate(NamedTuple):
    """Result of one adaptive integration.

    ``evaluations`` counts the distinct nodes the integrand was evaluated
    at, over every level: the centre node once, though a family's loop
    adds its value there from both ends.  A family's level stops at the
    first node pair that cannot change its sum (see ``backend``), so this
    can be fewer than the nodes of the levels visited.

    ``error_estimate`` is the last level's change or, where the extrapolated
    test stopped the refinement, the extrapolated error; either is at least
    the rounding floor, and a built-in family's adds its tail term, the mass
    beyond the outermost node (see the module docstring).  ``converged`` is
    True exactly when ``value`` is finite and ``error_estimate`` met the bar
    of the module docstring, a bar of 0 being met by none; a False value still
    carries the best estimate found.  Refinement stops at the first level
    whose value is not finite, and reports an ``error_estimate`` of inf.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


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


def _refine(a, b, family, p0, p1, p2, f):
    """Run the level-doubling loop over (a, b); returns an IntegralEstimate.

    A family's row of ``backend._FAMILIES`` is read once, for the power sum
    e of the rounding floor, the tail term and the log peak; a callable
    takes e = 0, no tail, no peak and the bar's floor ABS_TOL.
    ``backend.level_sum``, ``math.isfinite`` and ``REL_TOL`` are bound once
    per quadrature, as locals, rather than looked up on every level.  They
    are bound when the call starts, not at import, so a tracer or a test
    that replaces one of them beforehand still takes effect.
    """
    level_sum = backend.level_sum
    isfinite = math.isfinite
    rel_tol = REL_TOL
    floor, rounding, tail, least_tail, log_peak = ABS_TOL, ROUNDING_K * EPSILON, None, 0.0, None
    if family != backend.GENERIC:
        _, powers, tail, log_peak = backend._FAMILIES[family]
        floor, rounding = 0.0, rounding * (1.0 + powers(p0, p1, p2))
        # the tail at the finest level, the least any level can reach
        least_tail = tail(p0, p1, p2, backend.LOG_EDGE[0.5 ** MAX_REFINEMENTS])
    h = 1.0
    value, evaluations = level_sum(a, b, h, False, family, p0, p1, p2, f)
    if not value and log_peak is not None and log_peak(p0, p1, p2) < UNDERFLOW_LOG:
        return IntegralEstimate(0.0, math.inf, evaluations, False)  # no level can sum more
    error = math.inf
    converged = False
    d2 = d1 = math.inf  # the two level changes before this one
    for _ in range(MAX_REFINEMENTS):
        if not isfinite(value):
            break  # every later change would be inf - inf = nan
        h *= 0.5
        s, n = level_sum(a, b, h, True, family, p0, p1, p2, f)
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
        if least_tail > bar > 0.0:
            error = math.inf  # even the least tail passes the bar
            break
        d2, d1 = d1, change
    if not isfinite(value):
        # An infinite value meets the stop rule vacuously (inf <= inf).
        return IntegralEstimate(value, math.inf, evaluations, False)
    if tail is not None:
        # the mass beyond the outermost node, which no level sees
        error += tail(p0, p1, p2, backend.LOG_EDGE[h])
        converged = converged and error <= bar
    return IntegralEstimate(value, error, evaluations, converged)


def integrate_finite(f: Callable[[float], float], a: float, b: float) -> IntegralEstimate:
    """Integrate ``f`` over the finite interval (a, b).

    ``f`` must be finite at every interior node; integrable endpoint
    singularities are fine because the endpoints themselves are never
    evaluated.  Raises NonFiniteIntegrandError if ``f`` returns NaN or an
    infinity, and DomainError for a degenerate interval.
    """
    a, b = finite(a, "a"), finite(b, "b")
    if not a < b:
        raise DomainError("integration bounds must satisfy a < b")
    return _refine(a, b, backend.GENERIC, 0.0, 0.0, 0.0, f)


def _integrate_family(family, p0, p1, p2):
    """Driver for the built-in integrand families, over (0, 1).

    Inside a suite run an equal call returns the estimate already computed;
    a call that raised is not remembered and raises again when repeated.
    """
    memo = suite_memo.get()
    if memo is None:
        return _refine(0.0, 1.0, family, p0, p1, p2, None)
    key = (family, p0, p1, p2)
    estimate = memo.get(key)
    if estimate is None:
        estimate = memo[key] = _refine(0.0, 1.0, family, p0, p1, p2, None)
    return estimate
