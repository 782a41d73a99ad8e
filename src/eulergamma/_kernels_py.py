"""Pure-Python tanh-sinh node loop.

This module does the same per-node arithmetic as ``_kernels.pyx``, so that
either backend produces the same floats; keep the arithmetic order identical
when editing.  The one difference is where node geometry comes from: the
compiled loop computes it inline, this one reads it from per-level tables
(see ``_nodes``) built by the very same expressions.

Node geometry
-------------
The substitution x(t) = mid + halfspan * tanh((pi/2) * sinh(t)) maps the real
line onto (a, b).  Nodes are never materialised as raw abscissae: what is
carried instead is each node's distance to its nearest endpoint,

    dist = halfspan * (1 - tanh(z)) = halfspan * 2 * exp(-2z) / (1 + exp(-2z)),

which stays accurate down to ~1e-304 * halfspan while ``b - x`` would round to
zero long before.  Built-in integrand families consume ``dist`` directly and
therefore resolve endpoint singularities to the last bit.  Arbitrary callables
get x = a + dist or x = b - dist and skip nodes that round onto an endpoint.
"""

import math

from .errors import NonFiniteIntegrandError

T_MAX = 6.1
HALF_PI = 1.5707963267948966

# Levels with a step at least this coarse keep their node geometry for the
# life of the process: with the default ``max_refinements`` of 12 that is
# every level a quadrature visits, about 25k nodes (4 MB) in all; the default
# suite touches 97 of them.  Finer levels stream their nodes instead of
# storing them.  A table depends only on its key, so sharing one process-wide
# (and two threads racing to build the same one) never changes a result.
TABLE_MIN_H = 2.0 ** -12
_node_tables = {}

# Integrand family tags, shared with the compiled kernel.
GENERIC = 0
GAMMA_TAIL = 1      # t^(p0) * exp(-t)         on (0, T)
NEG_LOG_POW = 2     # (-log x)^p0              on (0, 1)
BETA = 3            # x^(p0-1) (1-x)^(p1-1)    on (0, 1)
EULER_SYMBOL = 4    # x^(p0-1) (1-x^p2)^(p1/p2 - 1)   on (0, 1)
ALGEBRAIC = 5       # (x^p0 (1-x))^p1          on (0, 1)


def family_value(family, p0, p1, p2, x, dist, near_upper):
    """Evaluate one built-in integrand at a node.

    ``dist`` is the exact distance to the nearest endpoint; ``near_upper``
    says which endpoint that is.  ``x`` is the rounded abscissa and is only
    consulted where the nearest endpoint is not the singular one.
    """
    if family == GAMMA_TAIL:
        t = x if near_upper else dist
        return math.exp(p0 * math.log(t) - t)
    if family == NEG_LOG_POW:
        if near_upper:
            ln = -math.log1p(-dist)
        else:
            ln = -math.log(dist)
        return ln ** p0
    if near_upper:
        ln_x = math.log1p(-dist)
        ln_1mx = math.log(dist)
    else:
        ln_x = math.log(dist)
        ln_1mx = math.log1p(-dist)
    if family == BETA:
        return math.exp((p0 - 1.0) * ln_x + (p1 - 1.0) * ln_1mx)
    if family == EULER_SYMBOL:
        ln_1mxn = math.log(-math.expm1(p2 * ln_x))
        return math.exp((p0 - 1.0) * ln_x + (p1 / p2 - 1.0) * ln_1mxn)
    if family == ALGEBRAIC:
        return math.exp(p1 * (p0 * ln_x + ln_1mx))
    raise ValueError(f"unknown integrand family {family}")


def point_value(family, p0, p1, p2, x):
    """Evaluate a built-in integrand at a plain abscissa, used for tail probing."""
    return family_value(family, p0, p1, p2, x, x, False)


def _node_geometry(h, odd_only):
    """Yield (dm, ch, ez2, opez2sq) for the nodes t = k h, 0 < t <= T_MAX.

    ``dm`` is the distance of the node to the nearer endpoint of (-1, 1);
    the others are the factors of its weight.  With ``odd_only`` set, only
    odd k are visited.
    """
    kmax = int(T_MAX / h)
    for k in range(1, kmax + 1, 2 if odd_only else 1):
        t = k * h
        sh = math.sinh(t)
        ch = math.cosh(t)
        z = HALF_PI * sh
        ez2 = math.exp(-2.0 * z)
        opez2 = 1.0 + ez2
        yield 2.0 * ez2 / opez2, ch, ez2, opez2 * opez2


def _nodes(h, odd_only):
    """The node geometry of one level: a stored table, or a stream below TABLE_MIN_H."""
    if h < TABLE_MIN_H:
        return _node_geometry(h, odd_only)
    table = _node_tables.get((h, odd_only))
    if table is None:
        table = _node_tables[h, odd_only] = tuple(_node_geometry(h, odd_only))
    return table


def level_sum(a, b, h, odd_only, family, p0, p1, p2, f):
    """Sum weighted integrand values at the tanh-sinh nodes of spacing ``h``.

    With ``odd_only`` set, only odd multiples of ``h`` are visited; this is
    how a refinement level reuses the coarser level's nodes.  Returns the
    weighted sum (to be scaled by ``h`` by the caller) and the number of
    integrand evaluations.
    """
    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    n = 0

    if not odd_only:
        # Center node t = 0: weight (pi/2)*halfspan, abscissa exactly mid.
        if family == GENERIC:
            fx = float(f(mid))
            if not math.isfinite(fx):
                raise NonFiniteIntegrandError("integrand not finite")
            total += halfspan * HALF_PI * fx
        else:
            v = family_value(family, p0, p1, p2, mid, halfspan, False)
            if not math.isfinite(v):
                raise NonFiniteIntegrandError("integrand not finite")
            total += halfspan * HALF_PI * v
        n += 1

    for dm, ch, ez2, opez2sq in _nodes(h, odd_only):
        w = halfspan * HALF_PI * ch * 4.0 * ez2 / opez2sq
        dist = halfspan * dm

        if family == GENERIC:
            xp = b - dist
            if xp != b:
                fx = float(f(xp))
                if not math.isfinite(fx):
                    raise NonFiniteIntegrandError("integrand not finite")
                total += w * fx
                n += 1
            xm = a + dist
            if xm != a:
                fx = float(f(xm))
                if not math.isfinite(fx):
                    raise NonFiniteIntegrandError("integrand not finite")
                total += w * fx
                n += 1
        else:
            vp = family_value(family, p0, p1, p2, b - dist, dist, True)
            vm = family_value(family, p0, p1, p2, a + dist, dist, False)
            if not (math.isfinite(vp) and math.isfinite(vm)):
                raise NonFiniteIntegrandError("integrand not finite")
            total += w * (vp + vm)
            n += 2

    return total, n
