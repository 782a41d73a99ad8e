"""Tanh-sinh node loop.

``level_sum`` evaluates one refinement level of the quadrature.  It reads
what depends only on the level and the ``EULER_SYMBOL`` exponent from
per-process tables (see below) and dispatches on the integrand family once
per level, to a loop written for that family.  The built-in families are
defined on (0, 1) alone; arbitrary callables take any finite interval.

Node geometry
-------------
The substitution x(t) = mid + halfspan * tanh((pi/2) * sinh(t)) maps the real
line onto (a, b).  Nodes are never materialised as raw abscissae: what is
carried instead is each node's distance to its nearest endpoint,

    dist = halfspan * (1 - tanh(z)) = halfspan * 2 * exp(-2z) / (1 + exp(-2z)),

which stays accurate down to ~1e-304 * halfspan while ``b - x`` would round to
zero long before.  Built-in integrand families consume ``dist`` directly, as
x or 1 - x on (0, 1) with halfspan 0.5, and therefore resolve endpoint
singularities to the last bit.  Arbitrary callables get x = a + dist or
x = b - dist and skip nodes that round onto an endpoint.

Stored tables
-------------
Every table is a pure function of its key, kept for the life of the process,
and published only once complete, so sharing one process-wide (and two
threads racing to build the same one) never changes a result.  A level
needs them before any integrand is evaluated:

* ``_node_tables``, keyed on (h, odd_only) with h >= ``TABLE_MIN_H``: each
  node's (dm, ch, ez2, (1 + ez2)^2), the factors of its distance and weight
  on (-1, 1);
* ``_row_tables``, keyed on (h, odd_only) with h >= ``TABLE_MIN_H``: each
  node's (w, log(dist), log1p(-dist)) on (0, 1), its weight with what the
  families read of its distance;
* ``_symbol_tables``, keyed on (h, odd_only, p2) with h >= ``TABLE_MIN_H``
  and p2 in ``TABLE_EXPONENTS``, the integers 1..``TABLE_MAX_EXPONENTS``
  (16): the rows, each extended by the two exponent columns of
  ``EULER_SYMBOL``, log(-expm1(p2 * log1p(-dist))) and
  log(-expm1(p2 * log(dist))): the log of 1 - x^p2 at the node near 1 and
  at the node near 0.  They depend on the exponent n = p2 but not on p or
  q, so every S(p, q; n) with the same n reads one table.

A level with h < ``TABLE_MIN_H``, or an exponent outside
``TABLE_EXPONENTS``, streams from the same expressions instead, so the
store is bounded whatever is asked of it.  With the default
``max_refinements`` of 12 every level a quadrature visits is stored, at most
24,985 nodes.  All levels of node geometry hold 4.2 MiB, all levels of rows
3.4 MiB, and all levels of one exponent 3.2 MiB, 52 MiB for all 16
(tracemalloc).  In practice far less is stored: the default suite keeps 97
nodes of rows and 485 rows of columns for its five exponents.

Finiteness
----------
A family level returns a finite total or raises NonFiniteIntegrandError.
The family loops test nothing per node: in pure Python ``exp`` and ``**``
raise OverflowError rather than return inf, which ``level_sum`` maps to
NonFiniteIntegrandError, and it tests the level's total, centre node
included, once after the loop.  A node value that is NaN or infinite makes
that total NaN or infinite (every weight is >= 0 and every other value is
>= 0), and so does a sum of finite terms that overflows; either raises.
The generic-callable loop tests every node instead, since a user's function
must not be called twice, and returns the total as summed.
"""

import math
# Bare names save an attribute lookup per call in the per-node loops.
from math import exp, expm1, isfinite, log, log1p

from .errors import NonFiniteIntegrandError

T_MAX = 6.1
HALF_PI = 1.5707963267948966

TABLE_MIN_H = 2.0 ** -12
TABLE_MAX_EXPONENTS = 16
TABLE_EXPONENTS = frozenset(range(1, TABLE_MAX_EXPONENTS + 1))
_node_tables = {}
_row_tables = {}
_symbol_tables = {}

# Integrand family tags.
GENERIC = 0
NEG_LOG_POW = 2     # (-log x)^p0              on (0, 1)
BETA = 3            # x^(p0-1) (1-x)^(p1-1)    on (0, 1)
EULER_SYMBOL = 4    # x^(p0-1) (1-x^p2)^(p1/p2 - 1)   on (0, 1)
ALGEBRAIC = 5       # (x^p0 (1-x))^p1          on (0, 1)


def family_value(family, p0, p1, p2, dist, near_upper):
    """Evaluate one built-in integrand at a node.

    ``dist`` is the exact distance to the nearest endpoint; ``near_upper``
    says which endpoint that is.
    """
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


def _node_count(h, odd_only):
    return len(range(1, int(T_MAX / h) + 1, 2 if odd_only else 1))


def _unit_rows(geometry):
    """(w, log(dist), log1p(-dist)) per node on (0, 1), for the built-in families."""
    for dm, ch, ez2, opez2sq in geometry:
        dist = 0.5 * dm
        yield 0.5 * HALF_PI * ch * 4.0 * ez2 / opez2sq, log(dist), log1p(-dist)


def _rows(h, odd_only):
    """The rows of one level: a stored table, or a stream below TABLE_MIN_H."""
    if h < TABLE_MIN_H:
        return _unit_rows(_node_geometry(h, odd_only))
    table = _row_tables.get((h, odd_only))
    if table is None:
        table = _row_tables[h, odd_only] = tuple(_unit_rows(_nodes(h, odd_only)))
    return table


def _symbol_columns(rows, p2):
    """Each row extended by log(1 - x^p2) at the node near 1 and near 0."""
    for w, ln_dist, ln_1md in rows:
        yield w, ln_dist, ln_1md, log(-expm1(p2 * ln_1md)), log(-expm1(p2 * ln_dist))


def _symbol_rows(rows, h, odd_only, p2):
    """The level's ``rows`` with the EULER_SYMBOL columns of exponent p2: a
    stored table, or a stream below TABLE_MIN_H or outside TABLE_EXPONENTS."""
    if h < TABLE_MIN_H or p2 not in TABLE_EXPONENTS:
        return _symbol_columns(rows, p2)
    table = _symbol_tables.get((h, odd_only, p2))
    if table is None:
        table = _symbol_tables[h, odd_only, p2] = tuple(_symbol_columns(rows, p2))
    return table


# One loop per family.  Each reads the rows of its level, adds its terms onto
# ``total`` in node order, and forms the value near 1 and the one near 0
# exactly as ``family_value`` does.  None tests finiteness:
# ``level_sum`` tests the total once.

def _neg_log_pow_sum(h, odd_only, total, p0, p1, p2):
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * ((-ln_1md) ** p0 + (-ln_dist) ** p0)
    return total


def _beta_sum(h, odd_only, total, p0, p1, p2):
    c0 = p0 - 1.0
    c1 = p1 - 1.0
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * (exp(c0 * ln_1md + c1 * ln_dist) + exp(c0 * ln_dist + c1 * ln_1md))
    return total


def _euler_symbol_sum(h, odd_only, total, p0, p1, p2):
    # c1, then the exponent columns: an invalid exponent raises the error
    # that computing each node in turn meets first.
    rows = _rows(h, odd_only)
    c0 = p0 - 1.0
    c1 = p1 / p2 - 1.0
    for w, ln_dist, ln_1md, ln_1mxn_p, ln_1mxn_m in _symbol_rows(rows, h, odd_only, p2):
        total += w * (exp(c0 * ln_1md + c1 * ln_1mxn_p) + exp(c0 * ln_dist + c1 * ln_1mxn_m))
    return total


def _algebraic_sum(h, odd_only, total, p0, p1, p2):
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * (exp(p1 * (p0 * ln_1md + ln_dist)) + exp(p1 * (p0 * ln_dist + ln_1md)))
    return total


_FAMILY_SUMS = {
    NEG_LOG_POW: _neg_log_pow_sum,
    BETA: _beta_sum,
    EULER_SYMBOL: _euler_symbol_sum,
    ALGEBRAIC: _algebraic_sum,
}


def level_sum(a, b, h, odd_only, family, p0, p1, p2, f):
    """Sum weighted integrand values at the tanh-sinh nodes of spacing ``h``.

    With ``odd_only`` set, only odd multiples of ``h`` are visited; this is
    how a refinement level reuses the coarser level's nodes.  Returns the
    weighted sum (to be scaled by ``h`` by the caller) and the number of
    integrand evaluations.  A built-in family's total is finite, or the
    level raises NonFiniteIntegrandError (see the module docstring); a family
    asked for over an interval other than (0, 1) raises ValueError.
    """
    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    n = 0

    if family != GENERIC:
        family_sum = _FAMILY_SUMS.get(family)
        if family_sum is None:
            raise ValueError(f"unknown integrand family {family}")
        if (a, b) != (0.0, 1.0):
            raise ValueError(f"integrand family {family} is defined on (0, 1) only")
        try:
            if not odd_only:
                # Center node t = 0: weight (pi/2)*halfspan, halfspan from either end.
                total += halfspan * HALF_PI * family_value(family, p0, p1, p2, halfspan, False)
                n += 1
            total = family_sum(h, odd_only, total, p0, p1, p2)
        except OverflowError:
            raise NonFiniteIntegrandError("integrand not finite") from None
        if not isfinite(total):
            raise NonFiniteIntegrandError("integrand not finite")
        return total, n + 2 * _node_count(h, odd_only)

    if not odd_only:
        fx = float(f(mid))
        if not math.isfinite(fx):
            raise NonFiniteIntegrandError("integrand not finite")
        total += halfspan * HALF_PI * fx
        n += 1

    for dm, ch, ez2, opez2sq in _nodes(h, odd_only):
        w = halfspan * HALF_PI * ch * 4.0 * ez2 / opez2sq
        dist = halfspan * dm
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

    return total, n
