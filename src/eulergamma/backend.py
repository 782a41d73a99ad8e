"""Tanh-sinh node loop.

``level_sum`` evaluates one refinement level of the quadrature.  It reads
what depends only on the level and the ``EULER_SYMBOL`` exponent from
per-process tables (see below) and dispatches on the integrand family once
per level, to a loop written for that family.  That loop is the one
definition of the family's integrand; ``_FAMILIES`` keeps it beside the sum
e of the |powers| the integrand raises x, 1 - x, 1 - x^n or -log x to, which
``quadrature`` reads through ``family_powers`` for its rounding floor.  The
built-in families are defined on (0, 1) alone; arbitrary callables take any
finite interval.

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

* ``_node_tables``, keyed on (h, odd_only): each node's (dm, ch, ez2,
  (1 + ez2)^2), the factors of its distance and weight on (-1, 1).  Only
  arbitrary callables read it; the families' rows are computed from the same
  geometry without storing it;
* ``_row_tables``, keyed on (h, odd_only): each node's (w, log(dist),
  log1p(-dist)) on (0, 1), its weight with what the families read of its
  distance.  An even level (``odd_only`` false) starts with the centre row
  ``CENTRE_ROW``, (pi/8, log 1/2, log1p(-1/2)): in binary64 log1p(-1/2) ==
  log 1/2, so a family's two values there are the same v, and
  (pi/8) * (v + v) is the same double as the centre's (pi/4) * v while
  v + v does not overflow (v is at most 4 for every input the engines
  accept);
* ``_symbol_tables``, keyed on (h, odd_only, p2) with p2 in
  ``TABLE_EXPONENTS``, the integers 1..``TABLE_MAX_EXPONENTS`` (16): the
  rows, each extended by the two exponent columns of ``EULER_SYMBOL``,
  log(-expm1(p2 * log1p(-dist))) and log(-expm1(p2 * log(dist))): the log of
  1 - x^p2 at the node near 1 and at the node near 0.  They depend on the
  exponent n = p2 but not on p or q, so every S(p, q; n) with the same n
  reads one table.  An exponent outside ``TABLE_EXPONENTS`` streams its
  columns from the same expressions instead.

The levels a quadrature can visit are h = 2^-j for j in
0..``quadrature.MAX_REFINEMENTS`` (12), which hold 24,985 nodes on each side
of the centre between them, and no level is stored but one it visits.  So the
store is bounded whatever is asked of the engines: all levels of node
geometry hold 4.2 MiB, all levels of rows 3.4 MiB, and all levels of one
exponent 3.2 MiB, 52 MiB for all 16 (tracemalloc).  In practice far less is
stored: the default suite keeps 98 rows (97 nodes and the centre) and 490
rows of columns for its five exponents, and no node geometry.

Finiteness
----------
A family level returns a finite total or raises NonFiniteIntegrandError.
The family loops test nothing per node: in pure Python ``exp`` and ``**``
raise OverflowError rather than return inf, which ``level_sum`` maps to
NonFiniteIntegrandError, and it tests the level's total once after the
loop; the centre node is a row like any other, summed by the same loop.  A
node value that is NaN or infinite makes that total NaN or infinite (every
weight is >= 0 and every other value is >= 0), and so does a sum of finite
terms that overflows; either raises.
The generic-callable loop tests every node instead, since a user's function
must not be called twice, and returns the total as summed.
"""

import math
# Bare names save an attribute lookup per call in the per-node loops.
from math import exp, expm1, isfinite, log, log1p

from .errors import NonFiniteIntegrandError

T_MAX = 6.1
HALF_PI = 1.5707963267948966

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

# The centre node t = 0 of (0, 1), x = 1/2, at half its weight (pi/4): a
# family loop adds its value there twice, once from each end.
CENTRE_ROW = (0.25 * HALF_PI, log(0.5), log1p(-0.5))


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
    """The node geometry of one level, a stored table."""
    table = _node_tables.get((h, odd_only))
    if table is None:
        table = _node_tables[h, odd_only] = tuple(_node_geometry(h, odd_only))
    return table


def _node_count(h, odd_only):
    return len(range(1, int(T_MAX / h) + 1, 2 if odd_only else 1))


def _unit_rows(h, odd_only):
    """(w, log(dist), log1p(-dist)) per node on (0, 1), for the built-in
    families, after ``CENTRE_ROW`` on an even level."""
    if not odd_only:
        yield CENTRE_ROW
    for dm, ch, ez2, opez2sq in _node_geometry(h, odd_only):
        dist = 0.5 * dm
        yield 0.5 * HALF_PI * ch * 4.0 * ez2 / opez2sq, log(dist), log1p(-dist)


def _rows(h, odd_only):
    """The rows of one level, a stored table."""
    table = _row_tables.get((h, odd_only))
    if table is None:
        table = _row_tables[h, odd_only] = tuple(_unit_rows(h, odd_only))
    return table


def _symbol_columns(rows, p2):
    """Each row extended by log(1 - x^p2) at the node near 1 and near 0."""
    for w, ln_dist, ln_1md in rows:
        yield w, ln_dist, ln_1md, log(-expm1(p2 * ln_1md)), log(-expm1(p2 * ln_dist))


def _symbol_rows(rows, h, odd_only, p2):
    """The level's ``rows`` with the EULER_SYMBOL columns of exponent p2: a
    stored table, or a stream for an exponent outside TABLE_EXPONENTS."""
    if p2 not in TABLE_EXPONENTS:
        return _symbol_columns(rows, p2)
    table = _symbol_tables.get((h, odd_only, p2))
    if table is None:
        table = _symbol_tables[h, odd_only, p2] = tuple(_symbol_columns(rows, p2))
    return table


# One loop per family, the only definition of its integrand.  Each reads the
# rows of its level and sums w * (value near 1 + value near 0) in node
# order.  None tests finiteness: ``level_sum`` tests the total once.

def _neg_log_pow_sum(h, odd_only, p0, p1, p2):
    total = 0.0
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * ((-ln_1md) ** p0 + (-ln_dist) ** p0)
    return total


def _beta_sum(h, odd_only, p0, p1, p2):
    total = 0.0
    c0 = p0 - 1.0
    c1 = p1 - 1.0
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * (exp(c0 * ln_1md + c1 * ln_dist) + exp(c0 * ln_dist + c1 * ln_1md))
    return total


def _euler_symbol_sum(h, odd_only, p0, p1, p2):
    total = 0.0
    c0 = p0 - 1.0
    # c1 before the exponent columns: an invalid exponent such as 0 meets
    # p1 / p2 first, on every level, since the centre is a row of the loop.
    c1 = p1 / p2 - 1.0
    rows = _symbol_rows(_rows(h, odd_only), h, odd_only, p2)
    for w, ln_dist, ln_1md, ln_1mxn_p, ln_1mxn_m in rows:
        total += w * (exp(c0 * ln_1md + c1 * ln_1mxn_p) + exp(c0 * ln_dist + c1 * ln_1mxn_m))
    return total


def _algebraic_sum(h, odd_only, p0, p1, p2):
    total = 0.0
    for w, ln_dist, ln_1md in _rows(h, odd_only):
        total += w * (exp(p1 * (p0 * ln_1md + ln_dist)) + exp(p1 * (p0 * ln_dist + ln_1md)))
    return total


# Each family's loop, and the sum e of the |powers| its integrand raises x,
# 1 - x, 1 - x^n or -log x to.
_FAMILIES = {
    NEG_LOG_POW: (_neg_log_pow_sum, lambda p0, p1, p2: p0),
    BETA: (_beta_sum, lambda p0, p1, p2: abs(p0 - 1.0) + abs(p1 - 1.0)),
    EULER_SYMBOL: (_euler_symbol_sum, lambda p0, p1, p2: abs(p0 - 1.0) + abs(p1 / p2 - 1.0)),
    ALGEBRAIC: (_algebraic_sum, lambda p0, p1, p2: p1 * (p0 + 1.0)),
}


def _family(family):
    """The (loop, powers) row of a built-in family; ValueError for any other tag."""
    row = _FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown integrand family {family}")
    return row


def family_powers(family, p0, p1, p2):
    """The sum e of the |powers| a built-in family's integrand raises x,
    1 - x, 1 - x^n or -log x to."""
    return _family(family)[1](p0, p1, p2)


def level_sum(a, b, h, odd_only, family, p0, p1, p2, f):
    """Sum weighted integrand values at the tanh-sinh nodes of spacing ``h``.

    With ``odd_only`` set, only odd multiples of ``h`` are visited; this is
    how a refinement level reuses the coarser level's nodes.  Returns the
    weighted sum (to be scaled by ``h`` by the caller) and the number of
    distinct nodes evaluated.  A built-in family's total is finite, or the
    level raises NonFiniteIntegrandError (see the module docstring); a family
    asked for over an interval other than (0, 1) raises ValueError.
    """
    if family != GENERIC:
        family_sum = _family(family)[0]
        if (a, b) != (0.0, 1.0):
            raise ValueError(f"integrand family {family} is defined on (0, 1) only")
        try:
            total = family_sum(h, odd_only, p0, p1, p2)
        except OverflowError:
            raise NonFiniteIntegrandError("integrand not finite") from None
        if not isfinite(total):
            raise NonFiniteIntegrandError("integrand not finite")
        # The centre row is one node, though its loop adds it from both ends.
        return total, (not odd_only) + 2 * _node_count(h, odd_only)

    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    total = 0.0
    n = 0
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
