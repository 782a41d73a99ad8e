"""Tanh-sinh node loop.

``level_sum`` evaluates one refinement level of the quadrature.  It reads
what depends only on the level and the ``EULER_SYMBOL`` exponent from
per-process tables (see below) and dispatches on the integrand family once
per level, to a loop written for that family.  That loop is the one
definition of the family's integrand; ``_FAMILIES`` keeps it beside the sum
e of the |powers| the integrand raises x, 1 - x, 1 - x^n or -log x to and
the family's tail term (see "Tail term" below).  ``quadrature`` reads that
row once per integral, for its rounding floor and the tail it adds to the
error estimate.  The built-in families are defined on (0, 1) alone, and
``level_sum`` trusts its caller for that and for the family's tag;
arbitrary callables take any finite interval.

There are two families, one per integral of the paper: Euler's
(-log x)^s for Gamma, and Euler's symbol S(p, q; n), whose n = 1 is Beta's
x^(p-1) (1-x)^(q-1).  Every other integral the engines take is one of
these, as the algebraic interpolation's (x^k - x^(k+1))^s is
B(ks + 1, s + 1) = S(ks + 1, s + 1; 1).

A family level does its bookkeeping once, in two Python frames,
``level_sum`` and the family's loop: one lookup of the family's entry in
``_FAMILIES``, one lookup of the level's stored rows (``_rows`` builds them
on a miss), which it hands to the family's loop, and a node count read off
the rows the loop visited (two nodes a row, but one for the centre row),
never counted from the level again.  ``EULER_SYMBOL``'s loop looks up its
exponent columns itself.

Stopping a level
----------------
A family loop ends its level at the first row whose term leaves a nonzero
total unchanged (``total + term == total``), counting that row, and still
returns the whole level's total to the bit: rows run from the centre out,
and each family's terms rise to one peak and then fall doubly
exponentially.  Before the peak the k-th term is at least 1/k of the sum so
far, so it changes the total; past the first term that does not, every term
is smaller and changes nothing either.  A total of 0 (every node so far
underflowed) never stops a level.  The default suite evaluates 15,568 nodes
of the 23,936 its levels hold.

This holds for (-log x)^s at every s, and for Euler's symbol while
n <= ``gamma.MAX_N``, which ``euler_symbol`` enforces (Beta is its n = 1).
For larger n, 1 - x^n falls to about n * dist within 1/n of x = 1, so the
near-1 values level off at about pi cosh(t) / n and grow again with
cosh(t); once that plateau falls below the total's last bit, a later term
can rise above it (in seeded level sums, from n near 7e14).  The
generic-callable loop visits every node: a callable may change sign.

A weak endpoint, one whose integrand grows as u^(alpha - 1) with alpha
small, u the distance to it, keeps its terms above the total's last bit
out to ``T_MAX``: in 1,200 seeded Beta and symbol integrals with alpha in
[0.02, 0.05), no level stopped early below alpha = 0.0439, and above it
only levels with h <= 2^-7 did, each past terms below its total's last
bit.  What lies beyond the outermost node is the tail term's to count.

Tail term
---------
The nodes end at t = floor(T_MAX / h) h, a distance delta from each
endpoint, and the mass beyond them is in no level.  Near an endpoint with
exponent alpha and leading coefficient A the integrand is about
A u^(alpha - 1), u the distance to it, so that mass is A delta^alpha / alpha.
A family's tail is that summed over its ends, from (p0, p1, p2, log delta):
the symbol's ends are (A, alpha) = (1, p) at 0 and (n^(q/n - 1), q/n) at 1,
since 1 - x^n is about n (1 - x) there; its end at 1 is taken as
exp((q/n) (log n + log delta)) / q, which cannot overflow.  Beta's ends
are the symbol's at n = 1, (1, p) and (1, q): q / 1 is q and
log 1 + log delta is log delta, so that end's term is the double
exp(q log delta) / q.  (-log x)^s has alpha = s + 1 >= 1 at 1, and at 0
the mass past the nodes is Gamma(s + 1, -log delta), below 1e-144 of
Gamma(s + 1) for every s a level can sum (s <= 110.02, and the engines sum
s <= 99 only), so its tail is 0.
``LOG_EDGE`` holds log delta for each level a quadrature can visit.  Over
8,000 seeded Beta and symbol integrals with every exponent 0.05 or more,
the term stayed below 2.2e-14 of the integral, and over the default
suite's, whose exponents are 1/6 or more, below 2e-46.

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
* ``_row_tables``, keyed on (h, odd_only): each node's (w, -log(dist),
  -log1p(-dist)) on (0, 1), its weight with what the families read of its
  distance, negated: -log x and -log(1 - x) at the node near 0, and the
  other way round at the node near 1.  (-log x)^s reads them as they are,
  and the symbol takes 1 - p for p - 1, which gives the same doubles,
  since IEEE negation is exact and (1 - p) = -(p - 1).  An even
  level (``odd_only`` false) starts with the centre row ``CENTRE_ROW``,
  (pi/8, -log 1/2, -log1p(-1/2)): in binary64 log1p(-1/2) == log 1/2, so a
  family's two values there are the same v, and (pi/8) * (v + v) is the
  same double as the centre's (pi/4) * v while v + v does not overflow (v
  is at most 4 for every input the engines accept);
* ``_symbol_tables``, keyed on (h, odd_only, p2) with p2 in
  ``TABLE_EXPONENTS``, the integers 1..``TABLE_MAX_EXPONENTS`` (16): the
  rows, each extended by the two exponent columns of ``EULER_SYMBOL``,
  -log(-expm1(-p2 * -log1p(-dist))) and -log(-expm1(-p2 * -log(dist))):
  -log(1 - x^p2) at the node near 1 and at the node near 0, read off the
  row's negated logs.  At p2 = 1 they are the row's own -log(dist) and
  -log1p(-dist), since 1 - x^1 is 1 - x: the expressions would be off by
  an ulp or two there, and with the row's logs S(p, q; 1) sums Beta's
  integrand to the bit.  The columns depend on the exponent n = p2 but not
  on p or q, so every S(p, q; n) with the same n reads one table.  An
  exponent outside ``TABLE_EXPONENTS`` streams its columns from the same
  expressions instead.

The levels a quadrature can visit are h = 2^-j for j in
0..``quadrature.MAX_REFINEMENTS`` (12), which hold 24,985 nodes on each side
of the centre between them, and no level is stored but one it visits.  So the
store is bounded whatever is asked of the engines: all levels of node
geometry hold 4.2 MiB, all levels of rows 3.4 MiB, and all levels of one
exponent 3.2 MiB, 52 MiB for all 16 (tracemalloc).  In practice far less is
stored: the default suite keeps 98 rows (97 nodes and the centre) and 588
rows of columns for its six exponents (n = 1 for its Beta integrals), and
no node geometry.

Finiteness
----------
A family level returns a finite total or raises NonFiniteIntegrandError.
The family loops test nothing per node: in pure Python ``exp`` and ``**``
raise OverflowError rather than return inf, which ``level_sum`` maps to
NonFiniteIntegrandError, and it tests the level's total once after the
loop; the centre node is a row like any other, summed by the same loop.  A
node value that is NaN or infinite makes that total NaN or infinite (every
weight is >= 0 and every other value is >= 0), and so does a sum of finite
terms that overflows; either raises.  The stop hides neither: a total that
is NaN or infinite stays so.  A node past the row where a level stops is
never evaluated, so its overflow raises nothing: (-log x)^s overflows at
the outermost nodes from s = 108.44, but a level reaches such a node only
from about s = 110.02, at t = 6 of the coarsest level.  Both are reached
only by calling the family directly: the gamma engines lift s to at most
99 (``gamma._lift``).
The generic-callable loop tests every node instead, since a user's function
must not be called twice, and returns the total as summed.
"""

import math
# Bare names save an attribute lookup per call in the per-node loops.
from math import exp, expm1, isfinite, log, log1p
from operator import length_hint

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
NEG_LOG_POW = 2     # (-log x)^p0                     on (0, 1)
EULER_SYMBOL = 4    # x^(p0-1) (1-x^p2)^(p1/p2 - 1)   on (0, 1)

# The centre node t = 0 of (0, 1), x = 1/2, at half its weight (pi/4): a
# family loop adds its value there twice, once from each end.
CENTRE_ROW = (0.25 * HALF_PI, -log(0.5), -log1p(-0.5))


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


def _unit_rows(h, odd_only):
    """(w, -log(dist), -log1p(-dist)) per node on (0, 1), for the built-in
    families, after ``CENTRE_ROW`` on an even level."""
    if not odd_only:
        yield CENTRE_ROW
    for dm, ch, ez2, opez2sq in _node_geometry(h, odd_only):
        dist = 0.5 * dm
        yield 0.5 * HALF_PI * ch * 4.0 * ez2 / opez2sq, -log(dist), -log1p(-dist)


def _rows(h, odd_only):
    """The rows of one level, a stored table."""
    table = _row_tables.get((h, odd_only))
    if table is None:
        table = _row_tables[h, odd_only] = tuple(_unit_rows(h, odd_only))
    return table


def _symbol_columns(rows, p2):
    """Each row extended by -log(1 - x^p2) at the node near 1 and near 0:
    at p2 = 1, by the row's own negated logs, exactly."""
    if p2 == 1.0:
        for w, nl_dist, nl_1md in rows:
            yield w, nl_dist, nl_1md, nl_dist, nl_1md
        return
    for w, nl_dist, nl_1md in rows:
        yield w, nl_dist, nl_1md, -log(-expm1(-p2 * nl_1md)), -log(-expm1(-p2 * nl_dist))


# One loop per family, the only definition of its integrand.  Each reads the
# rows ``level_sum`` fetched for its level and sums w * (value near 1 + value
# near 0) in node order, up to the first row whose term leaves a nonzero
# total unchanged (see the module docstring).  It returns the total and the
# rows it visited, the stopping row included, read off what its iterator
# over a stored tuple has left.  None tests finiteness: ``level_sum`` tests
# the total once.  The rows hold negated logs, so the symbol takes its
# exponents negated too: (1 - p) * -log x is the double (p - 1) * log x.

def _neg_log_pow_sum(rows, h, odd_only, p0, p1, p2):
    total = 0.0
    source = iter(rows)
    for w, nl_dist, nl_1md in source:
        new = total + w * (nl_1md ** p0 + nl_dist ** p0)
        if new == total and total:
            break
        total = new
    return total, len(rows) - length_hint(source)


def _euler_symbol_sum(rows, h, odd_only, p0, p1, p2):
    total = 0.0
    c0 = 1.0 - p0
    # c1 before the exponent columns: an invalid exponent such as 0 meets
    # p1 / p2 first, on every level, since the centre is a row of the loop.
    c1 = 1.0 - p1 / p2
    # The level's rows with the exponent columns of p2: a stored table, or
    # for an exponent outside TABLE_EXPONENTS a stream that draws one row
    # from ``source`` per row it yields.
    if p2 in TABLE_EXPONENTS:
        table = _symbol_tables.get((h, odd_only, p2))
        if table is None:
            table = _symbol_tables[h, odd_only, p2] = tuple(_symbol_columns(rows, p2))
        columns = source = iter(table)
    else:
        source = iter(rows)
        columns = _symbol_columns(source, p2)
    for w, nl_dist, nl_1md, nl_1mxn_p, nl_1mxn_m in columns:
        new = total + w * (exp(c0 * nl_1md + c1 * nl_1mxn_p) + exp(c0 * nl_dist + c1 * nl_1mxn_m))
        if new == total and total:
            break
        total = new
    return total, len(rows) - length_hint(source)


# Each family's loop; the sum e of the |powers| its integrand raises x,
# 1 - x, 1 - x^n or -log x to; and its tail, the mass A delta^alpha / alpha
# beyond the outermost node, summed over the ends, from log delta (see the
# module docstring).  B(p, q) is S(p, q; 1): at n = 1 the symbol's loop,
# power sum and tail give Beta's doubles.
_FAMILIES = {
    NEG_LOG_POW: (_neg_log_pow_sum, lambda p0, p1, p2: p0, lambda p0, p1, p2, ld: 0.0),
    EULER_SYMBOL: (_euler_symbol_sum, lambda p0, p1, p2: abs(p0 - 1.0) + abs(p1 / p2 - 1.0),
                   lambda p0, p1, p2, ld: exp(p0 * ld) / p0 + exp(p1 / p2 * (log(p2) + ld)) / p1),
}


def _log_edge(h):
    """log of the distance to its endpoint of the outermost node of level h,
    t = floor(T_MAX / h) h: e^(-2z) / (1 + e^(-2z)) with z = (pi/2) sinh t."""
    z = HALF_PI * math.sinh(int(T_MAX / h) * h)
    return -2.0 * z - log1p(exp(-2.0 * z))


# ``_log_edge`` of each level a quadrature can visit, h = 2^-j for j in
# 0..``quadrature.MAX_REFINEMENTS`` (12).
LOG_EDGE = {0.5 ** j: _log_edge(0.5 ** j) for j in range(13)}


def level_sum(a, b, h, odd_only, family, p0, p1, p2, f):
    """Sum weighted integrand values at the tanh-sinh nodes of spacing ``h``.

    With ``odd_only`` set, only odd multiples of ``h`` are visited; this is
    how a refinement level reuses the coarser level's nodes.  Returns the
    weighted sum (to be scaled by ``h`` by the caller) and the number of
    distinct nodes evaluated, up to the row where a built-in family's loop
    stops.  A built-in family's total is finite, or the level raises
    NonFiniteIntegrandError (see the module docstring).  A family ignores
    ``a`` and ``b``: its rows describe (0, 1), the interval every caller
    passes it.
    """
    if family != GENERIC:
        rows = _row_tables.get((h, odd_only)) or _rows(h, odd_only)
        try:
            total, visited = _FAMILIES[family][0](rows, h, odd_only, p0, p1, p2)
        except OverflowError:
            raise NonFiniteIntegrandError("integrand not finite") from None
        if not isfinite(total):
            raise NonFiniteIntegrandError("integrand not finite")
        # Two values per row, but the centre row is one node.
        return total, 2 * visited - (not odd_only)

    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    # The first product of every weight's left-to-right chain: taken once,
    # each weight is still the same double.
    scale = halfspan * HALF_PI
    total = 0.0
    n = 0
    if not odd_only:
        fx = float(f(mid))
        if not isfinite(fx):
            raise NonFiniteIntegrandError("integrand not finite")
        total += scale * fx
        n += 1

    for dm, ch, ez2, opez2sq in _nodes(h, odd_only):
        w = scale * ch * 4.0 * ez2 / opez2sq
        dist = halfspan * dm
        xp = b - dist
        if xp != b:
            fx = float(f(xp))
            if not isfinite(fx):
                raise NonFiniteIntegrandError("integrand not finite")
            total += w * fx
            n += 1
        xm = a + dist
        if xm != a:
            fx = float(f(xm))
            if not isfinite(fx):
                raise NonFiniteIntegrandError("integrand not finite")
            total += w * fx
            n += 1

    return total, n
