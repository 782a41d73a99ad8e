"""Quadrature driver tests.

The frozen expected value for the parabola-arch integral is derived first by
an independent midpoint-rule oracle (test_midpoint_oracle_parabola_arch);
everything downstream asserts against the frozen constant, not against the
engine under test.
"""

import gc
import hashlib
import math
import random
import sys
import threading
from collections import Counter

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulergamma
from eulergamma import (
    BACKEND,
    DomainError,
    IntegralEstimate,
    NonFiniteIntegrandError,
    beta_integral,
    euler_symbol,
    gamma_integral,
    gamma_log_integral,
    integrate_finite,
)
from eulergamma import backend as kern
from eulergamma import quadrature
from eulergamma.gamma import MAX_N
from eulergamma.identities import default_grid, run_suite

# integral_0^1 sqrt(x - x^2) dx, the area under one parabola-like arch.
# Equals pi/8; confirmed by the midpoint oracle below before being frozen.
PARABOLA_ARCH = 0.39269908169872414  # == pi/8 in binary64


def _midpoint(f, a, b, panels):
    h = (b - a) / panels
    return h * math.fsum(f(a + (i + 0.5) * h) for i in range(panels))


def test_midpoint_oracle_parabola_arch():
    # Independent of the tanh-sinh machinery entirely.  The integrand's
    # sqrt-type endpoints limit midpoint to O(n^-1.5), so use many panels
    # and a loose-but-decisive tolerance.
    oracle = _midpoint(lambda x: math.sqrt(x - x * x), 0.0, 1.0, 1 << 18)
    assert abs(oracle - PARABOLA_ARCH) < 5e-8
    assert abs(oracle - math.pi / 8) < 5e-8


def test_constant_integrand():
    est = integrate_finite(lambda x: 1.0, 0.0, 1.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-12


def test_inverse_sqrt_endpoint_singularity():
    est = integrate_finite(lambda x: x ** -0.5, 0.0, 1.0)
    assert est.converged
    assert abs(est.value - 2.0) <= 1e-10


def test_parabola_arch():
    est = integrate_finite(lambda x: math.sqrt(x - x * x), 0.0, 1.0)
    assert est.converged
    assert abs(est.value - PARABOLA_ARCH) <= 1e-12


@pytest.mark.parametrize("s", [-0.9, -0.5, -0.1])
def test_endpoint_stress_power_singularity(s):
    est = integrate_finite(lambda x: x ** s, 0.0, 1.0)
    exact = 1.0 / (s + 1.0)
    assert est.converged
    assert abs(est.value - exact) / exact <= 1e-9


def test_singularities_at_both_endpoints():
    # B(1/2, 1/2) = pi.  The generic-callable path resolves a singularity at
    # a nonzero endpoint only down to the float spacing there, so this is
    # held to a looser bar than the x=0 stress cases.
    est = integrate_finite(lambda x: (x * (1.0 - x)) ** -0.5, 0.0, 1.0)
    assert abs(est.value - math.pi) / math.pi <= 1e-7


def test_shifted_interval():
    est = integrate_finite(math.exp, 2.0, 5.0)
    exact = math.exp(5.0) - math.exp(2.0)
    assert est.converged
    assert abs(est.value - exact) / exact <= 1e-13


def test_error_estimate_bounds_true_error():
    est = integrate_finite(lambda x: math.sqrt(x - x * x), 0.0, 1.0)
    assert abs(est.value - PARABOLA_ARCH) <= est.error_estimate + 1e-15


def test_converged_implies_tolerance_met():
    for f, a, b in [(lambda x: x * x, 0.0, 3.0), (math.sin, 0.0, 2.0)]:
        est = integrate_finite(f, a, b)
        assert est.converged
        assert est.error_estimate <= max(quadrature.ABS_TOL, quadrature.REL_TOL * abs(est.value))


def test_non_convergence_is_reported_not_raised(monkeypatch):
    # _refine reads the bar and the budget at call time.
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-30)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-30)
    monkeypatch.setattr(quadrature, "MAX_REFINEMENTS", 2)
    est = integrate_finite(lambda x: x ** -0.9, 0.0, 1.0)
    assert not est.converged
    assert est.error_estimate > 1e-30
    assert est.evaluations == sum(
        kern.level_sum(0.0, 1.0, 0.5 ** j, j > 0, kern.GENERIC, 0.0, 0.0, 0.0, lambda x: 1.0)[1]
        for j in range(3))


def test_nan_integrand_raises():
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        integrate_finite(lambda x: math.nan, 0.0, 1.0)


def test_infinite_integrand_raises():
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        integrate_finite(lambda x: 1.0 if x < 0.5 else math.inf, 0.0, 1.0)


@pytest.mark.parametrize("bad, above", [(math.inf, True), (math.nan, False)])
def test_callable_raises_at_its_first_non_finite_node(bad, above):
    # A callable is tested at every node, near b and near a alike, and is
    # called no more once one value is not finite.
    seen = []

    def f(x):
        seen.append(x)
        return bad if (x > 0.5 if above else x < 0.5) else 1.0

    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        integrate_finite(f, 0, 1)
    *fine, last = seen
    assert (last > 0.5) if above else (last < 0.5)
    assert all((x <= 0.5) if above else (x >= 0.5) for x in fine)


def test_bounds_validation():
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError):
        integrate_finite(lambda x: x, 0.0, math.inf)


def test_max_refinements_is_capped(monkeypatch):
    # Each halving doubles the nodes; the README states the worst case, an
    # integral that never converges, and every level it visits is stored.
    assert quadrature.MAX_REFINEMENTS == 12
    assert (quadrature.REL_TOL, quadrature.ABS_TOL) == (1e-11, 1e-12)
    # sin(1/x) oscillates ever faster towards 0, so no level settles and the
    # loop stops at the cap, h = 2^-12; the nodes that round onto x = 1 are
    # skipped, hence fewer than 49,971.
    steps = []
    level_sum = kern.level_sum
    monkeypatch.setattr(kern, "level_sum", lambda *args: steps.append(args[2]) or level_sum(*args))
    estimate = integrate_finite(lambda x: math.sin(1.0 / x), 0.0, 1.0)
    assert not estimate.converged
    assert estimate.evaluations == 37981
    assert steps == [0.5 ** j for j in range(quadrature.MAX_REFINEMENTS + 1)]
    # A weak endpoint (q/n = 0.0025) whose tail at the finest level already
    # passes the bar stops after its first two levels instead.
    estimate = euler_symbol(1.5, 2.5, 1000)
    assert not estimate.converged
    assert estimate.error_estimate == math.inf
    assert estimate.evaluations == 25


def test_evaluation_count_positive_and_reported():
    est = integrate_finite(lambda x: x, 0.0, 1.0)
    assert est.evaluations > 0


coeffs = st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=5)


def _poly(cs):
    return lambda x: math.fsum(c * x ** i for i, c in enumerate(cs))


@settings(max_examples=40, deadline=None)
@given(coeffs, coeffs, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_linearity(cs_f, cs_g, alpha, beta):
    f, g = _poly(cs_f), _poly(cs_g)
    combined = integrate_finite(lambda x: alpha * f(x) + beta * g(x), 0.0, 1.0)
    part_f = integrate_finite(f, 0.0, 1.0)
    part_g = integrate_finite(g, 0.0, 1.0)
    lhs = combined.value
    rhs = alpha * part_f.value + beta * part_g.value
    budget = (combined.error_estimate
              + abs(alpha) * part_f.error_estimate
              + abs(beta) * part_g.error_estimate
              + 1e-12 * (1.0 + abs(lhs) + abs(rhs)))
    assert abs(lhs - rhs) <= budget


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 1.9))
def test_interval_additivity(c):
    whole = integrate_finite(math.cos, 0.0, 2.0)
    left = integrate_finite(math.cos, 0.0, c)
    right = integrate_finite(math.cos, c, 2.0)
    budget = (whole.error_estimate + left.error_estimate + right.error_estimate
              + 1e-13)
    assert abs(whole.value - (left.value + right.value)) <= budget


# ---------------------------------------------------------------- node tables


def family_value(family, p0, p1, p2, dist, near_upper):
    """Evaluate one built-in integrand at a node.

    ``dist`` is the exact distance to the nearest endpoint; ``near_upper``
    says which endpoint that is.
    """
    if family == kern.NEG_LOG_POW:
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
    if family == kern.EULER_SYMBOL:
        # at n = 1, 1 - x^n is 1 - x: Beta's integrand, from the same logs
        ln_1mxn = ln_1mx if p2 == 1.0 else math.log(-math.expm1(p2 * ln_x))
        return math.exp((p0 - 1.0) * ln_x + (p1 / p2 - 1.0) * ln_1mxn)
    raise ValueError(f"unknown integrand family {family}")


def _inline_level_sum(a, b, h, odd_only, family, p0, p1, p2, f):
    """The node loop with its geometry computed inline at every node, the
    reference that the table-reading loop must match bit for bit.  Each
    family's integrand is written out node by node in ``family_value``, and
    the centre node as halfspan * (pi/2) * f(1/2).

    The total is the whole level's: every node out to T_MAX is summed.  A
    family's count stops at the first row whose term leaves a nonzero total
    unchanged, that row included, where the family loops stop."""
    halfspan = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    kmax = int(kern.T_MAX / h)
    total = 0.0
    n = 0
    stopped = False
    if not odd_only:
        if family == kern.GENERIC:
            fx = float(f(mid))
        else:
            fx = family_value(family, p0, p1, p2, halfspan, False)
        total += halfspan * kern.HALF_PI * fx
        n += 1
    step = 2 if odd_only else 1
    k = 1
    while k <= kmax:
        t = k * h
        sh = math.sinh(t)
        ch = math.cosh(t)
        z = kern.HALF_PI * sh
        ez2 = math.exp(-2.0 * z)
        opez2 = 1.0 + ez2
        dm = 2.0 * ez2 / opez2
        w = halfspan * kern.HALF_PI * ch * 4.0 * ez2 / (opez2 * opez2)
        dist = halfspan * dm
        if family == kern.GENERIC:
            xp = b - dist
            if xp != b:
                total += w * float(f(xp))
                n += 1
            xm = a + dist
            if xm != a:
                total += w * float(f(xm))
                n += 1
        else:
            vp = family_value(family, p0, p1, p2, dist, True)
            vm = family_value(family, p0, p1, p2, dist, False)
            term = w * (vp + vm)
            if not stopped:
                n += 2
                stopped = total + term == total != 0.0
            total += term
        k += step
    return total, n


# (family, p0, p1, p2): every built-in family, on (0, 1), the one interval
# the families are defined on
FAMILY_CASES = [
    (kern.NEG_LOG_POW, 0.0, 0.0, 0.0),
    (kern.NEG_LOG_POW, 60.25, 0.0, 0.0),
    (kern.NEG_LOG_POW, 99.0, 0.0, 0.0),   # gamma_integral(100)
    (kern.NEG_LOG_POW, 108.0, 0.0, 0.0),  # the whole level overflows from 108.44
    (kern.NEG_LOG_POW, 2.5, 0.0, 0.0),
    (kern.NEG_LOG_POW, 0.5, 0.0, 0.0),
    (kern.EULER_SYMBOL, 0.5, 0.5, 1.0),  # Beta, the symbol at n = 1
    (kern.EULER_SYMBOL, 1.5, 1.5, 1.0),
    (kern.EULER_SYMBOL, 1.5, 2.5, 1.0),  # asymmetric: the two ends differ
    (kern.EULER_SYMBOL, 1.0, 1.0, 2.0),
    (kern.EULER_SYMBOL, 3.0, 2.0, 5.0),
    (kern.EULER_SYMBOL, 0.7, 5.4, 9.0),
    (kern.EULER_SYMBOL, 7.0, 4.0, 1.0),        # algebraic-interpolation's B(ks + 1, s + 1):
    (kern.EULER_SYMBOL, 1.25, 1.25, 1.0),      # s below 1
    (kern.EULER_SYMBOL, 5.0, 7.0 / 3.0, 1.0),  # and not an integer
    (kern.EULER_SYMBOL, 4.5, 0.8, 5.0),  # reads the columns of n = 5
    (kern.EULER_SYMBOL, 2.0, 1.5, 2.5),
    (kern.EULER_SYMBOL, 0.5, 7.0, 3.0),  # q > n: vanishes at x = 1
]


def _levels(last):
    """(h, odd_only) for refinement levels 0..last, as ``_refine`` visits them."""
    return [(2.0 ** -level, level > 0) for level in range(last + 1)]


def _assert_levels_equal_inline_geometry(case):
    family, p0, p1, p2 = case
    for h, odd_only in _levels(8):
        # twice: the first call may build the tables, the second reads them
        for _ in range(2):
            got = kern.level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2, None)
            want = _inline_level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2, None)
            assert got[0] == want[0] and got[1] == want[1], (family, h)


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_level_sum_bitwise_equals_inline_geometry(case):
    _assert_levels_equal_inline_geometry(case)


def test_level_sum_bitwise_equals_inline_geometry_generic_callable():
    f = lambda x: math.cos(3.0 * x) / (1.0 + x * x)
    for h, odd_only in _levels(6):
        got = kern.level_sum(-1.0, 2.0, h, odd_only, kern.GENERIC, 0.0, 0.0, 0.0, f)
        want = _inline_level_sum(-1.0, 2.0, h, odd_only, kern.GENERIC, 0.0, 0.0, 0.0, f)
        assert got == want, h


def test_tables_hold_only_the_documented_intervals(monkeypatch):
    # The families are defined on (0, 1) alone, so a row table is keyed on
    # its level and nothing else; the memory bound in the module docstring
    # counts on that.
    monkeypatch.setattr(kern, "_row_tables", {})
    run_suite(default_grid())
    for i in range(60):
        gamma_integral(0.01 * 15000.0 ** (i / 59))
    # One integral that never converges visits every level the cap allows.
    assert not beta_integral(3000.0, 2.0).converged
    keys = set(kern._row_tables)
    assert (1.0, False) in keys
    for h, odd_only in keys:
        assert h >= 2.0 ** -quadrature.MAX_REFINEMENTS
        assert odd_only == (h < 1.0)
    assert min(h for h, _ in keys) == 2.0 ** -12


def test_default_suite_stores_rows_that_start_at_the_centre(monkeypatch):
    # The families read no stored node geometry: only integrate_finite
    # fills _node_tables.  An even level's rows start with the centre node.
    for name in ("_node_tables", "_row_tables", "_symbol_tables"):
        monkeypatch.setattr(kern, name, {})
    run_suite(default_grid())
    assert kern._node_tables == {}
    assert (1.0, False) in kern._row_tables
    assert kern.CENTRE_ROW == (math.pi / 8, -math.log(0.5), -math.log(0.5))
    for h, odd_only in kern._row_tables:
        rows = kern._row_tables[h, odd_only]
        assert len(rows) == (not odd_only) + _node_count(h, odd_only)
        assert (rows[0] == kern.CENTRE_ROW) == (not odd_only)
    for (h, odd_only, p2), rows in kern._symbol_tables.items():
        assert rows[0][:3] == kern._row_tables[h, odd_only][0]


def _node_count(h, odd_only):
    """The nodes t = k h with 0 < t <= T_MAX on one side of the centre,
    counted from the level alone, apart from any stored row."""
    return len(range(1, int(kern.T_MAX / h) + 1, 2 if odd_only else 1))


@pytest.mark.parametrize("family, p0, p1, p2", [
    (kern.NEG_LOG_POW, 2.5, 0.0, 0.0),
    (kern.EULER_SYMBOL, 1.5, 2.5, 1.0),
    (kern.EULER_SYMBOL, 3.0, 2.0, 5.0),
])
def test_level_sum_counts_the_nodes_of_every_level_a_quadrature_visits(family, p0, p1, p2):
    # level_sum reads its count off the rows it visited: 1 + 2k on an even
    # level (the centre and k nodes on each side), 2k on an odd one, with k
    # the rows the loop visited, the row where it stops included.
    for j in range(quadrature.MAX_REFINEMENTS + 1):
        h = 2.0 ** -j
        for odd_only in (False, True):
            k = _node_count(h, odd_only)
            every = 2 * k if odd_only else 1 + 2 * k
            total, n = kern.level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2, None)
            assert (total, n) == _inline_level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2,
                                                   None), (j, odd_only)
            assert n % 2 == (not odd_only) and 0 < n <= every
            if odd_only == (j > 0):
                # a level the quadrature visits: these three stop before T_MAX
                assert n < every, (j, odd_only)


def _level_sum_draws():
    """Seed 34: (family, p0, p1, p2, level) over each family's domain, ends
    included: Beta (the symbol at n = 1) with p and q log-uniform in
    [1e-6, 1e4], (-log x)^s with s in [0, 108.4] (the whole level overflows
    from 108.44), and Euler's symbol with p and q as Beta's and n in
    {1, 2, 16, 17, 1e3, 1e5}, each at a level 0..MAX_REFINEMENTS as a
    quadrature visits it."""
    rng = random.Random(34)
    draws = [(kern.EULER_SYMBOL, p, q, 1.0) for p in (1e-6, 1e4) for q in (1e-6, 1e4)]
    draws += [(kern.NEG_LOG_POW, s, 0.0, 0.0) for s in (0.0, 108.4)]
    draws += [(kern.EULER_SYMBOL, p, q, n) for p, q in ((1e-6, 1e-6), (1e4, 1e4), (1e-6, 1e4))
              for n in (1.0, 1e5)]
    for _ in range(40):
        p, q = _log_uniform(rng, 1e-6, 1e4), _log_uniform(rng, 1e-6, 1e4)
        draws += [(kern.EULER_SYMBOL, p, q, 1.0),
                  (kern.NEG_LOG_POW, rng.uniform(0.0, 108.4), 0.0, 0.0),
                  (kern.EULER_SYMBOL, p, q, rng.choice((1.0, 2.0, 16.0, 17.0, 1e3, 1e5)))]
    return [draw + (rng.randint(0, quadrature.MAX_REFINEMENTS),) for draw in draws]


def test_level_sums_stop_where_the_whole_level_total_no_longer_changes():
    # A family loop stops at the first term that leaves its nonzero total
    # unchanged; past it every term is smaller, so the total is the whole
    # level's to the bit, and the count is the nodes up to that row.
    stopped_early = 0
    for family, p0, p1, p2, j in _level_sum_draws():
        h, odd_only = 2.0 ** -j, j > 0
        got = kern.level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2, None)
        want = _inline_level_sum(0.0, 1.0, h, odd_only, family, p0, p1, p2, None)
        assert got == want, (family, p0, p1, p2, j)
        stopped_early += got[1] < 2 * _node_count(h, odd_only) + (not odd_only)
    assert stopped_early > 0


def test_level_sum_keeps_its_error_order(monkeypatch):
    # An exponent of 0 meets p1 / p2 before any exponent column is read.
    read = []
    monkeypatch.setattr(kern, "_symbol_columns", lambda *args: read.append(args) or ())
    with pytest.raises(ZeroDivisionError):
        kern.level_sum(0.0, 1.0, 1.0, False, kern.EULER_SYMBOL, 1.0, 1.0, 0.0, None)
    assert read == []
    # A callable's infinite value raises at that node: nothing is asked of
    # it after the node that returned inf.
    seen = []

    def f(x):
        seen.append(x)
        return math.inf if len(seen) == 3 else 1.0

    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0.0, 1.0, 1.0, False, kern.GENERIC, 0.0, 0.0, 0.0, f)
    assert len(seen) == 3


def _calls(thunk):
    """Python-level calls made by thunk(), in all, and inside each
    ``backend.level_sum`` call, with the number of those calls.  The
    collector is run before and kept off during thunk(): a generator it
    finalizes there (pytest's ``-k`` parser leaves one) would count too."""
    code = kern.level_sum.__code__
    depth = 0
    calls = inside = levels = 0

    def profile(frame, event, arg):
        nonlocal depth, calls, inside, levels
        if event == "call":
            calls += 1
            if frame.f_code is code:
                levels += 1
                depth += 1
            if depth:
                inside += 1
        elif event == "return" and frame.f_code is code:
            depth -= 1

    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, inside, levels


@pytest.mark.parametrize("thunk, per_level, per_quadrature", [
    # level_sum and the family loop, which finds the stored exponent columns
    # of n = 5 itself; each validated argument costs its validator and
    # errors.number, and each quadrature its family's power sum and its tail
    # term twice, at the finest level up front and at its last level
    pytest.param(lambda: beta_integral(1.5, 2.5), 2, 12, id="beta_integral"),
    pytest.param(lambda: euler_symbol(3.0, 2.0, 5), 2, 16, id="euler_symbol"),
    # Gamma's two engines share the lift (gamma._lift) and the scaling by its
    # factors (gamma._scaled_integral), which hands an unscaled estimate back
    # as it is; x = 50 needs no factor, takes a fifth level and tries the
    # extrapolated stop once
    pytest.param(lambda: gamma_log_integral(2.5), 2, 12, id="gamma_log_integral"),
    pytest.param(lambda: gamma_integral(50.0), 2, 13, id="gamma_integral"),
])
def test_per_level_work_is_pinned(thunk, per_level, per_quadrature):
    # A count of calls, not a timing, so it does not swing with the host.
    # A helper added to each level moves per_level; one added to each
    # quadrature moves per_quadrature.
    thunk()  # fill the tables the levels read
    calls, inside, levels = _calls(thunk)
    assert levels > 0
    assert inside == per_level * levels
    assert calls - inside == per_quadrature


def test_family_overflow_raises_non_finite():
    # ** overflows at this value: the loop raises.
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0.0, 1.0, 0.5, True, kern.NEG_LOG_POW, 150.0, 0.0, 0.0, None)


def test_active_backend_is_reported():
    # The one node loop is pure Python; provenance records still name it.
    assert BACKEND == "python"


def test_public_surface_is_pinned():
    # Adding or removing a public name is an edit here, in plain sight.
    assert eulergamma.__all__ == [
        "BACKEND", "DomainError", "IDENTITIES", "IdentityReport",
        "IntegralEstimate", "NonFiniteIntegrandError", "SuiteReport",
        "beta_closed", "beta_integral",
        "check_algebraic_interpolation", "check_duplication", "check_factorial_root",
        "check_gamma_fraction_product", "check_gamma_square_product",
        "check_gauss_multiplication", "check_log_integral_product", "check_reflection",
        "check_sine_multiple_angle", "check_sine_product", "check_symbol_bridge",
        "check_symbol_symmetry",
        "default_grid", "default_tolerance", "euler_symbol", "euler_symbol_closed",
        "factorial_interp", "gamma_integral", "gamma_log_integral", "gamma_reference",
        "integrate_finite", "log_gamma", "run_suite", "__version__",
    ]
    assert all(hasattr(eulergamma, name) for name in eulergamma.__all__)
    assert IntegralEstimate._fields == ("value", "error_estimate", "evaluations", "converged")


def _documented_powers(family, p0, p1, p2):
    """e of the rounding floor, as the quadrature module docstring defines
    it: the |powers| the integrand raises x, 1 - x, 1 - x^n or -log x to."""
    if family == kern.NEG_LOG_POW:
        return p0
    assert family == kern.EULER_SYMBOL
    return abs(p0 - 1.0) + abs(p1 / p2 - 1.0)


@pytest.mark.parametrize("case", FAMILY_CASES)
def test_rounding_floor_reads_each_family_powers(case):
    # _refine reads e from the family's row; a callable has no row and
    # takes e = 0.
    family, p0, p1, p2 = case
    assert kern._FAMILIES[family][1](p0, p1, p2) == _documented_powers(*case)
    assert kern.GENERIC not in kern._FAMILIES


def test_node_tables_built_by_racing_threads_give_identical_sums(monkeypatch):
    monkeypatch.setattr(kern, "_node_tables", {})
    monkeypatch.setattr(kern, "_row_tables", {})
    monkeypatch.setattr(kern, "_symbol_tables", {})
    family, p0, p1, p2, a, b = (kern.EULER_SYMBOL, 3.0, 2.0, 5.0, 0.0, 1.0)
    want = [_inline_level_sum(a, b, h, odd, family, p0, p1, p2, None)
            for h, odd in _levels(8)]
    results, errors = [], []

    def work():
        try:
            results.append([kern.level_sum(a, b, h, odd, family, p0, p1, p2, None)
                            for h, odd in _levels(8)])
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert results == [want] * len(threads)
    assert set(kern._symbol_tables) == {(h, odd, p2) for h, odd in _levels(8)}


def test_exponent_columns_stay_within_their_cap(monkeypatch):
    monkeypatch.setattr(kern, "_symbol_tables", {})
    cap = kern.TABLE_MAX_EXPONENTS
    # S(n, n; n) integrates x^(n-1): a few levels for every n.  Asked for
    # from n = 200 down, the store still keeps n = 1..16 and no other: which
    # exponents it keeps is a rule on the key, not the order of the calls.
    estimates = {n: euler_symbol(float(n), float(n), n) for n in range(200, 0, -1)}
    assert kern.TABLE_EXPONENTS == frozenset(range(1, cap + 1))
    assert {p2 for *_, p2 in kern._symbol_tables} == set(range(1, cap + 1))
    for n in (1, cap, cap + 1, 200):
        assert estimates[n].converged
        assert abs(estimates[n].value - 1.0 / n) <= 1e-12 / n
    # An exponent past the cap streams its columns, to the floats a stored
    # table gives.
    monkeypatch.setattr(kern, "TABLE_EXPONENTS", frozenset({200}))
    assert euler_symbol(200.0, 200.0, 200) == estimates[200]
    assert {p2 for *_, p2 in kern._symbol_tables} == set(range(1, cap + 1)) | {200}


def test_non_finite_node_raises_once_the_level_total_is_not_finite(monkeypatch):
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0.0, 1.0, 0.5, True, kern.EULER_SYMBOL, math.nan, 1.5, 1.0, None)
    # A NaN row makes the total NaN, which raises once the loop is done.
    rows = list(kern._rows(0.5, True))
    rows[1] = (rows[1][0], math.nan, rows[1][2])
    centre = list(kern._rows(1.0, False))
    assert centre[0] == kern.CENTRE_ROW
    centre[0] = (centre[0][0], math.nan, math.nan)
    monkeypatch.setattr(kern, "_row_tables", {(0.5, True): tuple(rows),
                                              (1.0, False): tuple(centre)})
    # the exponent columns of n = 1 are rebuilt from those rows
    monkeypatch.setattr(kern, "_symbol_tables", {})
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0.0, 1.0, 0.5, True, kern.EULER_SYMBOL, 1.5, 2.5, 1.0, None)
    # A centre node that is not finite is caught by the same test.
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0.0, 1.0, 1.0, False, kern.EULER_SYMBOL, 1.5, 2.5, 1.0, None)


def test_finite_node_values_whose_sum_overflows_raise():
    # At h = 1 every x^-3.0425 (1-x)^-3.0425 is finite, 1.06e308 at the
    # outermost nodes; the sum of that pair is not, and a family level
    # returns no total that is not finite.
    with pytest.raises(NonFiniteIntegrandError, match="integrand not finite"):
        kern.level_sum(0, 1, 1.0, True, kern.EULER_SYMBOL, -2.0425, -2.0425, 1.0, None)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _extreme_family_calls():
    """Seed 14: 25 valid calls per family, every parameter log-uniform over
    [1e-300, 1e300] but Euler's symbol's n, over [1, MAX_N] (algebraic
    interpolation's Beta integrals B(kt + 1, t + 1) with k in 1..8), plus
    the edges named below.  Each call comes with the s it passes to
    gamma_log_integral, or None."""
    rng = random.Random(14)
    edges = (108.4, 108.45, 110.0, 110.02)
    calls = [(lambda s=s: gamma_log_integral(s), s) for s in edges]
    calls += [(lambda: euler_symbol(1e300, 1.0, 2), None),
              (lambda: euler_symbol(1.0, 1.0, MAX_N), None),
              (lambda: beta_integral(1e-300, 1e300), None)]
    for _ in range(25):
        x, y, p, q, s, t = (_log_uniform(rng, 1e-300, 1e300) for _ in range(6))
        n = int(_log_uniform(rng, 1.0, MAX_N))
        k = float(rng.randint(1, 8))
        calls += [(lambda x=x, y=y: beta_integral(x, y), None),
                  (lambda p=p, q=q, n=n: euler_symbol(p, q, n), None),
                  (lambda s=s: gamma_log_integral(s), s),
                  (lambda k=k, t=t: beta_integral(k * t + 1.0, t + 1.0), None)]
    return calls


def test_extreme_parameters_give_a_finite_estimate_or_inf_past_the_range():
    # No call raises: every engine lifts (-log x)^s to s <= 99, so no family
    # level passes the double range.  gamma_log_integral's estimate is
    # (inf, inf, n, False) exactly where Gamma(s + 1) passes the largest
    # double; every other estimate is finite.
    outcomes = Counter()
    with mpmath.workdps(30):
        for call, s in _extreme_family_calls():
            estimate = call()
            if s is not None and mpmath.gamma(mpmath.mpf(s) + 1) > sys.float_info.max:
                assert estimate[:2] == (math.inf, math.inf) and not estimate.converged, s
                outcomes["past range"] += 1
                continue
            assert math.isfinite(estimate.value), estimate
            assert math.isfinite(estimate.error_estimate) or not estimate.converged, estimate
            outcomes["converged" if estimate.converged else "unconverged"] += 1
    # the sweep meets all three outcomes
    assert min(outcomes.values()) > 0 and len(outcomes) == 3


def test_neg_log_pow_levels_stop_before_their_overflowing_outermost_nodes(monkeypatch):
    # (-log x)^108.5 passes the double range at the outermost nodes of the
    # levels with h <= 2^-5, the last level this integral visits, yet each
    # level stops before them, where its terms no longer change its total:
    # the integral is Gamma(109.5).  No engine sums it there: they lift s to
    # at most 99.
    level_sum, steps = kern.level_sum, []
    monkeypatch.setattr(kern, "level_sum", lambda *args: steps.append(args[2]) or level_sum(*args))
    estimate = quadrature._integrate_family(kern.NEG_LOG_POW, 108.5, 0.0, 0.0)
    overflowing = [h for h in steps
                   if 108.5 * math.log(-kern.LOG_EDGE[h]) > math.log(sys.float_info.max)]
    assert overflowing == [0.5 ** 5]
    exact = mpmath.gamma(mpmath.mpf("109.5"))
    assert estimate.converged
    assert abs(mpmath.mpf(estimate.value) - exact) <= 1e-14 * exact


def test_an_integral_of_zero_value_does_not_converge():
    # S(1e300, 1; 2) = 1.2533e-150 underflows at every node of the first
    # levels, and S(1.7e308, 1; 2) at every node of all of them.  A value of
    # 0 met its bar of 0 (the first was reported converged at 0), which is
    # no evidence that the integral is 0.
    # The first stops once its value is nonzero and its tail at the finest
    # level passes the bar, still short of the integral.
    estimate = euler_symbol(1e300, 1.0, 2)
    assert not estimate.converged
    assert abs(estimate.value - 1.13088295240097e-150) <= 1e-163
    assert estimate.evaluations == 391
    estimate = euler_symbol(1.7e308, 1.0, 2)
    assert estimate.value == 0.0 and not estimate.converged
    # A callable's bar is at least ABS_TOL, so an integral of 0 converges.
    estimate = integrate_finite(math.cos, 0.0, math.pi)
    assert estimate.converged and abs(estimate.value) <= 1e-12


def _bit_lock_draws():
    """Seed 37: 250 draws (p, q, n, x, y, z, s), one integral per engine
    each.  Euler's symbol with p and q in [0.05, 40] and n in 1..40, past
    TABLE_MAX_EXPONENTS, so streamed exponent columns are read too; Beta
    with exponents x, y = e^U(-3, 4); gamma_integral at z = e^U(-5, 5.1),
    below 1 as Gamma(z + 1) / z and past 100 through the lift;
    gamma_log_integral with s in [0, 100], past 99 through the lift."""
    rng = random.Random(37)
    draws = []
    for _ in range(250):
        p, q, n = rng.uniform(0.05, 40.0), rng.uniform(0.05, 40.0), rng.randint(1, 40)
        x, y = math.exp(rng.uniform(-3.0, 4.0)), math.exp(rng.uniform(-3.0, 4.0))
        z, s = math.exp(rng.uniform(-5.0, 5.1)), rng.uniform(0.0, 100.0)
        draws.append((p, q, n, x, y, z, s))
    return draws


def _bit_lock_calls():
    calls = []
    for p, q, n, x, y, z, s in _bit_lock_draws():
        calls += [lambda p=p, q=q, n=n: euler_symbol(p, q, n),
                  lambda x=x, y=y: beta_integral(x, y),
                  lambda z=z: gamma_integral(z),
                  lambda s=s: gamma_log_integral(s)]
    return calls


def test_engine_estimates_are_locked_to_the_bit():
    # A change to the node loop, the driver or the recurrence that moves any
    # bit of a value or an error estimate, or any count, moves this digest.
    # The stop on the finest level's tail moved two draws, both unconverged
    # before and after: S(7.771..., 0.05935...; 35) and S(1.72..., 0.5414...;
    # 40) now end after two levels, 25 nodes, with an estimate of inf.
    # Exact exponent columns at n = 1 moved two draws of 1,000, both
    # euler_symbol(p, q, 1) and both converged before and after, by two
    # ulps of value: S(4.4907..., 36.383...; 1) and S(11.348..., 16.969...;
    # 1), now each bit for bit beta_integral(p, q), as it was before.
    # Lifting s, not x, moved 36 draws, compared entry by entry, with no
    # count or converged flag moved: the 34 gamma_integral draws with z < 1,
    # now integrated at s = z rather than at (z + 1) - 1, and the 2
    # gamma_log_integral draws with s in (99, 100], now integrated at s - 1
    # and scaled by s.
    digest = hashlib.sha256()
    for call in _bit_lock_calls():
        estimate = call()
        digest.update(f"{estimate.value.hex()} {estimate.error_estimate.hex()} "
                      f"{estimate.evaluations} {estimate.converged}\n".encode())
    assert digest.hexdigest() == "aafc6e12ee8bebbff9944456fe04ed253a71fac56bc995e7893ccefd733dbb3b"


def test_beta_integral_is_euler_symbol_at_n_1_to_the_bit():
    # B(x, y) is S(x, y; 1) and is integrated as such: value, error
    # estimate, node count and converged flag are one estimate's, over the
    # bit-lock Beta draws and the corners of each exponent's range.
    corners = (1e-300, 1e-6, 0.01, 0.5, 1.0, 3000.0, 1e4)
    pairs = [(x, y) for _, _, _, x, y, _, _ in _bit_lock_draws()]
    pairs += [(x, y) for x in corners for y in corners]
    for x, y in pairs:
        assert beta_integral(x, y) == euler_symbol(x, y, 1), (x, y)


def test_every_quadrature_is_a_callable_or_a_family_on_the_unit_interval(refine_calls):
    # level_sum trusts its caller for the family tag and the interval: a
    # callable comes with a < b, a family with (0, 1), the one interval its
    # rows describe.
    run_suite(default_grid())
    for call in _bit_lock_calls():
        call()
    integrate_finite(math.cos, -1.0, 2.0)
    assert len(refine_calls) > 1000
    for a, b, family, p0, p1, p2, f in refine_calls:
        if family == kern.GENERIC:
            assert a < b and callable(f)
        else:
            assert family in kern._FAMILIES and (a, b) == (0.0, 1.0) and f is None


# --------------------------------------------------------------- suite memo


def test_family_integrals_are_not_memoized_outside_a_suite(refine_calls):
    assert quadrature.suite_memo.get() is None
    first = euler_symbol(3.0, 2.0, 5)
    second = euler_symbol(3.0, 2.0, 5)
    assert first == second
    assert len(refine_calls) == 2


def test_memo_shares_equal_integrals_and_separates_distinct_ones(refine_calls):
    token = quadrature.suite_memo.set({})
    try:
        first = euler_symbol(3.0, 2.0, 5)
        assert euler_symbol(3.0, 2.0, 5) is first
        assert len(refine_calls) == 1
        # keys that differ in the order of p and q, or in n alone
        euler_symbol(2.0, 3.0, 5)
        euler_symbol(3.0, 2.0, 6)
        assert len(refine_calls) == 3
        # B(3, 2) is S(3, 2; 1), one integral: one entry, one quadrature
        assert beta_integral(3.0, 2.0) is euler_symbol(3.0, 2.0, 1)
        assert len(refine_calls) == 4
        assert set(quadrature.suite_memo.get()) == {
            (kern.EULER_SYMBOL, 3.0, 2.0, 5.0), (kern.EULER_SYMBOL, 2.0, 3.0, 5.0),
            (kern.EULER_SYMBOL, 3.0, 2.0, 6.0), (kern.EULER_SYMBOL, 3.0, 2.0, 1.0)}
    finally:
        quadrature.suite_memo.reset(token)


def test_memo_is_not_seen_by_other_threads():
    seen = []
    token = quadrature.suite_memo.set({})
    try:
        thread = threading.Thread(target=lambda: seen.append(quadrature.suite_memo.get()))
        thread.start()
        thread.join(timeout=10)
    finally:
        quadrature.suite_memo.reset(token)
    assert not thread.is_alive()
    assert seen == [None]


def test_memo_does_not_remember_exceptions(monkeypatch):
    attempts = []

    def failing(*args):
        attempts.append(args)
        raise NonFiniteIntegrandError("integrand not finite")

    monkeypatch.setattr(quadrature, "_refine", failing)
    token = quadrature.suite_memo.set({})
    try:
        for _ in range(2):
            with pytest.raises(NonFiniteIntegrandError):
                euler_symbol(3.0, 2.0, 5)
        assert len(attempts) == 2
        assert quadrature.suite_memo.get() == {}
    finally:
        quadrature.suite_memo.reset(token)


def test_refinement_does_not_converge_on_an_infinite_value(monkeypatch):
    # A finite coarsest level followed by an overflowing one: the change is
    # inf, which the stop rule inf <= REL_TOL * inf would accept.
    def level_sum(a, b, h, odd_only, *rest):
        return (math.inf if odd_only else 1.0), 1

    monkeypatch.setattr(quadrature.backend, "level_sum", level_sum)
    estimate = integrate_finite(lambda x: 1.0, 0.0, 1.0)
    assert estimate.value == math.inf
    assert not estimate.converged
    assert estimate.evaluations == 2  # it stops there, as a converged run would


def test_refinement_stops_at_the_first_infinite_level():
    f = lambda x: 1.7e308
    estimate = integrate_finite(f, 0.0, 10.0)
    _, first_level = kern.level_sum(0.0, 10.0, 1.0, False, kern.GENERIC, 0.0, 0.0, 0.0, f)
    assert estimate == quadrature.IntegralEstimate(math.inf, math.inf, first_level, False)
