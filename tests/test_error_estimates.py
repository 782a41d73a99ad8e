"""Quadrature error estimates against a 30-digit mpmath oracle.

A seeded sweep over every integrand the engines integrate, inside the domain
README states for them: each estimate must converge, report an error
estimate above zero, and have a true error no larger than that estimate.
The smallest endpoint exponent is held at 0.05 or more (x, y for beta; p
and q/n for Euler's symbol).  Below it, nodes stop at ``backend.T_MAX``
before the endpoint's mass is resolved, and a second sweep, with one
exponent down to 1e-300, holds each estimate to the weaker rule the tail
term gives: at or above its true error, or unconverged.

Each integral is also run through a plain loop that stops on the level
change alone, the rule the extrapolated stop sits behind: no integral may
take more evaluations than that loop.
"""

import math
import random

import mpmath
import pytest

from eulergamma import (
    beta_integral,
    euler_symbol,
    gamma_integral,
    gamma_log_integral,
    integrate_finite,
)
from eulergamma import backend, quadrature
from eulergamma.identities import default_grid, run_suite

DRAWS_PER_FAMILY = 2000
MIN_ENDPOINT_EXPONENT = 0.05


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _sweep():
    """(label, estimate thunk, mpmath value thunk, level_sum arguments)."""
    mp = mpmath.mpf
    rng = random.Random(19)
    cases = []
    for _ in range(DRAWS_PER_FAMILY):
        x, y = _log_uniform(rng, 0.05, 40.0), _log_uniform(rng, 0.05, 40.0)
        cases.append((f"beta({x!r}, {y!r})", lambda x=x, y=y: beta_integral(x, y),
                      lambda x=x, y=y: mpmath.beta(x, y),
                      (0.0, 1.0, backend.BETA, x, y, 0.0, None)))
        p, q, n = _log_uniform(rng, 0.05, 7.0), _log_uniform(rng, 0.05, 7.0), rng.randint(1, 12)
        while q / n < MIN_ENDPOINT_EXPONENT:
            q = _log_uniform(rng, 0.05, 7.0)
        cases.append((f"S({p!r}, {q!r}; {n})", lambda p=p, q=q, n=n: euler_symbol(p, q, n),
                      lambda p=p, q=q, n=n: mpmath.beta(mp(p) / n, mp(q) / n) / n,
                      (0.0, 1.0, backend.EULER_SYMBOL, p, q, float(n), None)))
        s = rng.uniform(0.0, 100.0)
        cases.append((f"(-log u)^{s!r}", lambda s=s: gamma_log_integral(s),
                      lambda s=s: mpmath.gamma(mp(s) + 1),
                      (0.0, 1.0, backend.NEG_LOG_POW, s, 0.0, 0.0, None)))
        k, s = rng.randint(1, 8), _log_uniform(rng, 0.05, 8.0)
        # algebraic interpolation's (u^k - u^(k+1))^s, a Beta integral
        x, y = k * s + 1.0, s + 1.0
        cases.append((f"(u^{k} (1 - u))^{s!r}", lambda x=x, y=y: beta_integral(x, y),
                      lambda k=k, s=s: mpmath.beta(k * mp(s) + 1, mp(s) + 1),
                      (0.0, 1.0, backend.BETA, x, y, 0.0, None)))
        b = rng.uniform(0.1, 3.0)
        cases.append((f"cos on (0, {b!r})", lambda b=b: integrate_finite(math.cos, 0.0, b),
                      lambda b=b: mpmath.sin(b),
                      (0.0, b, backend.GENERIC, 0.0, 0.0, 0.0, math.cos)))
    return cases


def _evaluations_by_change_alone(a, b, family, p0, p1, p2, f):
    """Evaluations of a refinement that stops once |I_j - I_(j-1)| meets
    the bar, and on nothing else."""
    floor = quadrature.ABS_TOL if family == backend.GENERIC else 0.0
    h = 1.0
    value, evaluations = backend.level_sum(a, b, h, False, family, p0, p1, p2, f)
    for _ in range(quadrature.MAX_REFINEMENTS):
        h *= 0.5
        s, n = backend.level_sum(a, b, h, True, family, p0, p1, p2, f)
        new_value = 0.5 * value + h * s
        evaluations += n
        met = abs(new_value - value) <= max(floor, quadrature.REL_TOL * abs(new_value))
        value = new_value
        if met:
            break
    return evaluations


def test_sweep_estimates_bound_their_true_error():
    failures = []
    saved = 0
    for label, estimate, exact, levels in _sweep():
        est = estimate()
        with mpmath.workdps(30):
            true_error = abs(mpmath.mpf(est.value) - exact())
        if not (est.converged and 0.0 < est.error_estimate and true_error <= est.error_estimate):
            failures.append((label, est, float(true_error)))
        plain = _evaluations_by_change_alone(*levels)
        assert est.evaluations <= plain, label
        saved += est.evaluations < plain
    assert failures == []
    assert saved >= DRAWS_PER_FAMILY  # the extrapolated stop fires


WEAK_DRAWS = 150


def _weak_endpoint_sweep(lo):
    """(label, estimate, 40-digit mpmath value) of seeded Beta and symbol
    integrals, one endpoint exponent log-uniform in [lo, 0.05) and the other
    in [0.05, 40], n in 1..16."""
    mp = mpmath.mpf
    rng = random.Random(20261020)
    cases = []
    for i in range(WEAK_DRAWS):
        alpha = _log_uniform(rng, lo, MIN_ENDPOINT_EXPONENT)
        other = _log_uniform(rng, 0.05, 40.0)
        weak_first = rng.random() < 0.5
        if i % 2 == 0:
            x, y = (alpha, other) if weak_first else (other, alpha)
            estimate = beta_integral(x, y)
            with mpmath.workdps(40):
                exact = mpmath.beta(mp(x), mp(y))
            cases.append((f"beta({x!r}, {y!r})", estimate, exact))
        else:
            n = rng.randint(1, 16)
            p, q = (alpha, other) if weak_first else (other, alpha * n)
            estimate = euler_symbol(p, q, n)
            with mpmath.workdps(40):
                exact = mpmath.beta(mp(p) / n, mp(q) / n) / n
            cases.append((f"S({p!r}, {q!r}; {n})", estimate, exact))
    return cases


# The nodes each weak-endpoint sweep takes in all.
WEAK_SWEEP_NODES = {1e-4: 4646, 1e-300: 3750}


@pytest.mark.parametrize("lo", [1e-4, 1e-300])
def test_weak_endpoint_estimates_bound_their_true_error_or_do_not_converge(lo):
    # Without the tail term 10 of the 150 draws from 1e-4 report converged
    # below their true error; every draw from 1e-300 is unconverged.  An
    # integral whose tail at the finest level passes its bar stops early with
    # an estimate of inf, so every estimate, converged or not, is at or above
    # its true error, and the node totals stay small.
    failures = []
    cases = _weak_endpoint_sweep(lo)
    for label, estimate, exact in cases:
        with mpmath.workdps(40):
            true_error = abs(mpmath.mpf(estimate.value) - exact)
        if not true_error <= estimate.error_estimate:
            failures.append((label, estimate, float(true_error)))
    assert failures == []
    assert sum(estimate.evaluations for _, estimate, _ in cases) == WEAK_SWEEP_NODES[lo]


def test_a_weak_endpoint_is_not_converged_where_its_mass_passes_the_bar():
    # S(2.0639, 0.11756; 4) has q/n = 0.029 at x = 1: its level changes fall
    # to 5.1e-11 while the mass beyond the outermost node, 1.02e-8, is in no
    # level, and without the tail term it reported converged.  That tail is
    # known before the first level, and the loop stops after two.
    estimate = euler_symbol(2.0639, 0.11756, 4)
    with mpmath.workdps(40):
        exact = mpmath.beta(mpmath.mpf(2.0639) / 4, mpmath.mpf(0.11756) / 4) / 4
        true_error = abs(mpmath.mpf(estimate.value) - exact)
    assert not estimate.converged
    assert 1e-8 < true_error <= estimate.error_estimate == math.inf
    assert estimate.evaluations == 25


def test_log_edge_is_the_outermost_node_of_each_level():
    # The tail term reads log delta from LOG_EDGE; the rows hold -log(dist)
    # of each node, the outermost last.
    assert len(backend.LOG_EDGE) == quadrature.MAX_REFINEMENTS + 1
    for j in range(quadrature.MAX_REFINEMENTS + 1):
        *_, (_, neg_log_dist, _) = backend._unit_rows(0.5 ** j, False)
        assert backend.LOG_EDGE[0.5 ** j] == pytest.approx(-neg_log_dist, rel=1e-15)


@pytest.mark.parametrize("x", [79.74, 80.0])
def test_chance_agreement_of_two_coarse_levels_does_not_stop(x):
    # Level 3 of Gamma(79.74) changes by 1.5e-5 relative, after changes of
    # 1.0 and 0.44, yet is still off by 3.6e-7: three ratios contract, but
    # the extrapolated estimate must not stop there, at level 3.
    est = gamma_integral(x)
    assert est.converged
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(est.value) - mpmath.gamma(x)) <= est.error_estimate


def test_default_suite_integrals_take_no_more_evaluations(refine_calls):
    run_suite(default_grid())
    calls = list(refine_calls)
    assert len(calls) == 172
    fewer = 0
    for args in calls:
        est = quadrature._refine(*args)
        plain = _evaluations_by_change_alone(*args)
        assert est.evaluations <= plain
        fewer += est.evaluations < plain
    assert fewer > 0


def test_rounding_floor_keeps_estimates_above_zero():
    # Two levels of beta(0.8930, 0.3583) give the same sum; the change
    # alone would report an error of exactly 0.
    est = beta_integral(0.892974732999929, 0.3582521356490691)
    powers = abs(0.892974732999929 - 1.0) + abs(0.3582521356490691 - 1.0)
    floor = quadrature.ROUNDING_K * quadrature.EPSILON * (1.0 + powers) * est.value
    assert est.converged
    assert est.error_estimate == floor


def _symbol_rounding_floor(p, q, n):
    """ROUNDING_K * eps * (1 + e), as the quadrature module docstring
    defines it, with e = |p - 1| + |q/n - 1| for Euler's symbol."""
    powers = abs(p - 1.0) + abs(q / n - 1.0)
    return quadrature.ROUNDING_K * quadrature.EPSILON * (1.0 + powers)


def test_extrapolated_estimate_needs_quadratic_contraction():
    c = quadrature.EXTRAPOLATION_C
    extrapolated = quadrature._extrapolated
    assert extrapolated(1e-2, 5e-4, 1e-5, 1.0) == pytest.approx(c * 1e-10 / 5e-4)
    assert extrapolated(1e-2, 1e-2, 1e-5, 1.0) == math.inf  # no contraction
    assert extrapolated(1e-2, 5e-4, 5e-5, 1.0) == math.inf  # too slow at the end
    assert extrapolated(2.0, 1.0, 1e-9, 1.0) == math.inf  # r_(j-2) >= 1
    assert extrapolated(0.0, 0.0, 0.0, 1.0) == math.inf
    # The changes are taken relative to the value: scaling both scales the
    # estimate and leaves the test as it was.
    assert extrapolated(1e8, 5e6, 1e5, 1e10) == pytest.approx(c * 2e3)


def test_extrapolated_stop_waits_for_three_changes(monkeypatch):
    # With every level change past the bar the loop can stop only on the
    # extrapolated estimate, and that needs the changes of levels 1, 2, 3.
    seen = []
    monkeypatch.setattr(quadrature, "_extrapolated",
                        lambda d2, d1, d0, size: seen.append((d2, d1, d0)) or math.inf)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-300)
    est = gamma_log_integral(0.5)
    assert not est.converged
    assert len(seen) == quadrature.MAX_REFINEMENTS - 2
    assert all(math.isfinite(d) for triple in seen for d in triple)


def test_extrapolated_stop_saves_a_level_and_reports_its_estimate():
    # S(2, 2; 3): the level-3 change is past the bar, the extrapolated
    # estimate is not, so the loop stops a level early.
    est = euler_symbol(2.0, 2.0, 3)
    assert est.converged
    assert est.evaluations == 67  # levels 0 to 3; the change alone takes 127
    assert est.error_estimate <= quadrature.REL_TOL * est.value
    assert est.error_estimate > 10 * _symbol_rounding_floor(2.0, 2.0, 3.0) * est.value


def test_rounding_floor_bounds_the_extrapolated_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_extrapolated", lambda d2, d1, d0, size: 0.0)
    est = euler_symbol(2.0, 2.0, 3)
    assert est.converged
    assert est.evaluations == 67
    assert est.error_estimate == _symbol_rounding_floor(2.0, 2.0, 3.0) * est.value
