"""Beta function and Euler-symbol tests."""

import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergamma import (
    DomainError,
    beta_closed,
    beta_integral,
    euler_symbol,
    euler_symbol_closed,
)
from eulergamma.beta import log_beta
from eulergamma.gamma import MAX_N

PI_OVER_8 = 0.39269908169872414
HALF_PI = 1.5707963267948966


def test_beta_closed_known_values():
    assert abs(beta_closed(1.0, 1.0) - 1.0) <= 1e-13
    assert abs(beta_closed(0.5, 0.5) - math.pi) / math.pi <= 1e-13
    # gamma(3/2)^2 / gamma(3) = (pi/4)/2
    assert abs(beta_closed(1.5, 1.5) - PI_OVER_8) / PI_OVER_8 <= 1e-13


def test_beta_closed_domain():
    with pytest.raises(DomainError):
        beta_closed(0.0, 1.0)
    with pytest.raises(DomainError):
        beta_closed(1.0, -2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
def test_beta_closed_symmetry(x, y):
    a = beta_closed(x, y)
    b = beta_closed(y, x)
    assert abs(a - b) / max(a, b) <= 1e-13


def _large_argument_sweep():
    """Seed 11: 400 pairs, one argument log-uniform in [0.05, 1e15] and the
    other in [0.05, 50], taken in both orders."""
    rng = random.Random(11)
    pairs = []
    for i in range(400):
        big = math.exp(rng.uniform(math.log(0.05), math.log(1e15)))
        small = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
        pairs.append((big, small) if i % 2 else (small, big))
    return pairs


def test_beta_closed_agrees_with_mpmath_when_one_argument_is_large():
    # exp(lgamma(x) + lgamma(y) - lgamma(x + y)) cancelled: it was off by
    # 3.9e-5 relative at B(1e10, 0.5) and by 96% at B(1e15, 0.5).  mpmath
    # carries 30 digits past those of the larger argument.
    for x, y in _large_argument_sweep():
        with mpmath.workdps(30 + int(math.log10(max(x, y)))):
            log_exact = mpmath.log(mpmath.beta(x, y))
        assert abs(log_beta(x, y) - log_exact) <= 1e-14 * max(1.0, abs(log_exact)), (x, y)
        assert log_beta(x, y) == log_beta(y, x)
        if log_exact > -690.0:  # B(x, y) above 1e-300, a normal double
            exact = mpmath.exp(log_exact)
            assert abs(beta_closed(x, y) - exact) <= 1e-12 * exact, (x, y)
    # ``eval symbol 1e300 1 2`` printed 0.5 for S(1e300, 1; 2) = 1.25e-150
    with mpmath.workdps(330):
        exact = mpmath.beta(mpmath.mpf(1e300) / 2, 0.5) / 2
    assert abs(euler_symbol_closed(1e300, 1.0, 2) - exact) <= 1e-12 * exact


def test_beta_integral_known_values():
    assert abs(beta_integral(1.0, 1.0).value - 1.0) <= 1e-12
    assert abs(beta_integral(2.0, 1.0).value - 0.5) <= 1e-12
    est = beta_integral(0.5, 0.5)
    assert est.converged
    assert abs(est.value - math.pi) <= 1e-9


def test_beta_integral_vs_closed_grid():
    for x in (0.5, 1.0, 2.5):
        for y in (0.5, 1.0, 2.5):
            est = beta_integral(x, y)
            ref = beta_closed(x, y)
            assert est.converged
            assert abs(est.value - ref) / ref <= 1e-8


def test_beta_integral_symmetry_within_error():
    for x, y in [(0.5, 2.5), (0.3, 1.7), (4.0, 0.25)]:
        a = beta_integral(x, y)
        b = beta_integral(y, x)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-14


def test_euler_symbol_examples():
    assert abs(euler_symbol(1.0, 1.0, 1).value - 1.0) <= 1e-12
    est = euler_symbol(1.0, 1.0, 2)
    assert est.converged
    assert abs(est.value - HALF_PI) / HALF_PI <= 1e-10
    # (p,q,n) = (2,2,2): integrand reduces to x itself
    assert abs(euler_symbol(2.0, 2.0, 2).value - 0.5) <= 1e-12


def test_euler_symbol_closed_examples():
    assert abs(euler_symbol_closed(1.0, 1.0, 1) - 1.0) <= 1e-13
    assert abs(euler_symbol_closed(1.0, 1.0, 2) - HALF_PI) / HALF_PI <= 1e-13
    est = euler_symbol(3.0, 2.0, 5)
    ref = euler_symbol_closed(3.0, 2.0, 5)
    assert abs(est.value - ref) / ref <= 1e-7


def test_euler_symbol_vanishing_at_one_when_q_exceeds_n():
    # q > n flips the exponent sign; supported, no special casing
    est = euler_symbol(2.0, 7.0, 3)
    ref = euler_symbol_closed(2.0, 7.0, 3)
    assert est.converged
    assert abs(est.value - ref) / ref <= 1e-9


def test_euler_symbol_real_parameters():
    est = euler_symbol(2.5, 0.7, 4)
    ref = euler_symbol_closed(2.5, 0.7, 4)
    assert abs(est.value - ref) / ref <= 1e-7


def test_euler_symbol_n1_equals_beta_integral():
    for p, q in [(1.0, 1.0), (2.0, 3.0), (0.5, 1.5)]:
        sym = euler_symbol(p, q, 1)
        bet = beta_integral(p, q)
        assert abs(sym.value - bet.value) <= sym.error_estimate + bet.error_estimate + 1e-13


def test_symbol_symmetry_spot_checks():
    for p, q, n in [(1.0, 2.0, 3), (2.0, 5.0, 4), (3.0, 1.0, 6)]:
        a = euler_symbol(p, q, n)
        b = euler_symbol(q, p, n)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-12 * a.value


def test_symbol_domain():
    with pytest.raises(DomainError):
        euler_symbol(0.0, 1.0, 2)
    with pytest.raises(DomainError):
        euler_symbol(1.0, -1.0, 2)
    with pytest.raises(DomainError):
        euler_symbol(1.0, 1.0, 0)
    with pytest.raises(DomainError):
        euler_symbol(1.0, 1.0, 2.5)
    with pytest.raises(DomainError):
        euler_symbol_closed(1.0, 1.0, -3)


def test_euler_symbol_caps_n():
    # Past MAX_N the near-1 terms of a level can level off below the last
    # bit of its total and then grow again, so a level could stop before
    # terms that change it (in seeded level sums, from n near 7e14).  The
    # cap is the product checks'; it also refuses S(1, 1; 10^300), whose
    # value is 2 and which came out as 1.0, converged.
    for n in (MAX_N + 1, 10 ** 15, 10 ** 300):
        with pytest.raises(DomainError, match=r"^n must be <= 100000$"):
            euler_symbol(1.0, 1.0, n)
    estimate = euler_symbol(2.0, 1e4, MAX_N)
    assert estimate.converged
    assert abs(estimate.value - euler_symbol_closed(2.0, 1e4, MAX_N)) <= 1e-14 * estimate.value


@pytest.mark.parametrize("x, y", [(20.0, 20.0), (20.0, 40.0), (40.0, 40.0)])
def test_beta_integral_tiny_values_converge_to_mpmath(x, y):
    # B(40, 40) is about 1e-24: a converged estimate must meet the relative
    # rule, not the absolute floor every value this small falls under.
    with mpmath.workdps(40):
        exact = mpmath.beta(x, y)
        estimate = beta_integral(x, y)
        assert estimate.converged
        assert abs((mpmath.mpf(estimate.value) - exact) / exact) <= 1e-15


@pytest.mark.parametrize("p, q", [(1.5, 400.0), (0.2, 900.0)])
def test_symbol_at_n_1_reads_exact_exponent_columns(p, q):
    # At n = 1, 1 - x^n is 1 - x, and the symbol's exponent columns are the
    # rows' own negated logs.  Taken as -log(-expm1(-log x)) they were off
    # by an ulp or two, and these values by 2.9e-15 and 5.3e-15 relative.
    with mpmath.workdps(40):
        exact = mpmath.beta(p, q)
        estimate = euler_symbol(p, q, 1)
        assert estimate.converged
        assert abs((mpmath.mpf(estimate.value) - exact) / exact) <= 1e-15
