"""Gamma engine tests.

mpmath (50 digits) serves as the independent high-precision oracle for the
reference engine's accuracy gate; the engines themselves never see mpmath.
"""

import math
import random
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulergamma import (
    DomainError,
    IntegralEstimate,
    factorial_interp,
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    log_gamma,
)
from eulergamma import gamma as gamma_module
from eulergamma import quadrature
from eulergamma.gamma import MAX_N, log_gamma_integral

mpmath.mp.dps = 50

SQRT_PI = 1.7724538509055159
HALF_SQRT_PI = 0.8862269254527580  # gamma(3/2) = (1/2) gamma(1/2)


def _mp_gamma(x):
    return float(mpmath.gamma(mpmath.mpf(x)))


def _mp_loggamma(x):
    return float(mpmath.loggamma(mpmath.mpf(x)))


def test_reference_accuracy_gate():
    # rel error <= 1e-13 across [0.5, 100]; dense sweep plus awkward points.
    xs = [0.5 + 0.5 * i for i in range(200)]
    xs += [0.50001, 0.99999, 1.00001, 33.337, 99.99, 100.0]
    worst = 0.0
    for x in xs:
        exact = _mp_gamma(x)
        worst = max(worst, abs(gamma_reference(x) - exact) / exact)
    assert worst <= 1e-13


def test_reference_small_arguments_via_recurrence():
    for x in [0.001, 0.01, 0.05, 0.3, 0.49]:
        exact = _mp_gamma(x)
        assert abs(gamma_reference(x) - exact) / exact <= 5e-13


def test_reference_known_values():
    assert abs(gamma_reference(1.0) - 1.0) <= 1e-13
    assert abs(gamma_reference(5.0) - 24.0) / 24.0 <= 1e-13
    assert abs(gamma_reference(0.5) - SQRT_PI) / SQRT_PI <= 1e-13


def test_reference_domain():
    with pytest.raises(DomainError):
        gamma_reference(0.0)
    with pytest.raises(DomainError):
        gamma_reference(-3.2)
    with pytest.raises(DomainError):
        gamma_reference(math.inf)


def test_reference_overflow_behaves_like_stdlib():
    # finite just below the binary64 ceiling, OverflowError past it, also
    # where the last product or the exponent overflows to inf rather than
    # raising (171.7, 1e306) and below the range (1e-320)
    assert math.isfinite(gamma_reference(171.5))
    for x in (172.0, 171.7, 1e306, sys.float_info.max, 1e-320):
        with pytest.raises(OverflowError):
            math.gamma(x)
        with pytest.raises(OverflowError):
            gamma_reference(x)
    with pytest.raises(OverflowError):
        factorial_interp(170.7)


def test_log_gamma_matches_reference():
    for x in [0.05, 0.5, 1.0, 2.0, 7.7, 40.0, 100.0]:
        assert abs(math.exp(log_gamma(x)) - gamma_reference(x)) / gamma_reference(x) <= 1e-12


def test_log_gamma_against_mpmath():
    for x in [0.05 + 0.61 * i for i in range(160)]:
        exact = _mp_loggamma(x)
        assert abs(log_gamma(x) - exact) <= 1e-12 * max(1.0, abs(exact))


def test_log_gamma_known_zeros():
    assert abs(log_gamma(1.0)) <= 5e-14
    assert abs(log_gamma(2.0)) <= 5e-14


def test_log_gamma_error_is_absolute_near_its_zeros():
    # log gamma vanishes at 1 and 2, so its relative error there is
    # unbounded; the documented bound is absolute.
    for zero in (1.0, 2.0):
        offsets = [d * 10.0 ** -k for k in range(1, 16) for d in (1, -1)]
        offsets += [0.1 * i / 100 for i in range(-100, 101)]
        for x in (zero + d for d in offsets):
            assert abs(log_gamma(x) - _mp_loggamma(x)) <= 4e-15, x
        x = zero + 1e-9
        assert abs(log_gamma(x) - _mp_loggamma(x)) <= 1e-15
    x = 1.0 + 1e-9
    assert abs(log_gamma(x) - _mp_loggamma(x)) / abs(_mp_loggamma(x)) > 1e-7


def test_log_gamma_finite_beyond_gamma_overflow():
    value = log_gamma(171.5)
    assert math.isfinite(value)
    assert value > 700.0
    assert math.isfinite(log_gamma(1000.0))


def test_gamma_integral_examples():
    est = gamma_integral(1.0)
    assert est.converged
    assert abs(est.value - 1.0) <= 1e-10
    est = gamma_integral(0.5)
    assert abs(est.value - SQRT_PI) / SQRT_PI <= 1e-10
    est = gamma_integral(3.7)
    assert abs(est.value - gamma_reference(3.7)) / gamma_reference(3.7) <= 1e-9


def test_gamma_integral_engine_equivalence_grid():
    for x in [0.1, 0.25, 0.5, 1.0, 2.5, 7.0, 19.3, 30.0]:
        est = gamma_integral(x)
        ref = gamma_reference(x)
        assert est.converged
        assert abs(est.value - ref) / ref <= 1e-8


def test_gamma_integral_below_recurrence_cutoff():
    est = gamma_integral(0.05)
    ref = gamma_reference(0.05)
    assert abs(est.value - ref) / ref <= 1e-8


def test_gamma_integral_domain():
    with pytest.raises(DomainError):
        gamma_integral(0.0)
    with pytest.raises(DomainError):
        gamma_integral(-1.0)


def test_gamma_log_integral_examples():
    assert abs(gamma_log_integral(0.0).value - 1.0) <= 1e-12
    assert abs(gamma_log_integral(1.0).value - 1.0) <= 1e-12
    est = gamma_log_integral(0.5)
    assert abs(est.value - HALF_SQRT_PI) / HALF_SQRT_PI <= 1e-10


def test_gamma_log_integral_equals_shifted_gamma():
    for s in [0.25, 1.5, 3.0, 7.5]:
        est = gamma_log_integral(s)
        ref = gamma_reference(s + 1.0)
        assert est.converged
        assert abs(est.value - ref) / ref <= 1e-9


def test_gamma_log_integral_domain():
    with pytest.raises(DomainError):
        gamma_log_integral(-0.5)
    with pytest.raises(DomainError):
        gamma_log_integral(math.nan)


def test_factorial_interp_on_integers():
    for k in range(21):
        exact = float(math.factorial(k))
        assert abs(factorial_interp(float(k)) - exact) / exact <= 1e-12


def test_factorial_interp_half():
    assert abs(factorial_interp(0.5) - HALF_SQRT_PI) / HALF_SQRT_PI <= 1e-13


def test_factorial_interp_domain():
    with pytest.raises(DomainError):
        factorial_interp(-1.0)
    with pytest.raises(DomainError):
        factorial_interp(-2.5)
    assert math.isfinite(factorial_interp(-0.999))


@settings(max_examples=80, deadline=None)
@given(st.floats(0.1, 50.0))
def test_recurrence_property(x):
    lhs = gamma_reference(x + 1.0)
    rhs = x * gamma_reference(x)
    assert abs(lhs - rhs) / max(lhs, rhs) <= 1e-12


@settings(max_examples=80, deadline=None)
@given(st.floats(0.05, 60.0), st.floats(0.05, 60.0))
def test_log_convexity_midpoint(a, b):
    mid = log_gamma((a + b) / 2.0)
    assert mid <= (log_gamma(a) + log_gamma(b)) / 2.0 + 1e-12


# The loop form of the Lanczos sum and the recursive lift below 0.5, kept as
# the reference the unrolled engine must reproduce bit for bit.
_LOOP_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _loop_lanczos_sum(x):
    s = _LOOP_COEF[0]
    for i in range(1, 9):
        s += _LOOP_COEF[i] / (x - 1.0 + i)
    return s


def _loop_log_gamma(x):
    if x < 0.5:
        return _loop_log_gamma(x + 1.0) - math.log(x)
    t = x + 6.5
    return 0.5 * math.log(math.tau) + (x - 0.5) * math.log(t) - t + math.log(_loop_lanczos_sum(x))


def _loop_gamma(x):
    if x < 0.5:
        return _loop_gamma(x + 1.0) / x
    t = x + 6.5
    a = _loop_lanczos_sum(x)
    pow_exponent = (x - 0.5) * math.log(t)
    if pow_exponent > 700.0:
        return math.sqrt(math.tau) * a * math.exp(pow_exponent - t)
    return math.sqrt(math.tau) * t ** (x - 0.5) * math.exp(-t) * a


def _outcome(f, x):
    """The result's hex, or "OverflowError" where f raises it or returns a
    non-finite value, which the loop form does past the double range."""
    try:
        value = f(x)
    except OverflowError:
        return "OverflowError"
    return value.hex() if math.isfinite(value) else "OverflowError"


def _sweep_arguments():
    rng = random.Random(20261018)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    xs = [log_uniform(1e-300, 0.5) for _ in range(4000)]
    below = above = 0.5
    for _ in range(200):
        below = math.nextafter(below, 0.0)
        above = math.nextafter(above, 1.0)
        xs += [below, above]
    xs += [0.5, 5e-324, 1e-320, 171.6, 171.62, 171.63]
    xs += [rng.uniform(0.5, 171.6) for _ in range(4000)]
    xs += [log_uniform(171.6, 1e300) for _ in range(2000)]
    return xs


def test_unrolled_engine_is_bitwise_the_loop_form():
    overflows = 0
    xs = _sweep_arguments()
    for x in xs:
        assert log_gamma(x).hex() == _loop_log_gamma(x).hex(), x
        expected = _outcome(_loop_gamma, x)
        assert _outcome(gamma_reference, x) == expected, x
        overflows += expected == "OverflowError"
    assert overflows >= 2000  # the sweep reaches the overflow branch
    batch = gamma_module.log_gamma_terms(xs)
    assert [v.hex() for v in batch] == [_loop_log_gamma(x).hex() for x in xs]


def test_lifted_argument_is_validated_once(monkeypatch):
    calls = []
    real = gamma_module.positive
    monkeypatch.setattr(gamma_module, "positive", lambda *a: calls.append(a) or real(*a))
    log_gamma(0.25)
    gamma_reference(0.25)
    assert calls == [(0.25, "x"), (0.25, "x")]


@pytest.mark.parametrize("bad", [0.0, -0.0, -2.5, math.nan, math.inf, -math.inf])
def test_closed_forms_reject_non_positive_and_non_finite(bad):
    for f in (log_gamma, gamma_reference, gamma_integral):
        with pytest.raises(DomainError, match="x must be positive and finite"):
            f(bad)


def test_infinite_gamma_integral_is_not_converged():
    # Gamma(172) and Gamma(1e-310) lie past the double range, the second
    # through its factor 1/x; neither may report an infinite value as
    # converged.
    for x in (172.0, 1e-310):
        estimate = gamma_integral(x)
        assert estimate.value == math.inf
        assert estimate.error_estimate == math.inf
        assert not estimate.converged
    estimate = gamma_integral(171.5)
    assert estimate.converged
    assert abs(estimate.value - _mp_gamma(171.5)) <= 1e-13 * _mp_gamma(171.5)


def test_gamma_integral_sweep_against_mpmath():
    # Euler's integral over (0, 1) on [1, 100], lifted by the recurrence
    # elsewhere, holds 1e-13 relative up to the double-precision ceiling.
    rng = random.Random(1729)
    xs = [math.exp(rng.uniform(math.log(0.01), math.log(171.6))) for _ in range(500)]
    xs += [0.1, 1.0, 100.0, 100.5, 171.0, 171.5]
    with mpmath.workdps(30):
        for x in xs:
            estimate = gamma_integral(x)
            exact = mpmath.gamma(mpmath.mpf(x))
            assert estimate.converged, x
            assert abs((mpmath.mpf(estimate.value) - exact) / exact) <= 1e-13, x


@pytest.mark.parametrize("x", [800.0, 1e300, 1e-310])
def test_gamma_integral_past_the_double_range_integrates_nothing(x):
    # The recurrence's factor is infinite before any node is evaluated.
    assert gamma_integral(x) == IntegralEstimate(math.inf, math.inf, 0, False)


def test_gamma_integral_is_the_log_integral_one_below(refine_calls):
    token = quadrature.suite_memo.set({})
    try:
        for x in (1.0, 3.7, 100.0):
            assert gamma_integral(x) == gamma_log_integral(x - 1.0)
    finally:
        quadrature.suite_memo.reset(token)
    assert len(refine_calls) == 3


def test_log_gamma_integral_sweep_against_mpmath():
    # In log space the integral engine stays finite wherever log gamma is,
    # up to MAX_N: within 1e-14 relative, absolute near the zeros at 1 and 2.
    rng = random.Random(4242)
    xs = [math.exp(rng.uniform(math.log(1e-300), math.log(MAX_N))) for _ in range(200)]
    xs += [1e-310, 0.5, 1.0, 2.0, 100.0, 100.5, 171.7, 200.0, 1000.0, float(MAX_N)]
    with mpmath.workdps(30):
        for x in xs:
            estimate = log_gamma_integral(x)
            exact = mpmath.loggamma(mpmath.mpf(x))
            assert estimate.converged, x
            assert abs(mpmath.mpf(estimate.value) - exact) <= 1e-14 * max(1.0, abs(exact)), x


def test_log_gamma_integral_reports_the_relative_error_of_its_integral():
    # The error of log I is the relative error of I; the recurrence's
    # factors add no error estimate of their own.
    for x, s in ((0.25, 0.25), (7.7, 6.7), (200.0, 99.0)):
        inner = gamma_log_integral(s)
        estimate = log_gamma_integral(x)
        assert estimate.error_estimate == inner.error_estimate / inner.value
        assert estimate.evaluations == inner.evaluations
        assert estimate.converged == inner.converged
    assert log_gamma_integral(7.7).value == math.log(gamma_integral(7.7).value)


@pytest.mark.parametrize("x", [math.nextafter(float(MAX_N), math.inf), 1e300])
def test_log_gamma_integral_past_max_n_is_a_domain_error(x, refine_calls):
    with pytest.raises(DomainError, match="x must be <= 100000"):
        log_gamma_integral(x)
    assert refine_calls == []
    # the Gamma engine has overflowed long before; it still reads inf
    assert gamma_integral(x) == IntegralEstimate(math.inf, math.inf, 0, False)
