"""Gamma engine tests.

mpmath (50 digits) serves as the independent high-precision oracle for the
reference engine's accuracy gate; the engines themselves never see mpmath.
"""

import math
import random
import sys
from pathlib import Path

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
    # finite just below the binary64 ceiling, OverflowError past it and
    # below the range (1e-320), also at a double next to each edge whose
    # Gamma lies above the midpoint between the largest double and 2**1024,
    # so it rounds to inf
    midpoint = mpmath.mpf(sys.float_info.max) + mpmath.mpf(2) ** 970
    assert math.isfinite(gamma_reference(171.5))
    edges = (float.fromhex("0x1.573fae561f648p+7"), 5.562684646268003e-309)
    for x in (172.0, 171.7, 1e306, sys.float_info.max, 1e-320, *edges):
        with pytest.raises(OverflowError):
            math.gamma(x)
        with pytest.raises(OverflowError):
            gamma_reference(x)
    for x in edges:
        assert mpmath.gamma(mpmath.mpf(x)) > midpoint
    with pytest.raises(OverflowError):
        factorial_interp(170.7)


def test_reference_is_exact_at_the_integers():
    # (k - 1)! is a double for k up to 23
    for k in range(1, 24):
        assert gamma_reference(k) == math.factorial(k - 1), k


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


def _outcome(f, x):
    """The result's hex, or "OverflowError" where f raises it."""
    try:
        return f(x).hex()
    except OverflowError:
        return "OverflowError"


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
    for x in _sweep_arguments():
        assert log_gamma(x).hex() == _loop_log_gamma(x).hex(), x


def test_reference_is_math_gamma_on_the_sweep():
    # Bit for bit, and with the same OverflowError set: past 171.62, below
    # 5.6e-309, and nowhere else.
    overflows = 0
    xs = _sweep_arguments()
    assert len(xs) == 10_406
    for x in xs:
        expected = _outcome(math.gamma, x)
        assert _outcome(gamma_reference, x) == expected, x
        overflows += expected == "OverflowError"
    assert overflows >= 2000  # the sweep reaches both overflow edges


def test_batch_engine_is_math_lgamma_term_by_term():
    # log_gamma_terms is the second engine, not the batch form of the first:
    # on the same sweep it is math.lgamma bit for bit, and it differs from
    # the g = 7 log_gamma at most arguments.
    xs = _sweep_arguments()
    batch = gamma_module.log_gamma_terms(xs)
    assert [v.hex() for v in batch] == [math.lgamma(x).hex() for x in xs]
    assert sum(v != log_gamma(x) for v, x in zip(batch, xs)) > len(xs) // 4
    assert gamma_module.log_gamma_terms(x for x in (1.0, 2.0)) == [0.0, 0.0]


def test_batch_engine_past_the_double_range_is_a_domain_error():
    # math.lgamma overflows from about 2.56e305; its OverflowError is the
    # package's not-finite DomainError, as a side summed past the range is.
    assert math.isfinite(gamma_module.log_gamma_terms([2.5e305])[0])
    for xs in ([1e306], [2.5, 1.7e308]):
        with pytest.raises(DomainError, match="^result not finite in double precision$"):
            gamma_module.log_gamma_terms(xs)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# Bands of the batch engine's accuracy test: each draws 300 arguments, and
# its bound is the worst error measured over 16,000 or more seeded draws of
# the band against 50-digit mpmath, relative to max(|log gamma|, 1), rounded
# up.  Within 0.1 of the zeros 1 and 2 that measure is the absolute error;
# on [0.5, 10) the worst, 1.82e-15, lies near x = 3.1.  For comparison, the
# g = 7 log_gamma reached 7.4e-16, 4.1e-15 (near x = 2.6), 7.3e-16, 2.9e-16,
# 8e-17 and 3.1e-15 on the same bands.
_LGAMMA_BANDS = {
    "below 0.5": (6e-16, lambda rng: _log_uniform(rng, 1e-300, 0.5)),
    "[0.5, 10)": (1.9e-15, lambda rng: rng.uniform(0.5, 10.0)),
    "[10, 200)": (4e-16, lambda rng: rng.uniform(10.0, 200.0)),
    "[200, 2.5e305]": (3e-16, lambda rng: _log_uniform(rng, 200.0, 2.5e305)),
    "subnormal": (1e-16, lambda rng: math.ldexp(rng.uniform(1.0, 2.0),
                                                -rng.randint(1023, 1074))),
    "near 1 and 2": (1.4e-15, lambda rng: rng.choice((1.0, 2.0)) + rng.uniform(-0.1, 0.1)),
}


@pytest.mark.parametrize("band", sorted(_LGAMMA_BANDS))
def test_batch_engine_against_mpmath_by_band(band):
    bound, draw = _LGAMMA_BANDS[band]
    rng = random.Random(20261020)
    xs = [draw(rng) for _ in range(300)]
    for x, value in zip(xs, gamma_module.log_gamma_terms(xs)):
        exact = mpmath.loggamma(mpmath.mpf(x))
        assert abs(mpmath.mpf(value) - exact) <= bound * max(abs(exact), 1), x


# Bands of the reference engine's accuracy test: each draws 300 arguments,
# and its bound is the worst relative error measured over 363,000 seeded
# draws of the band against 50-digit mpmath, rounded up; the overall worst,
# 9.8e-16, lies near x = 6.7.
_GAMMA_BANDS = {
    "[1e-300, 1e-10)": (6e-16, lambda rng: _log_uniform(rng, 1e-300, 1e-10)),
    "[1e-10, 0.5)": (7e-16, lambda rng: _log_uniform(rng, 1e-10, 0.5)),
    "[0.5, 10)": (1e-15, lambda rng: rng.uniform(0.5, 10.0)),
    "[10, 100)": (8e-16, lambda rng: rng.uniform(10.0, 100.0)),
    "[100, 171.62)": (7e-16, lambda rng: rng.uniform(100.0, 171.62)),
}


@pytest.mark.parametrize("band", sorted(_GAMMA_BANDS))
def test_reference_against_mpmath_by_band(band):
    bound, draw = _GAMMA_BANDS[band]
    rng = random.Random(20261021)
    for x in (draw(rng) for _ in range(300)):
        exact = mpmath.gamma(mpmath.mpf(x))
        assert abs(mpmath.mpf(gamma_reference(x)) - exact) <= bound * exact, x


def test_batch_engine_is_cpythons_own_lanczos():
    # math.lgamma is CPython's Lanczos sum (g about 6.02), not the C
    # library's lgamma: glibc's lgamma gives another float at each of these
    # arguments (0x1.188637a6c4196p+0 at 0.3, -0x1.eeb95b094c191p-4 at 1.5).
    # Should a CPython build hand lgamma to the C library, this names the
    # cause before the report sha256 pins fail.
    pinned = {
        0.3: "0x1.188637a6c4194p+0",
        1.5: "-0x1.eeb95b094c1a0p-4",
        2.5: "0x1.2383e809a67f0p-2",
        3.5: "0x1.3373018970a34p+0",
        7.7: "0x1.fb4c741de4476p+2",
        50.5: "0x1.2509dbdb0dd3bp+7",
        123.25: "0x1.d49d4ec1306b2p+8",
    }
    xs = list(pinned)
    assert [v.hex() for v in gamma_module.log_gamma_terms(xs)] == list(pinned.values())


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
    # Euler's integral over (0, 1) at s = x - 1 <= 99, or at s = x below 1,
    # lifted past 99, holds 1e-13 relative up to the double-precision ceiling.
    rng = random.Random(1729)
    xs = [math.exp(rng.uniform(math.log(0.01), math.log(171.6))) for _ in range(500)]
    xs += [0.1, 1.0, 100.0, 100.5, 171.0, 171.5]
    with mpmath.workdps(30):
        for x in xs:
            estimate = gamma_integral(x)
            exact = mpmath.gamma(mpmath.mpf(x))
            assert estimate.converged, x
            assert abs((mpmath.mpf(estimate.value) - exact) / exact) <= 1e-13, x


def test_gamma_integral_readme_sweep():
    # The README's `gamma_integral` figures, at their seed and size: 3,000 x
    # log-uniform in [0.01, 171.6] against 30-digit mpmath give a worst
    # relative error of 1.21e-15 at 101.9 evaluations per call, every true
    # error within its estimate; the README quotes them rounded up.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    bullet = " ".join(readme.split("- `gamma_integral(x)`", 1)[1].split("\n- ", 1)[0].split())
    assert ("over 3,000 x drawn at seed 2026, log-uniform in [0.01, 171.6], its worst "
            "relative error is below 1.3e-15, at fewer than 102 evaluations per call on "
            "average, and every true error is within its estimate.") in bullet
    rng = random.Random(2026)
    xs = [math.exp(rng.uniform(math.log(0.01), math.log(171.6))) for _ in range(3000)]
    worst, evaluations = 0.0, 0
    with mpmath.workdps(30):
        for x in xs:
            estimate = gamma_integral(x)
            exact = mpmath.gamma(mpmath.mpf(x))
            error = abs(mpmath.mpf(estimate.value) - exact)
            assert estimate.converged and error <= estimate.error_estimate, x
            worst = max(worst, error / exact)
            evaluations += estimate.evaluations
    assert worst < 1.3e-15
    assert evaluations / len(xs) < 102


def test_gamma_log_integral_lifted_sweep_against_mpmath():
    # Past s = 99 the integral is taken at s - ceil(s - 99) and scaled by the
    # lift's factors, so it converges up to Gamma's double range, where the
    # integrand itself passes it at a node the levels visit from s = 110.02.
    # Seed 45, 600 draws and the edges: worst 1.36e-15 relative against
    # 50-digit mpmath, and every estimate at or above its true error.
    rng = random.Random(45)
    ss = [rng.uniform(99.0, 170.62) for _ in range(600)]
    ss += [99.0, 108.4, 110.02, 150.0, 170.6, 170.62]
    with mpmath.workdps(50):
        for s in ss:
            estimate = gamma_log_integral(s)
            exact = mpmath.gamma(mpmath.mpf(s) + 1)
            error = abs(mpmath.mpf(estimate.value) - exact)
            assert estimate.converged, s
            assert error <= 1.4e-15 * exact, s
            assert error <= estimate.error_estimate, s
    # past Gamma's range, the estimate gamma_integral gives one above
    for s in (170.63, 171.0, 799.0, 1e300):
        estimate = gamma_log_integral(s)
        assert estimate[:2] == (math.inf, math.inf) and not estimate.converged, s
        assert estimate == gamma_integral(s + 1.0), s


@pytest.mark.parametrize("x", [800.0, 1e300, 1e-310])
def test_gamma_integral_past_the_double_range_integrates_nothing(x):
    # The lift's factor is infinite before any node is evaluated.
    assert gamma_integral(x) == IntegralEstimate(math.inf, math.inf, 0, False)


def test_gamma_integral_is_the_log_integral_one_below(refine_calls):
    token = quadrature.suite_memo.set({})
    try:
        for x in (1.0, 3.7, 100.0, 150.5, 800.0):
            assert gamma_integral(x) == gamma_log_integral(x - 1.0)
    finally:
        quadrature.suite_memo.reset(token)
    # 800 is past the range: its lift's factor is inf and nothing is integrated
    assert len(refine_calls) == 4


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
    # The error of log I is the relative error of I; the lift's
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
