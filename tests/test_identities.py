"""Identity check and suite tests."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import sys
import threading
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import mpmath
import pytest

from eulergamma import (
    IDENTITIES,
    DomainError,
    beta_closed,
    beta_integral,
    check_algebraic_interpolation,
    check_duplication,
    check_factorial_root,
    check_gamma_fraction_product,
    check_gamma_square_product,
    check_gauss_multiplication,
    check_log_integral_product,
    check_reflection,
    check_sine_multiple_angle,
    check_sine_product,
    check_symbol_bridge,
    check_symbol_symmetry,
    default_grid,
    default_tolerance,
    euler_symbol,
    euler_symbol_closed,
    factorial_interp,
    gamma_integral,
    gamma_log_integral,
    gamma_reference,
    log_gamma,
    run_suite,
)
from eulergamma import backend, identities, quadrature
from eulergamma import gamma as gamma_module
from eulergamma.beta import log_beta
from eulergamma.errors import NOT_FINITE
from eulergamma.gamma import log_gamma_integral, log_gamma_terms
from eulergamma.reporting import render_csv

HALF_SQRT_PI = 0.8862269254527580


def test_reflection_at_half_yields_pi():
    report = check_reflection(0.5)  # the sides are logs
    assert report.passed
    assert abs(report.lhs - math.log(math.pi)) <= 1e-14
    assert abs(report.rhs - math.log(math.pi)) <= 1e-14


def test_reflection_at_third():
    report = check_reflection(1.0 / 3.0)
    exact = 2.0 * math.pi / math.sqrt(3.0)
    assert report.passed
    assert abs(report.lhs - math.log(exact)) <= 1e-13


def test_reflection_near_edge():
    report = check_reflection(0.9)
    assert report.passed
    assert report.rel_residual <= 1e-12


@pytest.mark.parametrize("x", [0.999999, 0.9999999])
def test_reflection_near_one_agrees_with_mpmath(x):
    # math.pi * x misses pi x by up to a few 1e-16, large beside
    # sin(pi x) = 3.1e-6 at x = 0.999999: sin(math.pi * x) put the right side
    # off by 6.2e-12 relative there, and by 6.3e-10 at 0.9999999.
    report = check_reflection(x)
    with mpmath.workdps(30):
        exact = float(mpmath.log(mpmath.pi / mpmath.sinpi(mpmath.mpf(x))))
    assert report.passed
    assert report.abs_residual <= 1e-14
    assert abs(report.rhs - exact) <= 1e-14


def _reflection_sweep():
    """Seed 23: 3,000 x log-uniform in [1e-322, 0.5], each with 1 - x
    where that is below 1."""
    rng = random.Random(23)
    xs = []
    for _ in range(3000):
        x = math.exp(rng.uniform(math.log(1e-322), math.log(0.5)))
        xs += [x, 1.0 - x] if 1.0 - x < 1.0 else [x]
    return xs


def test_reflection_holds_over_all_of_the_unit_interval():
    # Linear sides overflowed below x of about 5.6e-309 (inf = inf, a nan
    # residual, FAIL), and pi x loses bits once it is subnormal: 125 of
    # these true cases failed.  Both log sides must match 40-digit mpmath.
    with mpmath.workdps(40):
        for x in _reflection_sweep():
            report = check_reflection(x)
            assert report.passed, x
            exact = mpmath.log(mpmath.pi / mpmath.sinpi(mpmath.mpf(x)))
            assert abs(report.lhs - exact) <= 1e-13, x
            assert abs(report.rhs - exact) <= 1e-13, x


def test_reflection_domain_message():
    with pytest.raises(DomainError, match=r"x must lie in \(0,1\)"):
        check_reflection(1.5)
    with pytest.raises(DomainError):
        check_reflection(0.0)


# Each public engine and check, with valid arguments by name.
ENGINES_AND_CHECKS = [
    (gamma_reference, {"x": 2.5}), (log_gamma, {"x": 2.5}), (gamma_integral, {"x": 2.5}),
    (log_gamma_integral, {"x": 2.5}), (gamma_log_integral, {"s": 1.5}),
    (factorial_interp, {"lam": 1.5}), (log_beta, {"x": 1.5, "y": 2.5}),
    (beta_closed, {"x": 1.5, "y": 2.5}), (beta_integral, {"x": 1.5, "y": 2.5}),
    (euler_symbol, {"p": 1.0, "q": 2.0, "n": 3}),
    (euler_symbol_closed, {"p": 1.0, "q": 2.0, "n": 3}),
    (check_reflection, {"x": 0.25}), (check_gauss_multiplication, {"x": 2.5, "n": 3}),
    (check_duplication, {"x": 2.5}), (check_sine_product, {"n": 3}),
    (check_sine_multiple_angle, {"n": 3, "phi": 0.3}),
    (check_gamma_square_product, {"n": 3}), (check_gamma_fraction_product, {"n": 3}),
    (check_log_integral_product, {"n": 3}),
    (check_factorial_root, {"m": 2.0, "n": 3, "mode": "closed"}),
    (check_factorial_root, {"m": 2.0, "n": 3, "mode": "quadrature"}),
    (check_algebraic_interpolation, {"p": 1, "q": 2}),
    (check_symbol_symmetry, {"p": 1.0, "q": 2.0, "n": 3}),
    (check_symbol_bridge, {"p": 1.0, "q": 2.0, "n": 3}),
]


@pytest.mark.parametrize("bad", [10 ** 400, -10 ** 400, "abc", None, [1]],
                         ids=["1e400", "-1e400", "abc", "None", "list"])
def test_every_engine_and_check_refuses_what_float_refuses(bad):
    # float() refuses each: 10**400 with OverflowError, "abc" with
    # ValueError, None and [1] with TypeError, which escaped bare from
    # gamma_reference(None), beta_integral([1], 2) and euler_symbol(1, 1,
    # None).  Each is a DomainError naming the argument.
    for f, args in ENGINES_AND_CHECKS:
        f(**args)
        for name in args:
            message = ("mode must be" if name == "mode" else
                       f"{name} must be finite" if isinstance(bad, int) else
                       re.escape(f"{name} must be a number, got {bad!r}"))
            with pytest.raises(DomainError, match=message):
                f(**dict(args, **{name: bad}))


# The two log gamma engines' worst errors against 50-digit mpmath, relative
# to max(|log gamma(x)|, 1), summed: the batch math.lgamma's 1.9e-15 (near
# x = 3.1) and the g = 7 log_gamma's 4.1e-15 (near x = 2.6), each measured
# over 90,000 seeded draws in (1e-300, 1e5) and (0.2, 4).
TWO_ENGINE_ERROR = 1.9e-15 + 4.1e-15


def test_gauss_multiplication_degenerate_n1():
    # At n = 1 each side is one log gamma(x), the left from the batch
    # engine and the right from log_gamma: the residual is the two engines'
    # disagreement.
    report = check_gauss_multiplication(3.3, 1)
    assert report.passed
    assert report.abs_residual <= TWO_ENGINE_ERROR * max(abs(report.rhs), 1.0)


@pytest.mark.parametrize("engine", ["log_gamma", "log_gamma_terms"])
def test_gauss_multiplication_at_n1_fails_with_either_engine_off(monkeypatch, engine):
    # Gamma values off by 1 + 1e-9 in either engine, the g = 7 one through
    # its Lanczos sum or the batch one term by term, fail every default
    # n = 1 case.  (Scaling the batch's log terms instead would leave
    # log gamma(1) = 0 as it is.)
    if engine == "log_gamma":
        lanczos_sum = gamma_module._lanczos_sum
        monkeypatch.setattr(gamma_module, "_lanczos_sum", lambda y: lanczos_sum(y) * (1.0 + 1e-9))
    else:
        terms = identities.log_gamma_terms
        monkeypatch.setattr(identities, "log_gamma_terms",
                            lambda xs: [t + math.log1p(1e-9) for t in terms(xs)])
    cases = [case for case in default_grid()["gauss-multiplication"] if case["n"] == 1]
    suite = run_suite({"gauss-multiplication": cases})
    assert (len(cases), suite.n_fail) == (7, 7)


def test_gauss_multiplication_small_cases():
    report = check_gauss_multiplication(1.0, 2)
    assert report.passed
    assert report.rel_residual <= 1e-14
    report = check_gauss_multiplication(4.2, 7)
    assert report.rel_residual <= 1e-10


def test_duplication_bit_identical_to_gauss_n2():
    for x in (0.5, 2.5, 19.3):
        dup = check_duplication(x)
        gauss = check_gauss_multiplication(x, 2)
        assert dup.lhs == gauss.lhs
        assert dup.rhs == gauss.rhs
        assert dup.identity_id == "duplication"
        assert dup.params == {"x": x}


def test_sine_product_exact_small_cases():
    # the sides are logs: log 1 = 0 and log 0.75
    report = check_sine_product(2)
    assert report.lhs == 0.0 and report.rhs == 0.0
    report = check_sine_product(3)
    assert abs(report.lhs - math.log(0.75)) <= 1e-14
    assert abs(report.rhs - math.log(0.75)) <= 1e-15


def test_sine_product_large_n():
    report = check_sine_product(30)
    assert report.passed
    assert report.rel_residual <= 1e-10


def test_sine_product_rounding_does_not_drift_at_large_n():
    # math.pi is below pi, so sin(i math.pi / n) for i near n comes out high,
    # all in one direction; the factors sin(k pi/n), k = min(i, n - i), do
    # not drift.
    report = check_sine_product(99150)
    assert report.passed
    assert abs(report.lhs - report.rhs) <= 1e-12


def test_log_sines_mirror_their_lower_half_bit_for_bit():
    # The upper half is the lower half's floats in reverse: each term is the
    # one log sin(j pi/n), j = min(i, n - i), evaluates to.  That per-term
    # form is evaluated once per j <= n/2; the term at i > n/2 is, by
    # definition, the one at j = n - i.
    log, sin, pi = math.log, math.sin, math.pi
    for n in [*range(1, 5001), identities.MAX_N]:
        lower = [log(sin(j * pi / n)) for j in range(1, n // 2 + 1)]
        expected = array("d", lower + [lower[n - i - 1] for i in range(n // 2 + 1, n)])
        assert array("d", identities._log_sines(n)).tobytes() == expected.tobytes(), n


def test_sine_multiple_angle_degenerate_n1():
    report = check_sine_multiple_angle(1, 0.77)
    assert report.passed
    assert report.rel_residual <= 1e-14


def test_sine_multiple_angle_exact_case():
    # n=2, phi=pi/6: both sides sqrt(3)/2
    report = check_sine_multiple_angle(2, math.pi / 6.0)
    assert report.passed
    assert abs(report.lhs - math.sqrt(3.0) / 2.0) <= 1e-15


def test_sine_multiple_angle_generic():
    report = check_sine_multiple_angle(7, 0.3)
    assert report.passed
    assert report.rel_residual <= 1e-12


def test_sine_multiple_angle_zero_crossing_passes_on_the_relative_rule():
    # phi = pi/2 with n = 2 puts sin(n phi) next to a zero: both sides are
    # sin(2 fl(pi/2)) = 1.2e-16, each relatively accurate, and they pass on
    # the relative residual like any other sides.
    report = check_sine_multiple_angle(2, math.pi / 2.0)
    assert max(abs(report.lhs), abs(report.rhs)) <= 1e-15
    assert report.rel_residual <= report.tolerance
    assert report.passed
    # At a true zero both sides are 0, and 0 / 1e-300 passes.
    report = check_sine_multiple_angle(3, 0.0)
    assert report.lhs == report.rhs == 0.0 and report.passed


def _perturb_sines(monkeypatch, factor):
    """Scale every sine and cosine the check takes by ``factor``."""
    sin, cos = math.sin, math.cos
    monkeypatch.setattr(math, "sin", lambda x: sin(x) * factor)
    monkeypatch.setattr(math, "cos", lambda x: cos(x) * factor)


def test_sine_multiple_angle_near_zero_fails_a_perturbed_sine(monkeypatch):
    # Every sine off by 1 + 1e-9 puts the product side (two factors) off by
    # 1e-9 relative from sin(n phi) (one).  Near a zero that is a difference
    # of 1.2e-25, which an absolute rule for sides within 1e-6 of zero
    # passed.
    _perturb_sines(monkeypatch, 1.0 + 1e-9)
    report = check_sine_multiple_angle(2, math.pi / 2.0)
    assert report.rel_residual > report.tolerance
    assert report.abs_residual > 1e-26
    assert not report.passed


def _assert_sides_match_mpmath(cases, rel, dps=60):
    """Every case passes, and both sides match a ``dps``-digit sin(n phi)
    to ``rel`` relative."""
    with mpmath.workdps(dps):
        for n, phi in cases:
            report = check_sine_multiple_angle(n, phi)
            assert report.passed, (n, phi)
            exact = mpmath.sin(n * mpmath.mpf(phi))
            bound = rel * abs(exact)
            for side in (report.lhs, report.rhs):
                assert abs(side - exact) <= bound, (n, phi, side)


def _sine_multiple_angle_near_zero_sweep():
    """Seed 29: 3,000 draws at phi = j pi/n + delta, n in 1..40, j in
    0..2n-1 and |delta| log-uniform in [1e-300, 1e-6], both signs."""
    rng = random.Random(29)
    cases = []
    for _ in range(3000):
        n = rng.randint(1, 40)
        j = rng.randrange(2 * n)
        delta = rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e-300),
                                                               math.log(1e-6)))
        cases.append((n, j * math.pi / n + delta))
    return cases


def test_sine_multiple_angle_near_zero_matches_mpmath():
    # Most of these deltas are below an ulp of j pi/n, so phi is fl(j pi/n)
    # or j = 0's tiny phi.
    _assert_sides_match_mpmath(_sine_multiple_angle_near_zero_sweep(), 1e-12)


def _large_n_near_zero_sweep():
    """Seed 31: n in 50,000..MAX_N and j in 1..3, at phi = fl(j pi/n) or
    that plus a delta log-uniform between an ulp of it and 1e-6; and
    fl(pi/83434), whose sin(n phi) is -3.7e-18."""
    rng = random.Random(31)
    cases = [(83434, math.pi / 83434)]
    for i in range(20):
        n = rng.randint(50_000, identities.MAX_N)
        phi = rng.randint(1, 3) * math.pi / n
        if i % 2:
            phi += rng.choice((-1.0, 1.0)) * math.exp(
                rng.uniform(math.log(math.ulp(phi)), math.log(1e-6)))
        cases.append((n, phi))
    return cases


def test_sine_multiple_angle_passes_next_to_zeros_at_large_n():
    # With phi + k pi/n rounded to a double-double, the factor next to zero
    # was off by about eps^2 pi, and rhs by that times n: rel_residual 9.6e-10
    # at fl(pi/83434).  Reduced exactly, that factor takes rho itself.
    _assert_sides_match_mpmath(_large_n_near_zero_sweep(), 1e-11)


def _double_next_to_a_zero(n, e):
    """The double q 2^e, q < 2^53, with n q 2^e / pi nearest an integer
    among the continued-fraction convergents of n 2^e / pi."""
    x = n * mpmath.ldexp(1, e) / mpmath.pi
    q0, q1 = 0, 1
    while x != mpmath.floor(x) and q1 < 2 ** 53:
        x = 1 / (x - mpmath.floor(x))
        q0, q1 = q1, int(mpmath.floor(x)) * q1 + q0
    return math.ldexp(float(q0 if q1 >= 2 ** 53 else q1), e)


def test_sine_multiple_angle_passes_next_to_zeros_of_any_size():
    # Seed 37: 300 doubles phi = q 2^e, q < 2^53, e in -50..50, with sin(n phi)
    # far below the rounding of phi + k pi/n in double-double, with which
    # the relative rule failed 235 of them.
    rng = random.Random(37)
    with mpmath.workdps(60):
        cases = [(n, rng.choice((-1.0, 1.0)) * _double_next_to_a_zero(n, rng.randint(-50, 50)))
                 for n in (rng.randint(1, 60) for _ in range(300))]
    _assert_sides_match_mpmath(cases, 1e-13)


def test_sine_multiple_angle_fails_perturbed_sines_next_to_zeros(monkeypatch):
    # Seed 41: 200 doubles next to a zero of sin(n phi), n in 2..60, e in
    # 30..900.  Every sine off by 1 + 1e-9 puts the sides (n - 1) 1e-9
    # apart relatively, so each case fails; an absolute allowance for the
    # rounding of a double-double argument let all 200 pass.
    rng = random.Random(41)
    with mpmath.workdps(420):
        cases = [(n, rng.choice((-1.0, 1.0)) * _double_next_to_a_zero(n, rng.randint(30, 900)))
                 for n in (rng.randint(2, 60) for _ in range(200))]
    assert all(abs(phi) <= 1.3e300 for _, phi in cases)
    _perturb_sines(monkeypatch, 1.0 + 1e-9)
    passed = [(n, phi) for n, phi in cases if check_sine_multiple_angle(n, phi).passed]
    assert passed == []


def _sine_multiple_angle_sweep():
    """Seed 3: 3,000 draws with n in 1..2,000 and phi in [-10, 10], then
    1,000 at phi = k pi/n + 1e-9, 1e-7 or 1e-5, next to a zero of sin(n phi)."""
    rng = random.Random(3)
    cases = [(rng.randint(1, 2000), rng.uniform(-10.0, 10.0)) for _ in range(3000)]
    for i in range(1000):
        n = rng.randint(1, 2000)
        k = rng.randrange(2 * n)
        cases.append((n, k * math.pi / n + (1e-9, 1e-7, 1e-5)[i % 3]))
    return cases


def test_sine_multiple_angle_sweep_passes():
    # Rounding n phi and phi + k pi/n to doubles failed 482 of these true
    # cases: 11 of the first 3,000 and 471 next to a zero (worst
    # rel_residual 1.1e-6).
    failed = [(n, phi) for n, phi in _sine_multiple_angle_sweep()
              if not check_sine_multiple_angle(n, phi).passed]
    assert failed == []


def test_sine_multiple_angle_left_side_is_within_an_ulp_of_mpmath():
    with mpmath.workdps(40):
        for n, phi in _sine_multiple_angle_sweep():
            exact = mpmath.sin(n * mpmath.mpf(phi))
            lhs = check_sine_multiple_angle(n, phi).lhs
            assert abs(lhs - exact) <= sys.float_info.epsilon * abs(exact), (n, phi)


def test_fixed_point_pi_is_pi_rounded_down():
    with mpmath.workprec(identities._BITS + 64):
        exact = mpmath.floor(mpmath.pi * mpmath.mpf(2) ** identities._BITS)
    assert identities._PI == int(exact)


def _large_phi_sweep():
    """Seed 17: 1,500 draws, n in {1, 2, 3, 5, 7, 11, 30, 59} and |phi|
    log-uniform in [1e9, 1e200], both signs."""
    rng = random.Random(17)
    return [(rng.choice((1, 2, 3, 5, 7, 11, 30, 59)),
             rng.choice((-1.0, 1.0)) * math.exp(rng.uniform(math.log(1e9), math.log(1e200))))
            for _ in range(1500)]


def test_sine_multiple_angle_holds_at_large_phi():
    # Past |phi| of about 3e9 the low word of a sine argument is an ulp of a
    # large number, no longer small: sin(hi) + lo cos(hi) failed 1,301 of
    # these true cases.  Both sides must match a 40-digit sin(n phi), to
    # 1e-12 relative, or absolute where it is within 1e-6 of a zero.
    with mpmath.workdps(40):
        for n, phi in _large_phi_sweep():
            report = check_sine_multiple_angle(n, phi)
            assert report.passed, (n, phi)
            exact = mpmath.sin(n * mpmath.mpf(phi))
            bound = 1e-12 * (abs(exact) if abs(exact) > 1e-6 else 1.0)
            for side in (report.lhs, report.rhs):
                assert abs(side - exact) <= bound, (n, phi, side)


def test_sine_multiple_angle_accepts_phi_past_the_old_split():
    # Splitting phi for a double-double product overflowed past 1.339e300,
    # so such phi were refused; reduced exactly, they hold like any other.
    phis = (1.3e300, 1.31e300, 1.5e300, 1e308, sys.float_info.max)
    _assert_sides_match_mpmath([(3, s * phi) for phi in phis for s in (1.0, -1.0)], 1e-15,
                               dps=420)


def _whole_domain_sweep():
    """Seed 43: 600 draws with n in 1..200 and |phi| log-uniform in
    [1e-300, 1.79e308], both signs; 20 with n up to MAX_N and |phi|
    log-uniform in [1e-300, 1e-6]; and +-5e-324 and +-1e-320 at seven n."""
    rng = random.Random(43)

    def draw(n_max, phi_max):
        return (rng.randint(1, n_max), rng.choice((-1.0, 1.0)) * math.exp(
            rng.uniform(math.log(1e-300), math.log(phi_max))))

    cases = [draw(200, 1.79e308) for _ in range(600)]
    cases += [draw(identities.MAX_N, 1e-6) for _ in range(20)]
    cases += [(n, phi) for n in (1, 2, 3, 7, 60, 1000, identities.MAX_N)
              for phi in (5e-324, -5e-324, 1e-320, -1e-320)]
    return cases


def test_sine_multiple_angle_holds_over_the_whole_finite_domain():
    # Both sides within 1e-13 relative of a 420-digit sin(n phi), or, where
    # it is subnormal, within 1e-13 of the smallest normal double.
    with mpmath.workdps(420):
        for n, phi in _whole_domain_sweep():
            report = check_sine_multiple_angle(n, phi)
            assert report.passed, (n, phi)
            exact = mpmath.sin(n * mpmath.mpf(phi))
            bound = 1e-13 * max(abs(exact), sys.float_info.min)
            for side in (report.lhs, report.rhs):
                assert abs(side - exact) <= bound, (n, phi, side)


@pytest.mark.parametrize("check", [lambda: check_gauss_multiplication(1e308, 2),
                                   lambda: check_gauss_multiplication(1e307, 3),
                                   lambda: check_duplication(1e306),
                                   lambda: check_duplication(3e305)])
def test_log_space_check_past_double_range_is_a_domain_error(check):
    # log gamma(x) is inf here, or fsum's partial sums overflow: the sides
    # are not representable, which is not a failed identity.
    with pytest.raises(DomainError, match="^result not finite in double precision$"):
        check()


def test_gamma_square_product_small_cases():
    report = check_gamma_square_product(2)  # gamma(1/2)^2 = pi
    assert report.passed
    assert abs(math.exp(report.lhs) - math.pi) / math.pi <= 1e-13
    report = check_gamma_square_product(3)
    exact = math.pi ** 2 / 0.75
    assert abs(math.exp(report.lhs) - exact) / exact <= 1e-13


def test_gamma_fraction_product_small_cases():
    report = check_gamma_fraction_product(2)  # gamma(1/2) = sqrt(pi)
    assert report.passed
    assert abs(math.exp(report.lhs) - math.sqrt(math.pi)) <= 1e-14
    report = check_gamma_fraction_product(3)
    exact = 2.0 * math.pi / math.sqrt(3.0)
    assert abs(math.exp(report.lhs) - exact) / exact <= 1e-13


def test_fraction_product_is_half_square_product_log():
    # the fraction-product log-lhs must equal half the square-product log-lhs
    for n in range(2, 31):
        fraction = check_gamma_fraction_product(n)
        square = check_gamma_square_product(n)
        assert abs(fraction.lhs - square.lhs / 2.0) <= 1e-12 * max(1.0, abs(fraction.lhs))


def test_log_space_checks_pass_on_the_log_residual():
    # |dlog| is about 3e-14 and 7e-14, far inside 1e-10, but the log sides
    # are near 0, so |dlog|/|log| exceeded the tolerance.
    for x, n in ((24.79554080257118, 17), (58.66017791097947, 93)):
        report = check_gauss_multiplication(x, n)
        assert report.rel_residual > report.tolerance
        assert report.passed


def test_log_space_residual_is_not_scaled_by_the_log(monkeypatch):
    # An engine error of 1e-9 in log gamma(x) is a relative error of 1e-9 in
    # the linear products, ten times the tolerance; over |log| = 252 it is
    # only 4.0e-12 relative to the log.  The rounding allowance is 1.3e-12.
    monkeypatch.setattr(identities, "log_gamma", lambda x: log_gamma(x) + 1e-9)
    report = check_gauss_multiplication(100.0, 3)
    assert report.rel_residual <= report.tolerance < report.abs_residual
    assert not report.passed


def test_log_space_rule_allows_for_rounding_at_large_logs():
    # log gamma(1e6) is 1.28e7, where one ulp is 1.9e-9, and log gamma(3e6)
    # is 4.17e7, where it is 7.5e-9: rounding alone puts |dlog| past 1e-10,
    # and the identity is still true.
    for report in (check_duplication(3e6), check_gauss_multiplication(1e6, 3)):
        assert report.abs_residual > report.tolerance
        assert report.passed


def test_gauss_multiplication_rejects_an_underflowing_term():
    # the k = 0 term x/n rounds to 0 for a subnormal x
    with pytest.raises(DomainError, match="x / n must be positive"):
        check_gauss_multiplication(5e-324, 2)
    with pytest.raises(DomainError, match="x / n must be positive"):
        check_duplication(5e-324)


def test_factorial_root_rejects_an_underflowing_m_over_n():
    # m / n rounds to 0 for a subnormal m; the message named x
    for mode in identities.MODES:
        with pytest.raises(DomainError, match="m / n must be positive"):
            check_factorial_root(5e-324, 3, mode=mode)


def test_subnormal_quotients_pass():
    # A subnormal x/n keeps fewer bits than x, so log gamma(x/n) ~ -log(x/n)
    # was taken at another point than the other side's exact x: about half
    # of these draws failed each check, by up to 0.6 in abs_residual.  Where
    # x/n underflows to 0 the check is refused, and nowhere else.
    rng = random.Random(5)
    checks = {"gauss-multiplication": lambda x, n: check_gauss_multiplication(x, n),
              "duplication": lambda x, n: check_duplication(x),
              "factorial-root": lambda x, n: check_factorial_root(x, n)}
    refused = Counter()
    for _ in range(3000):
        x = math.ldexp(rng.uniform(1.0, 2.0), -rng.randint(1023, 1074))
        n = rng.randint(2, 12)
        for identity_id, check in checks.items():
            divisor = 2 if identity_id == "duplication" else n
            if x / divisor == 0.0:
                with pytest.raises(DomainError, match="/ n must be positive"):
                    check(x, n)
                refused[identity_id] += 1
                continue
            report = check(x, n)
            assert report.passed, report
            assert report.abs_residual <= 2e-13, report
    assert 0 < refused["duplication"] < refused["gauss-multiplication"]


def test_normal_quotients_keep_their_logs():
    # Above the smallest normal double the quotient is logged as it is.
    tiny = sys.float_info.min
    for a, n in [(3 * tiny, 3), (7.3, 9), (1e-300, 7), (2.5, 2)]:
        assert identities._log_quotient(a, n) == math.log(a / n)
    assert identities._log_quotient(1e-320, 3) == math.log(1e-320) - math.log(3)


def test_log_integral_product_small_case():
    report = check_log_integral_product(2)  # the sides are logs
    assert report.passed
    assert abs(report.lhs - math.log(HALF_SQRT_PI)) <= 1e-9
    for n in (3, 6):
        assert check_log_integral_product(n).rel_residual <= 1e-7


def test_sine_product_compares_tiny_sides_in_log_space(monkeypatch):
    # At n = 30 both sides are about 5.6e-8, within 1e-6 of zero.  Sines each
    # off by 1 + 1e-9 put the product off by 2.9e-8 relative, which a linear
    # comparison on the absolute rule (|difference| 1.6e-15) would pass.
    sin = math.sin
    monkeypatch.setattr(math, "sin", lambda x: sin(x) * (1.0 + 1e-9))
    report = check_sine_product(30)
    assert report.abs_residual > report.tolerance
    assert not report.passed


def test_log_integral_product_compares_tiny_sides_in_log_space(monkeypatch):
    # From n = 171 both sides are within 1e-6 of zero.  At n = 200, integrals
    # each off by 1 + 1e-6 put the product off by 2e-4 relative, which a
    # linear comparison on the absolute rule would pass.
    integral = identities.gamma_log_integral

    def scaled(s):
        estimate = integral(s)
        return estimate._replace(value=estimate.value * (1.0 + 1e-6))

    monkeypatch.setattr(identities, "gamma_log_integral", scaled)
    report = check_log_integral_product(200)
    assert report.abs_residual > report.tolerance
    assert not report.passed


@pytest.mark.parametrize("check, n", [(check_sine_product, 2000),
                                      (check_log_integral_product, 200)])
def test_product_sides_past_the_near_zero_rule_are_finite_logs(check, n):
    report = check(n)
    assert report.passed
    assert math.isfinite(report.lhs) and report.lhs < math.log(1e-6)
    assert math.isfinite(report.rhs) and report.rhs < math.log(1e-6)


def test_factorial_root_trivial_and_small():
    report = check_factorial_root(1.0, 1)  # the sides are logs
    assert report.passed
    assert abs(report.lhs) <= 1e-14
    report = check_factorial_root(1.0, 2)
    assert abs(report.lhs - math.log(HALF_SQRT_PI)) <= 1e-12
    assert report.abs_residual <= 1e-12


@pytest.mark.parametrize("m, n", [(200.0, 1), (2000.0, 10), (1e5, 7), (3.3e7, 120)])
def test_factorial_root_past_the_double_range_of_its_factorial(m, n):
    # (m/n)! overflows past m/n of about 170.6, where the linear sides
    # exited 2; the log sides are log gamma(m/n + 1).
    report = check_factorial_root(m, n)
    with mpmath.workdps(40):
        exact = mpmath.loggamma(mpmath.mpf(m) / n + 1)
    assert report.passed
    for side in (report.lhs, report.rhs):
        assert abs(side - exact) <= 1e-14 * exact, side


def test_factorial_root_real_m_closed():
    report = check_factorial_root(7.3, 5)
    assert report.passed
    assert report.abs_residual <= 1e-10
    assert report.params["mode"] == "closed"


def test_factorial_root_quadrature_mode():
    report = check_factorial_root(2.0, 3, mode="quadrature")
    assert report.passed
    assert report.abs_residual <= 1e-7
    assert report.tolerance == 1e-7


def _per_symbol_radicand_terms(m, n):
    """The closed radicand's log terms symbol by symbol: (n - m) log n and
    log gamma(m), then for each S(i, m; n) = B(i/n, m/n)/n its
    log gamma(i/n) + log gamma(m/n) - log gamma((i+m)/n) - log n, each
    log gamma term from the batch engine but a subnormal m/n's: there
    gamma(q) = gamma(q + 1) / q with q + 1 rounding to 1, and log q is
    log m - log n."""
    log_n = math.log(n)
    if m / n < sys.float_info.min:
        log_gamma_quotient = log_n - math.log(m)
    else:
        log_gamma_quotient = log_gamma_terms([m / n])[0]
    terms = [(n - m) * log_n, *log_gamma_terms([m])]
    for i in range(1, n):
        of_i, of_i_m = log_gamma_terms([i / n, (i + m) / n])
        terms += [of_i, log_gamma_quotient, -of_i_m, -log_n]
    return terms


def test_closed_radicand_grouped_by_kind_is_the_per_symbol_fsum():
    # The closed radicand groups its terms by kind and repeats the two that
    # do not depend on i; its fsum is the per-symbol fsum, bit for bit, also
    # past the stored tables (n = 1025) and for a subnormal m/n.
    rng = random.Random(31)
    cases = [(math.exp(rng.uniform(math.log(0.05), math.log(50.0))), rng.randint(1, 120))
             for _ in range(3000)]
    cases += [(7.3, identities.FRACTION_TABLE_MAX_N + 1), (1e-320, 3)]
    assert 1e-320 / 3 < sys.float_info.min
    for m, n in cases:
        batch = identities._gauss_terms(m, n, m)
        terms, converged = identities._factorial_root_log_inner(m, n, "closed", batch)
        assert converged
        want = math.fsum(_per_symbol_radicand_terms(m, n))
        assert math.fsum(terms).hex() == want.hex(), (m, n)


def test_exact_pairs_sum_as_the_repeats_they_stand_for():
    # (n - 1) copies of one float reach fsum as k times its Veltkamp head and
    # tail, both exact while k < 2^17; fsum rounds the exact sum, so the
    # result is the repeats' double, beside any other terms, bit for bit.
    # Where the split is not exact (near overflow, near the subnormal range,
    # at 0) the float is repeated as before.
    assert identities.MAX_N < 2 ** 17
    low, high = identities._SPLIT_RANGE
    rng = random.Random(46)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    vs = [math.lgamma(log_uniform(1e-300, 1e300)) for _ in range(1500)]
    vs += [sign * math.log(rng.randint(2, identities.MAX_N)) for _ in range(500)
           for sign in (1.0, -1.0)]
    edges = [0.0, -0.0, low, high, math.nextafter(low, 1.0), math.nextafter(high, 0.0),
             math.nextafter(low, 0.0), math.nextafter(high, math.inf), 2.0 ** 1020, 1e-320]
    vs += [sign * v for v in edges for sign in (1.0, -1.0)]
    for i, v in enumerate(vs):
        k = (0, 1, identities.MAX_N - 1)[i % 3] if i % 10 == 0 else int(
            log_uniform(1.0, identities.MAX_N))
        # terms up to the size of k v, so that some sums nearly cancel
        others = [rng.choice((-1.0, 1.0)) * min(log_uniform(1e-20, 1.0) * abs(v) * max(k, 1),
                                               sys.float_info.max)
                  for _ in range(rng.randint(0, 6))]
        sums = []
        for copies in (itertools.repeat(v, k), identities._repeated(v, k)):
            try:
                sums.append(math.fsum(itertools.chain(others, copies)).hex())
            except (OverflowError, ValueError) as exc:
                sums.append(repr(exc))
        assert sums[0] == sums[1], (v, k, others)
    # an overflowing radicand is still refused
    for m, n in ((1e306, 3), (1e307, identities.MAX_N), (5e306, identities.MAX_N - 1)):
        with pytest.raises(DomainError, match=NOT_FINITE):
            check_factorial_root(m, n)


def test_factorial_root_mode_validation():
    with pytest.raises(DomainError):
        check_factorial_root(1.0, 2, mode="symbolic")


def test_algebraic_interpolation_trivial_and_derived():
    report = check_algebraic_interpolation(1, 1)  # the sides are logs
    assert report.passed
    assert abs(report.lhs) <= 1e-12
    report = check_algebraic_interpolation(1, 2)
    assert abs(report.lhs - math.log(HALF_SQRT_PI)) <= 1e-8
    assert report.abs_residual <= 1e-6
    # p/q = 150 and 166.67 take the left side's integral past s = 99, where
    # it is lifted
    for p, q in ((3, 4), (300, 2), (500, 3)):
        report = check_algebraic_interpolation(p, q)
        assert report.passed and report.abs_residual <= 1e-6, (p, q)


def test_symbol_symmetry_and_bridge_spot():
    report = check_symbol_symmetry(1.0, 2.0, 3)
    assert report.passed
    report = check_symbol_symmetry(2.5, 0.7, 4)
    assert report.passed
    report = check_symbol_bridge(3.0, 2.0, 5)
    assert report.passed
    assert report.abs_residual <= 1e-7


def test_symbol_bridge_fails_a_doubled_integral_of_tiny_sides(monkeypatch):
    # Both sides of S(200, 200; 2) are about 1.1e-61.  Compared linearly,
    # they fell to the near-zero rule, and a doubled integral passed with
    # rel_residual 0.5; in log space it is off by log 2.
    assert check_symbol_bridge(200.0, 200.0, 2).passed
    symbol = identities.euler_symbol

    def doubled(p, q, n):
        estimate = symbol(p, q, n)
        return estimate._replace(value=2.0 * estimate.value)

    monkeypatch.setattr(identities, "euler_symbol", doubled)
    report = check_symbol_bridge(200.0, 200.0, 2)
    assert not report.passed
    assert abs(report.abs_residual - math.log(2.0)) <= 1e-12


def test_an_integral_that_underflows_is_a_named_domain_error():
    # S(1.7e308, 1; 2) is about 9.6e-155, but its integrand underflows to 0
    # at every node, and the log of that 0 was a bare "math domain error".
    message = "an integral underflowed to 0 in double precision"
    for check in (check_symbol_bridge, check_symbol_symmetry):
        with pytest.raises(DomainError, match=f"^{message}$"):
            check(1.7e308, 1.0, 2)
    (report,) = run_suite({"symbol-bridge": [{"p": 1.7e308, "q": 1.0, "n": 2}]}).reports
    assert not report.passed and report.error == f"DomainError: {message}"


def test_symbol_symmetry_sides_are_distinct_integrals():
    # With p != q the two sides must be two quadratures: were they one memo
    # entry read twice, every case would pass without testing anything.
    cases = [case for case in default_grid()["symbol-symmetry"] if case["p"] != case["q"]]
    assert cases
    for case in cases:
        p, q, n = float(case["p"]), float(case["q"]), float(case["n"])
        token = quadrature.suite_memo.set({})
        try:
            check_symbol_symmetry(p, q, case["n"])
            keys = set(quadrature.suite_memo.get())
        finally:
            quadrature.suite_memo.reset(token)
        assert keys == {(backend.EULER_SYMBOL, p, q, n), (backend.EULER_SYMBOL, q, p, n)}


def test_derivation_chain_spot():
    # Three closed-form routes to log (m/n)!: Gamma direct (closed lhs),
    # E421 with the Beta closed forms (closed rhs) and Gauss's product form
    # (quadrature-mode lhs).
    for m, n in [(1, 2), (5, 7), (8, 8)]:
        closed = check_factorial_root(m, n)
        gauss = check_factorial_root(m, n, mode="quadrature").lhs
        for a, b in itertools.combinations((closed.lhs, closed.rhs, gauss), 2):
            assert abs(a - b) <= 1e-12, (m, n)


@pytest.mark.parametrize("m", [1e-300, 3e-308, 1e-308, 1e-310, 1e-320, 3e-322])
def test_derivation_chain_values_hold_for_a_tiny_m(m):
    # Gauss's product form for a tiny m: log(m/n) is taken as log m - log n
    # where m/n is subnormal, and log(m/n) + log gamma(m), each about 700 in
    # size, cancel to about 0, leaving up to an ulp of 700 each.  The right
    # side is not converged there (the symbols' exponent m/n at x = 1 is far
    # below 0.05), so the check fails honestly.  Closed mode's E421 root
    # (rhs), where (m/n) times the root's exp once overflowed, is held
    # to the same reference.
    report = check_factorial_root(m, 3, mode="quadrature")
    assert not report.passed
    closed = check_factorial_root(m, 3)
    assert closed.passed
    with mpmath.workdps(40):
        exact = mpmath.loggamma(mpmath.mpf(m) / 3 + 1)
    assert abs(report.lhs - exact) <= 2e-13
    assert abs(closed.rhs - exact) <= 2e-13


def test_quadrature_mode_sides_agree_with_mpmath():
    # Gauss's product form (lhs) and E421's radicand by quadrature (rhs)
    # each against 50-digit mpmath log (m/n)!; a pass needs every symbol
    # converged.
    for m, n in itertools.product([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 7.3, 19.9], range(2, 9)):
        report = check_factorial_root(m, n, mode="quadrature")
        with mpmath.workdps(50):
            exact = mpmath.loggamma(mpmath.mpf(m) / n + 1)
        assert report.passed, (m, n)
        assert abs(report.lhs - exact) <= 1e-14, (m, n)
        assert abs(report.rhs - exact) <= 1e-14, (m, n)


@pytest.mark.parametrize("n", [1, 3])
def test_quadrature_mode_catches_a_shifted_log_gamma(monkeypatch, n):
    # The right side's g = 7 log gamma(m) shifted by 1e-6 moves the rhs by
    # 1e-6 / n, past the 1e-7 tolerance; the lhs takes log gamma(m) from the
    # batch engine, so at n = 1 the check does not compare one float with
    # itself.
    assert check_factorial_root(7.3, n, mode="quadrature").passed
    monkeypatch.setattr(identities, "log_gamma", lambda x: log_gamma(x) + 1e-6)
    assert not check_factorial_root(7.3, n, mode="quadrature").passed


def test_log_space_accumulation_is_permutation_invariant():
    rng = random.Random(20260813)
    x, n = 19.3, 12
    report = check_gauss_multiplication(x, n)
    terms = log_gamma_terms([(x + k) / n for k in range(n)])
    for _ in range(25):
        rng.shuffle(terms)
        assert math.fsum(terms) == report.lhs
    n = 41
    report = check_gamma_fraction_product(n)
    terms = log_gamma_terms([i / n for i in range(1, n)])
    for _ in range(25):
        rng.shuffle(terms)
        assert math.fsum(terms) == report.lhs


def _catalogue_tolerances():
    """{id: default tol column} from the README's identity catalogue."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Identity catalogue", 1)[1]
    rows = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")]
        if len(cells) == 5 and cells[1].startswith("`"):
            rows[cells[1].strip("`")] = cells[3]
    return rows


def test_default_tolerances():
    assert default_tolerance("reflection") == 1e-12
    assert default_tolerance("gauss-multiplication") == 1e-10
    assert default_tolerance("factorial-root") == 1e-10
    assert default_tolerance("factorial-root", "quadrature") == 1e-7
    assert default_tolerance("algebraic-interpolation") == 1e-6
    with pytest.raises(DomainError):
        default_tolerance("nope")
    # every row against the catalogue; "closed / quadrature" where the mode matters
    catalogue = _catalogue_tolerances()
    assert sorted(catalogue) == sorted(IDENTITIES)
    for identity_id, column in catalogue.items():
        modes = ("closed", "quadrature") if "/" in column else ("closed",)
        stated = [float(text) for text in column.split("/")]
        assert [default_tolerance(identity_id, mode) for mode in modes] == stated


@pytest.mark.parametrize("mode, tolerance", [("closed", 1e-10), ("quadrature", 1e-7)])
def test_crashed_case_reports_its_modes_tolerance(mode, tolerance):
    (report,) = run_suite({"factorial-root": [{"m": -1.0, "n": 2, "mode": mode}]}).reports
    assert report.error == "DomainError: m must be positive and finite"
    assert report.tolerance == tolerance


def test_default_grid_shape():
    grid = default_grid()
    assert set(grid) == {
        "algebraic-interpolation", "duplication", "factorial-root",
        "gamma-fraction-product", "gamma-square-product", "gauss-multiplication",
        "log-integral-product", "reflection", "sine-multiple-angle",
        "sine-product", "symbol-bridge", "symbol-symmetry",
    }
    assert len(grid["gauss-multiplication"]) == 84  # 12 n-values x 7 x-values
    assert len(grid["reflection"]) == 20  # 19 steps of 0.05 plus 1/3
    assert len(grid["factorial-root"]) == 124  # 104 closed + 20 quadrature
    assert len(grid["symbol-symmetry"]) == 125


def test_build_grid_collapses_repeated_points_in_first_seen_order():
    # Values are compared after their axis converts them, so "3", 3 and 3.0
    # are one n; repr tells the kept int and float values apart.
    def cases(identity_id, axes):
        return repr(identities.build_grid([identity_id], axes)[identity_id])

    assert cases("sine-product", {"n": ["3", 2, 2.0, 3]}) == repr([{"n": 3}, {"n": 2}])
    assert cases("duplication", {"x": [1, 1.0, "0.5"]}) == repr([{"x": 1.0}, {"x": 0.5}])
    # With mode closed, factorial-root's second block (m 1..5, n 2..5) lies
    # inside its first.
    closed = [{"m": m, "n": n, "mode": "closed"}
              for m in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 0.5, 7.3, 19.9]
              for n in [1, 2, 3, 4, 5, 6, 7, 8]]
    assert cases("factorial-root", {"mode": ["closed"]}) == repr(closed)
    assert cases("factorial-root", {"m": [1, 1.0, "0.5"], "n": ["3", 2, 2.0, 3],
                                    "mode": ["closed"]}) == repr(
        [{"m": 1.0, "n": 3, "mode": "closed"}, {"m": 1.0, "n": 2, "mode": "closed"},
         {"m": 0.5, "n": 3, "mode": "closed"}, {"m": 0.5, "n": 2, "mode": "closed"}])


def test_run_suite_default_grid_all_pass():
    suite = run_suite()
    assert suite.n_fail == 0
    assert suite.n_pass == len(suite.reports)
    assert suite.n_pass + suite.n_fail == len(suite.reports)


def test_run_suite_deterministic_order_and_values():
    grid = {
        "sine-product": [{"n": 5}, {"n": 2}, {"n": 11}],
        "reflection": [{"x": 0.7}, {"x": 0.2}],
    }
    first = run_suite(grid)
    second = run_suite({k: list(reversed(v)) for k, v in grid.items()})
    strip = lambda r: (r.identity_id, tuple(sorted(r.params.items())), r.lhs, r.rhs,
                       r.abs_residual, r.rel_residual, r.tolerance, r.passed)
    assert [strip(r) for r in first.reports] == [strip(r) for r in second.reports]
    assert [r.identity_id for r in first.reports] == (
        ["reflection"] * 2 + ["sine-product"] * 3
    )
    assert [r.params["n"] for r in first.reports[2:]] == [2, 5, 11]


def _exact_params(params):
    # names, value types and values, so that 1 and 1.0 and the two zeros differ
    return sorted((repr(name), type(value).__name__, repr(value))
                  for name, value in params.items())


class _Half(float):
    pass


def test_run_suite_orders_cases_as_params_key(monkeypatch):
    # A uniform case list is sorted by itemgetter of its sorted names; any
    # other goes through params_key.  Either way the reports come in
    # params_key's order, ties in input order.
    rng = random.Random(46)
    grids = [default_grid(), _closed_form_wide_grid(),
             {"sine-product": [{"n": rng.randint(2, 30)} for _ in range(40)]}]
    for grid in grids:
        for cases in grid.values():
            rng.shuffle(cases)
            assert identities._order_key(cases) is not identities.params_key
        suite = run_suite(grid)
        want = [params for identity_id in sorted(grid)
                for params in sorted(grid[identity_id], key=identities.params_key)]
        assert [_exact_params(r.params) for r in suite.reports] == list(map(_exact_params, want))

    # Every case of an echoing row crashes, and its report keeps the params
    # as given, so the order is visible for any names and values.
    def echo(**params):
        raise LookupError

    monkeypatch.setitem(identities.IDENTITIES, "reflection",
                        dataclasses.replace(identities.IDENTITIES["reflection"], run=echo))
    ties = [{"x": 0.0}, {"x": -0.0}, {"x": 0.5}, {"x": 0.0}]
    general = [
        [{"x": True}, {"x": 1}, {"x": False}],  # bool
        [{"x": _Half(0.5)}, {"x": 0.25}, {"x": _Half(0.125)}],  # float subclass
        [{"x": 0.5}, {"x": math.nan}, {"x": 0.25}],  # NaN
        [{"x": 1}, {"x": 1.0}, {"x": 0.5}, {"x": 0}],  # int and float on one axis
        [{"x": 0.5}, {"y": 0.25}, {"x": 0.125}],  # names that differ
        [{"x": 0.5, "n": 2}, {"x": 0.25}],  # a missing name
        [{1: 0.5}, {1: 0.25}],  # non-str names
        [{}, {}],  # no names
    ]
    strs = [{"x": "b"}, {"x": "a"}, {"x": "b"}]
    for cases, uniform in [(ties, True), (strs, True)] + [(c, False) for c in general]:
        cases = cases * 2
        rng.shuffle(cases)
        assert (identities._order_key(cases) is not identities.params_key) == uniform, cases
        reports = run_suite({"reflection": cases}).reports
        assert [_exact_params(r.params) for r in reports] == list(
            map(_exact_params, sorted(cases, key=identities.params_key))), cases
    # a case that is not a mapping raises, as params_key does
    with pytest.raises(AttributeError):
        run_suite({"reflection": [{"x": 0.5}, [("x", 0.25)]]})


def test_run_suite_records_check_crash_as_failure():
    # x outside (0,1) raises inside the check; the suite must absorb it
    suite = run_suite({"reflection": [{"x": 1.5}, {"x": 0.5}]})
    assert suite.n_fail == 1
    assert suite.n_pass == 1
    failed = [r for r in suite.reports if not r.passed]
    assert math.isnan(failed[0].lhs)


def test_crash_report_records_the_exception():
    suite = run_suite({"reflection": [{"x": 1.5}, {"x": 0.5}]})
    crashed, passed = suite.reports[1], suite.reports[0]
    assert crashed.params == {"x": 1.5}
    assert crashed.error == "DomainError: x must lie in (0,1)"
    assert passed.error is None


@pytest.mark.parametrize("bad, error", [
    ("a", "DomainError: x must be a number, got 'a'"),
    (None, "DomainError: x must be a number, got None"),
])
def test_run_suite_reports_values_that_do_not_compare(bad, error):
    # A hand-built grid may hold values that do not compare with a number;
    # sorting its points must not raise before any check runs, nor depend on
    # the order they come in.
    points = [{"x": bad}, {"x": 1.5}]
    runs = [run_suite({"reflection": order}) for order in (points, points[::-1])]
    for suite in runs:
        assert (suite.n_pass, suite.n_fail) == (0, 2)
        assert [(r.params, r.error) for r in suite.reports] == [
            ({"x": 1.5}, "DomainError: x must lie in (0,1)"), ({"x": bad}, error)]
    assert render_csv(runs[0]) == render_csv(runs[1])


def test_run_suite_tolerance_override_forces_failure():
    suite = run_suite(
        {"gauss-multiplication": [{"n": 3, "x": 2.5}]},
        tolerances={"gauss-multiplication": 1e-30},
    )
    assert suite.n_fail == 1
    assert suite.reports[0].tolerance == 1e-30


def test_run_suite_rejects_bad_input():
    with pytest.raises(DomainError):
        run_suite({})
    with pytest.raises(DomainError):
        run_suite({"sine-product": []})
    with pytest.raises(DomainError):
        run_suite({"unknown-identity": [{"n": 2}]})
    with pytest.raises(DomainError):
        run_suite({"sine-product": [{"n": 4}]}, tolerances={"nope": 1e-3})


def test_run_suite_rejects_bad_tolerances():
    for bad in (math.nan, math.inf, -1e-3, 0.0):
        with pytest.raises(DomainError, match="tolerance for sine-product"):
            run_suite({"sine-product": [{"n": 4}]}, tolerances={"sine-product": bad})


def test_default_suite_integrates_each_distinct_integral_once(refine_calls):
    suite = run_suite()
    assert suite.n_fail == 0
    assert len(refine_calls) == 172
    assert len(set(refine_calls)) == 172


def test_default_suite_evaluates_each_fraction_table_once(log_gamma_args):
    run_suite()
    # 3,319 when every check evaluated its own log gamma(i/n) table; 2,655
    # before quadrature-mode factorial-root took its lhs from Gauss's product
    # (n more terms at each of its 20 cases: n + 1 batch terms in place of
    # the scalar log gamma(m/n + 1))
    assert len(log_gamma_args) == 2725
    # A second run reads the tables the first one stored: 1,225 fewer, the
    # 1 + 2 + ... + 49 terms of n = 2..50.
    log_gamma_args.clear()
    run_suite()
    assert len(log_gamma_args) == 1500


def test_distinct_n_sweep_keeps_8_bytes_per_table_term(fraction_tables):
    # No table is reused here, yet each is kept for the process: the peak is
    # its 8 bytes per term plus about 100 kB of reports (a tuple of float
    # objects would take 32 bytes per term).
    grid = {"gamma-fraction-product": [{"n": n} for n in range(2, 202)]}
    terms = sum(n - 1 for n in range(2, 202))
    tracemalloc.start()
    try:
        run_suite(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * terms + 200_000


def test_suite_reports_are_values():
    assert run_suite() == run_suite()


def test_suite_reports_equal_checks_run_outside_a_suite():
    suite = run_suite()
    assert quadrature.suite_memo.get() is None
    for report in suite.reports:
        direct = IDENTITIES[report.identity_id].run(**report.params, tolerance=None)
        assert direct == report


@pytest.fixture
def fraction_tables(monkeypatch):
    """The process's store of log gamma(i/n) tables, empty for the test, so
    what it counts does not depend on the tests run before it."""
    tables = {}
    monkeypatch.setattr(identities, "_fraction_tables", tables)
    return tables


@pytest.fixture
def log_gamma_args(monkeypatch, fraction_tables):
    """Every argument log gamma is evaluated at through ``identities``, by the
    scalar ``log_gamma`` or the batch ``log_gamma_terms``, in call order,
    starting from an empty store of fraction tables."""
    args = []
    batch = identities.log_gamma_terms

    def counting_batch(xs):
        xs = list(xs)
        args.extend(xs)
        return batch(xs)

    monkeypatch.setattr(identities, "log_gamma", lambda x: args.append(x) or log_gamma(x))
    monkeypatch.setattr(identities, "log_gamma_terms", counting_batch)
    return args


def _fraction_counts(args, n):
    counts = Counter(args)
    return [counts[i / n] for i in range(1, n)]


def _assert_memo_ended(refine_calls, log_gamma_args):
    # Integrals are no longer shared once the run is over ...
    assert quadrature.suite_memo.get() is None
    before = len(refine_calls)
    euler_symbol(1.0, 2.0, 3)
    euler_symbol(1.0, 2.0, 3)
    assert len(refine_calls) == before + 2
    # ... while the run's n = 5 table, built once, stays for the process.
    assert _fraction_counts(log_gamma_args, 5) == [1] * 4
    check_gamma_fraction_product(5)
    check_gamma_fraction_product(5)
    assert _fraction_counts(log_gamma_args, 5) == [1] * 4


_MEMO_GRID = {"symbol-bridge": [{"p": 1.0, "q": 2.0, "n": 3}],
              "gamma-fraction-product": [{"n": 5}]}


def test_memo_ends_with_the_suite_run(refine_calls, log_gamma_args):
    run_suite(_MEMO_GRID)
    _assert_memo_ended(refine_calls, log_gamma_args)


def test_memo_ends_when_a_check_raises(refine_calls, log_gamma_args):
    grid = {**_MEMO_GRID, "reflection": [{"x": 1.5}]}
    suite = run_suite(grid)
    assert suite.n_fail == 1
    _assert_memo_ended(refine_calls, log_gamma_args)


def test_memo_ends_when_the_suite_raises(refine_calls, log_gamma_args):
    # the two known ids run first, then the unknown id aborts the run
    grid = {**_MEMO_GRID, "zzz": [{"n": 2}]}
    with pytest.raises(DomainError, match="unknown identity"):
        run_suite(grid)
    _assert_memo_ended(refine_calls, log_gamma_args)


def test_fraction_table_is_kept_for_the_process(monkeypatch, fraction_tables,
                                                log_gamma_args):
    memos = []
    table = identities._log_gamma_fractions

    def recording(n):
        memos.append(quadrature.suite_memo.get())
        return table(n)

    monkeypatch.setattr(identities, "_log_gamma_fractions", recording)
    grid = {
        "factorial-root": [{"m": 0.5, "n": 9, "mode": "closed"},
                           {"m": 7.3, "n": 9, "mode": "closed"}],
        "gamma-fraction-product": [{"n": 9}],
    }
    suite = run_suite(grid)
    assert suite.n_fail == 0
    assert _fraction_counts(log_gamma_args, 9) == [1] * 8
    # the process's store holds the one table, as an array of doubles, and
    # the run's memo holds nothing
    assert len(memos) == 3 and memos[0] is memos[-1] and memos[0] == {}
    assert list(fraction_tables) == [9]
    stored = fraction_tables[9]
    assert isinstance(stored, array) and stored.typecode == "d"
    assert list(stored) == log_gamma_terms([i / 9 for i in range(1, 9)])
    # a second run and calls outside a run read it
    assert run_suite(grid) == suite
    for case in grid["factorial-root"]:
        check_factorial_root(case["m"], case["n"])
    check_gamma_fraction_product(9)
    assert _fraction_counts(log_gamma_args, 9) == [1] * 8
    assert list(fraction_tables) == [9] and fraction_tables[9] is stored


def _past_the_cap_grid(n):
    return {
        "factorial-root": [{"m": 0.5, "n": n, "mode": "closed"},
                           {"m": 7.3, "n": n, "mode": "closed"}],
        "gamma-fraction-product": [{"n": n}],
        "gamma-square-product": [{"n": n}],
    }


def test_fraction_table_past_the_cap_is_never_kept(fraction_tables, log_gamma_args):
    n = identities.FRACTION_TABLE_MAX_N + 1
    # built by each of the four checks, in a run or outside one, and never kept
    assert run_suite(_past_the_cap_grid(n)).n_fail == 0
    assert _fraction_counts(log_gamma_args, n) == [4] * (n - 1)
    assert fraction_tables == {}
    check_gamma_fraction_product(n)
    check_gamma_fraction_product(n)
    assert _fraction_counts(log_gamma_args, n) == [6] * (n - 1)
    assert fraction_tables == {}


def test_run_memo_holds_only_family_integrals(monkeypatch, fraction_tables):
    memos = []
    table = identities._log_gamma_fractions

    def recording(n):
        memos.append(quadrature.suite_memo.get())
        return table(n)

    monkeypatch.setattr(identities, "_log_gamma_fractions", recording)
    grid = {**_past_the_cap_grid(identities.FRACTION_TABLE_MAX_N + 1),
            "symbol-bridge": [{"p": 1.0, "q": 2.0, "n": 3}]}
    assert run_suite(grid).n_fail == 0
    assert len(memos) == 4 and all(memo is memos[0] for memo in memos)
    assert list(memos[0]) == [(backend.EULER_SYMBOL, 1.0, 2.0, 3.0)]


def _fresh_fraction_table(n):
    return array("d", log_gamma_terms(i / n for i in range(1, n)))


def _closed_form_wide_grid():
    """The shape of the benchmark's closed-form-wide grid: its six
    identities, n = 2..120 and ten seeded log-uniform x and m."""
    rng = random.Random(121)
    return identities.build_grid(
        ["duplication", "factorial-root", "gamma-fraction-product",
         "gamma-square-product", "gauss-multiplication", "sine-product"],
        {"n": list(range(2, 121)),
         "x": [math.exp(rng.uniform(math.log(0.01), math.log(100.0))) for _ in range(10)],
         "m": [math.exp(rng.uniform(math.log(0.05), math.log(50.0))) for _ in range(10)],
         "mode": ["closed"]})


def test_closed_form_wide_output_is_pinned():
    # The default grid stops at n = 12 for gauss-multiplication and n = 8 for
    # factorial-root; this pins every byte of the CSV out to n = 120.
    suite = run_suite(_closed_form_wide_grid())
    text = render_csv(suite).encode()
    assert (len(suite.reports), suite.n_fail, len(text)) == (2747, 0, 359_574)
    assert hashlib.sha256(text).hexdigest() == (
        "4188347177c0ef25e6c2921b489dca1cdd5be7b0edfe8bdac06bcd056e3019c7")


def test_stored_fraction_tables_stay_intact():
    # Callers only read the shared tables: after the default suite and a
    # closed-form-wide grid, every stored table (these and any an earlier
    # test left) is still the fresh evaluation, bit for bit.
    assert run_suite().n_fail == 0
    assert run_suite(_closed_form_wide_grid()).n_fail == 0
    assert set(range(2, 121)) <= set(identities._fraction_tables)
    for n, table in identities._fraction_tables.items():
        assert table.tobytes() == _fresh_fraction_table(n).tobytes(), n


def test_fraction_tables_built_by_racing_threads_are_identical(fraction_tables):
    ns = range(2, 200)
    want = {n: _fresh_fraction_table(n).tobytes() for n in ns}
    results, errors = [], []

    def work():
        try:
            results.append({n: identities._log_gamma_fractions(n).tobytes() for n in ns})
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
    assert {n: table.tobytes() for n, table in fraction_tables.items()} == want


def test_run_suite_config_echo():
    suite = run_suite({"sine-product": [{"n": 4}]})
    # Every quadrature runs at the one tolerance and budget; only the grid
    # is echoed.
    assert suite.config_echo == {"grid": {"sine-product": 1}}


def test_integer_parameters_validated():
    with pytest.raises(DomainError):
        check_sine_product(1)
    for bad in (math.inf, -math.inf, math.nan, 10 ** 400):
        with pytest.raises(DomainError, match="n must be finite"):
            check_sine_product(bad)
    with pytest.raises(DomainError, match="must be finite"):
        IDENTITIES["sine-product"].axes["n"](math.inf)
    with pytest.raises(DomainError):
        check_sine_product(2.5)
    with pytest.raises(DomainError, match="phi must be finite"):
        check_sine_multiple_angle(3, math.inf)
    with pytest.raises(DomainError, match="x must be finite"):
        identities.build_grid(["reflection"], {"x": [math.nan]})
    with pytest.raises(DomainError):
        check_gauss_multiplication(1.0, 0)
    with pytest.raises(DomainError):
        check_algebraic_interpolation(0, 2)
    with pytest.raises(DomainError):
        check_factorial_root(-1.0, 2)


@pytest.mark.parametrize("n", [1, 2, 9, 120])
def test_closed_factorial_root_computes_log_gamma_m_over_n_once(log_gamma_args, n):
    check_factorial_root(7.3, n)
    # log gamma(m), log gamma(m/n) once, then gamma(i/n) and gamma((i+m)/n),
    # and gamma(m/n + 1) for the left side
    assert len(log_gamma_args) == 2 * (n - 1) + 3
    assert log_gamma_args.count(7.3 / n) == (2 if n == 1 else 1)
    # a second check reads the stored gamma(i/n) table
    log_gamma_args.clear()
    check_factorial_root(7.3, n)
    assert len(log_gamma_args) == (n - 1) + 3
    assert log_gamma_args.count(7.3 / n) == (2 if n == 1 else 1)


def test_derivation_chain_values_are_pinned():
    # Quadrature-mode factorial-root's lhs, Gauss's product form of
    # log (m/n)!: math.lgamma terms and the log gamma(i/n) table.  Against
    # 50-digit mpmath its worst absolute error over these points is 8.1e-15,
    # at n = 120.
    pinned = {
        (1.0, 2): "-0x1.eeb95b094c178p-4",
        (5.0, 7): "-0x1.7be51bd16f9e4p-4",
        (0.5, 3): "-0x1.334e7fb05a3a4p-4",
        (7.3, 40): "-0x1.482c6cb4b6d6ep-4",
        (19.9, 120): "-0x1.322bcd1687d10p-4",
    }
    for (m, n), expected in pinned.items():
        assert check_factorial_root(m, n, mode="quadrature").lhs.hex() == expected


def test_closed_form_n_is_capped():
    too_big = identities.MAX_N + 1
    checks = [
        lambda n: check_gauss_multiplication(1.0, n),
        check_gamma_fraction_product,
        check_gamma_square_product,
        check_sine_product,
        lambda n: check_sine_multiple_angle(n, 0.3),
        lambda n: check_factorial_root(1.0, n),
        lambda n: check_factorial_root(1.0, n, mode="quadrature"),
        check_log_integral_product,
        lambda q: check_algebraic_interpolation(1, q),
    ]
    for check in checks:
        for n in (too_big, 1e30):
            with pytest.raises(DomainError, match=f"[nq] must be <= {identities.MAX_N}"):
                check(n)
    assert check_sine_product(identities.MAX_N).passed
