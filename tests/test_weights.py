import numpy as np
import pytest

from szegofock import (
    ConvergenceError,
    DomainError,
    UnsupportedWeight,
    WeightFamily,
    WeightSpec,
    conjugate_spec,
    effective_conjugate,
    eval_weight,
    format_weight,
    gaussian,
    inverse_derivative,
    parse_weight,
    profile_power,
    radial_power,
    weight_derivatives,
    young_conjugate_closed,
    young_conjugate_numeric,
)
from szegofock.weights import profile_dp, profile_p


def test_eval_weight_examples():
    assert eval_weight(radial_power(2), 1 + 1j) == pytest.approx(2.0)
    assert eval_weight(profile_power(3), 2 + 5j) == pytest.approx(8.0 / 3.0)
    assert eval_weight(gaussian(), 3.0) == pytest.approx(4.5)


def test_profile_imaginary_part_ignored():
    spec = profile_power(2.5)
    assert eval_weight(spec, -1.5 + 7j) == eval_weight(spec, -1.5)


def test_gaussian_is_the_quadratic_profile():
    # one spec, so every consumer treats both names alike
    assert gaussian() == profile_power(2.0)
    assert format_weight(profile_power(2.0)) == "gaussian"
    assert parse_weight("profile:alpha=2") == parse_weight("gaussian")
    assert [f.value for f in WeightFamily] == ["radial", "profile"]


def test_constructor_validation():
    with pytest.raises(DomainError):
        radial_power(0.0)
    with pytest.raises(DomainError):
        radial_power(-1.0)
    with pytest.raises(DomainError):
        profile_power(1.0)
    with pytest.raises(DomainError):
        profile_power(1.0 + 1e-9)  # below the alpha floor
    assert gaussian().alpha == 2.0


def test_weight_spec_stores_a_float_alpha_and_checks_its_family():
    # an int alpha is stored as the float it was checked as, so the profile
    # engines see the same spec as profile_power(3.0); a family that is not
    # a WeightFamily (here its value), which `is_profile` and `eval_weight`
    # would read differently, is rejected
    spec = WeightSpec(WeightFamily.PROFILE_POWER, 3)
    assert type(spec.alpha) is float and spec == profile_power(3.0)
    assert effective_conjugate(spec, 1.0, 1000.0) == effective_conjugate(profile_power(3.0),
                                                                         1.0, 1000.0)
    with pytest.raises(DomainError, match="WeightFamily"):
        WeightSpec("profile", 3.0)


def test_weight_derivatives_examples():
    assert weight_derivatives(profile_power(3), 2.0) == pytest.approx((4.0, 4.0))
    assert weight_derivatives(gaussian(), -1.5) == pytest.approx((-1.5, 1.0))
    with pytest.raises(DomainError):
        weight_derivatives(profile_power(1.5), 0.0)
    with pytest.raises(UnsupportedWeight):
        weight_derivatives(radial_power(2), 1.0)


def test_young_conjugate_closed_examples():
    assert young_conjugate_closed(profile_power(2), 1.0) == pytest.approx(0.5)
    assert young_conjugate_closed(profile_power(4), 1.0) == pytest.approx(0.75)
    for alpha in (1.5, 2.0, 3.0):
        assert young_conjugate_closed(profile_power(alpha), 0.0) == 0.0
    with pytest.raises(UnsupportedWeight):
        young_conjugate_closed(radial_power(2), 1.0)


def test_young_conjugate_numeric_examples():
    assert young_conjugate_numeric(profile_power(2), 3.0, 1e-9) == pytest.approx(4.5, abs=1e-9)
    expected = 2.0 ** 1.5 / 1.5
    assert young_conjugate_numeric(profile_power(3), 2.0, 1e-9) == pytest.approx(expected, abs=1e-9)
    # the rounding of x|eta| - p(x) alone passes tol: 4 eps * 1.5e10 at the Gaussian
    with pytest.raises(ConvergenceError, match="rounding"):
        young_conjugate_numeric(gaussian(), 1e5, 1e-10)


def test_young_conjugate_numeric_within_tol_or_raises(rng):
    # against 40-digit mpmath, over alpha in [1.01, 7] and |eta| up to 1e5,
    # with points where the value's rounding nears or passes tol:
    # (2, 1e5), (1.5, 300), (4, 5e4)
    mpmath = pytest.importorskip("mpmath")
    cases = [(2.0, 1e5, 1e-12), (1.5, 300.0, 1e-12), (4.0, 5e4, 1e-12), (3.0, 1000.0, 1e-10)]
    cases += [(float(rng.uniform(1.01, 7.0)), float(10.0 ** rng.uniform(-8.0, 5.0)),
               float(10.0 ** rng.uniform(-13.0, -6.0))) for _ in range(400)]
    returned = 0
    with mpmath.workdps(40):
        for alpha, eta, tol in cases:
            try:
                value = young_conjugate_numeric(profile_power(alpha), -eta, tol)
            except (ConvergenceError, DomainError):
                continue
            ap = mpmath.mpf(alpha) / (mpmath.mpf(alpha) - 1)
            assert abs(value - mpmath.mpf(eta) ** ap / ap) <= tol, (alpha, eta, tol)
            returned += 1
    assert returned >= 300


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
def test_young_numeric_matches_closed_on_grid(alpha):
    spec = profile_power(alpha)
    for eta in np.arange(-10.0, 10.5, 1.0):
        closed = young_conjugate_closed(spec, eta)
        numeric = young_conjugate_numeric(spec, eta, 1e-8)
        assert numeric == pytest.approx(closed, abs=1e-8)


def test_double_conjugation_recovers_weight():
    # conjugate of the conjugate evaluated numerically twice
    spec = profile_power(4.0)
    dual = conjugate_spec(spec)
    r = 1.7
    recovered = young_conjugate_numeric(dual, r, 1e-9)
    assert recovered == pytest.approx(eval_weight(spec, r), abs=1e-7)
    assert conjugate_spec(gaussian()) == gaussian()  # the Gaussian is self-dual


def test_fenchel_young_inequality(rng):
    for alpha in (1.5, 2.0, 3.0, 4.0):
        spec = profile_power(alpha)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0)
            eta = rng.uniform(-5.0, 5.0)
            lhs = x * abs(eta)
            rhs = eval_weight(spec, x) + young_conjugate_closed(spec, eta)
            assert lhs <= rhs + 1e-12
        for eta in (-3.0, 0.5, 2.0):
            x = inverse_derivative(spec, eta)
            gap = eval_weight(spec, x) + young_conjugate_closed(spec, eta) - x * abs(eta)
            assert abs(gap) < 1e-10


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
def test_conjugate_is_convex_on_grid(alpha):
    spec = profile_power(alpha)
    etas = np.linspace(-6.0, 6.0, 121)
    vals = np.array([young_conjugate_closed(spec, e) for e in etas])
    second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
    assert np.min(second) >= -1e-12


def test_inverse_derivative_examples():
    assert inverse_derivative(profile_power(3), 4.0) == pytest.approx(2.0)
    assert inverse_derivative(profile_power(2), 3.0) == pytest.approx(3.0)
    assert inverse_derivative(gaussian(), 0.0) == 0.0


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_inverse_derivative_inverts_slope(alpha):
    spec = profile_power(alpha)
    for eta in (0.25, 1.0, 4.0):
        mu = inverse_derivative(spec, eta)
        slope, _ = weight_derivatives(spec, mu)
        assert slope == pytest.approx(eta, rel=1e-12)


def test_overflowing_mu_and_conjugate_raise_domain_error():
    spec = profile_power(1.001)
    with pytest.raises(DomainError, match="overflows"):
        inverse_derivative(spec, 3.0)
    with pytest.raises(DomainError, match="overflows"):
        young_conjugate_closed(spec, 3.0)


POWER_POINTS = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, 1e100, -1e100,
                         np.inf, -np.inf, np.nan])


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
def test_profile_powers_by_products_match_pow(alpha):
    # p and p' form |x|^alpha and |x|^(alpha-1) by products and sqrt here:
    # within 2 ulps of pow where it is finite, and inf or nan exactly where
    # it is (1e100^4 overflows, 1e-300^1.5 underflows to 0)
    spec = profile_power(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = ((profile_p(spec, POWER_POINTS), np.abs(POWER_POINTS) ** alpha / alpha),
                 (profile_dp(spec, POWER_POINTS),
                  np.sign(POWER_POINTS) * np.abs(POWER_POINTS) ** (alpha - 1.0)))
    for got, ref in pairs:
        finite = np.isfinite(ref)
        np.testing.assert_array_equal(got[~finite], ref[~finite])
        assert np.all(np.abs(got[finite] - ref[finite]) <= 2.0 * np.spacing(np.abs(ref[finite])))
        assert np.all(np.isfinite(got[finite]))


def test_profile_powers_elsewhere_stay_pow(rng):
    spec = profile_power(2.5)
    x = np.concatenate([rng.normal(size=200), 10.0 ** rng.uniform(-300, 100, 200), POWER_POINTS])
    np.testing.assert_array_equal(profile_p(spec, x), np.abs(x) ** 2.5 / 2.5)
    np.testing.assert_array_equal(profile_dp(spec, x), np.sign(x) * np.abs(x) ** 1.5)


def test_parse_and_format_weights():
    for text in ("radial:alpha=2", "profile:alpha=3", "gaussian", "radial:alpha=0.5",
                 "profile:alpha=2.5000001"):
        assert format_weight(parse_weight(text)) == text
    assert parse_weight("radial:alpha=0.5").alpha == 0.5
    for bad in ("", "radial", "radial:alpha=", "radial:alpha=x", "profile:alpha=1",
                "gauss", "radial:alpha=-2"):
        with pytest.raises(ValueError):
            parse_weight(bad)


def test_format_weight_round_trips(rng):
    # six significant digits would print 1.0000015 as 1 (rejected) and 1/3 as 0.333333
    specs = [profile_power(1.0000015), radial_power(1.0 / 3.0), profile_power(2.5000001)]
    specs += [radial_power(10.0 ** rng.uniform(-3.0, 3.0)) for _ in range(200)]
    specs += [profile_power(1.0 + 10.0 ** rng.uniform(-5.9, 2.0)) for _ in range(200)]
    specs += [radial_power(float(k)) for k in range(1, 8)]
    for spec in specs:
        assert parse_weight(format_weight(spec)) == spec
