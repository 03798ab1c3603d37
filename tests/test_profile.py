import math
import warnings

import numpy as np
import pytest

from szegofock import (
    BoundaryPoint,
    DomainError,
    NearSingular,
    QuadConfig,
    SingularPoint,
    SzegofockError,
    TruncationError,
    bergman_from_szego_gaussian,
    bergman_gaussian_closed,
    bergman_profile,
    bergman_roundtrip_extrapolated,
    duality_finiteness_criterion,
    duality_marginal_integral,
    effective_conjugate,
    eval_weight,
    gaussian,
    inner_integral,
    integrate_interval,
    laplace_asymptotic,
    parse_weight,
    profile_power,
    sandwich_bounds_check,
    shifted_maximizer_gap,
    szego_gaussian_closed,
    szego_profile,
    young_conjugate_closed,
)
import szegofock.profile as profile_module
from szegofock.profile import _kernel_tau_batch, _log_inner_batch
from szegofock.weights import profile_p

PI = math.pi
SQRT_PI = math.sqrt(PI)


def _mpmath_log_inner(mpmath, alpha, tau, eta, dps=30):
    """log I(eta, tau) for p = |x|^alpha / alpha by mpmath.quad at dps digits.

    The integrand is taken in the offset d = r - c from the peak c =
    sign(eta) mu(eta), as exp(-2 tau D(c + d, c)) with D the Bregman
    divergence of p written out, so dps must cover the cancellation of its
    terms of size |c|^alpha.  The integrand is log-concave with its peak 1
    at d = 0, so once it is below 1e-40 at -+H the tails beyond hold less
    than 1e-40 H; H doubles from the eta = 0 decay length until that holds.
    """
    with mpmath.workdps(dps):
        a, tau, eta = mpmath.mpf(alpha), mpmath.mpf(tau), mpmath.mpf(eta)
        ap = a / (a - 1)
        c = mpmath.sign(eta) * abs(eta) ** (1 / (a - 1))
        pc, dpc = abs(c) ** a / a, mpmath.sign(c) * abs(c) ** (a - 1)

        def f(d):
            return mpmath.exp(-2 * tau * (abs(c + d) ** a / a - pc - dpc * d))

        H = (45 * a / (2 * tau)) ** (1 / a)
        while f(-H) > 1e-40 or f(H) > 1e-40:
            H *= 2
        pts = {-H, -H / 8, 0, H / 8, H}
        if abs(c) < H:
            pts.add(-c)
        return float(2 * tau * abs(eta) ** ap / ap + mpmath.log(mpmath.quad(f, sorted(pts))))


def test_inner_integral_gaussian_closed_form(cfg):
    g = gaussian()
    assert inner_integral(g, 1.0, 0.0, cfg).value.real == pytest.approx(SQRT_PI, rel=1e-9)
    assert inner_integral(g, 1.0, 1.0, cfg).value.real == pytest.approx(
        SQRT_PI * math.exp(1.0), rel=1e-9)
    assert inner_integral(g, 2.0, 0.0, cfg).value.real == pytest.approx(
        math.sqrt(PI / 2.0), rel=1e-9)


def test_effective_conjugate_gaussian(cfg):
    g = gaussian()
    assert effective_conjugate(g, 1.0, 0.0, cfg) == pytest.approx(
        math.log(SQRT_PI) / 2.0, abs=1e-10)
    assert effective_conjugate(g, 1.0, 2.0, cfg) == pytest.approx(
        2.0 + math.log(SQRT_PI) / 2.0, abs=1e-9)


def test_effective_conjugate_tightens_with_tau(cfg):
    spec = profile_power(4.0)
    pstar = young_conjugate_closed(spec, 1.0)
    gap_small_tau = abs(effective_conjugate(spec, 1.0, 1.0, cfg) - pstar)
    gap_large_tau = abs(effective_conjugate(spec, 10.0, 1.0, cfg) - pstar)
    assert gap_large_tau <= gap_small_tau


def test_effective_conjugate_gaussian_far_peak(cfg):
    # log I = tau eta^2 + log(pi / tau) / 2; a first window of half-width
    # 2 mu = 2e3 about a peak of width ~1 used to miss it by 7e-5 relative
    eta = 1e3
    for tau in (1.0, 60.0):
        exact = eta * eta / 2.0 + math.log(PI / tau) / (4.0 * tau)
        assert effective_conjugate(gaussian(), tau, eta, cfg) == pytest.approx(exact, rel=1e-12)


def test_effective_conjugate_against_mpmath(cfg):
    mpmath = pytest.importorskip("mpmath")
    tau, eta = 60.0, 30.0
    ref = _mpmath_log_inner(mpmath, 1.5, tau, eta) / (2.0 * tau)
    assert effective_conjugate(profile_power(1.5), tau, eta, cfg) == pytest.approx(ref, rel=1e-12)


def test_effective_conjugate_far_peak_against_mpmath(cfg):
    # mu = 1e6: the unshifted exponent terms are ~1e11 and cancel to O(1)
    # at the peak unless the exponent is formed as a Bregman divergence
    mpmath = pytest.importorskip("mpmath")
    tau, eta = 60.0, 1e3
    ref = _mpmath_log_inner(mpmath, 1.5, tau, eta)
    got = 2.0 * tau * effective_conjugate(profile_power(1.5), tau, eta, cfg)
    assert abs(got - ref) <= 1e-12 * abs(ref)


# alpha near 1, where the former adaptive path returned log I = 0.0013 for
# 0.095 (first case) and missed the second too; mu up to 7e23 with a peak
# ~1e12 wide (third), which it could not integrate; and three it passed
NEAR_ONE_CASES = [(1.001, 1.0, 0.3), (1.01, 10.0, 0.9), (1.02, 10.0, 3.0),
                  (1.1, 1.0, 100.0), (1.05, 1.0, 8.0), (1.02, 1.0, 3.0)]


@pytest.mark.parametrize("alpha, tau, eta", NEAR_ONE_CASES)
def test_effective_conjugate_near_alpha_one_against_mpmath(alpha, tau, eta, cfg):
    mpmath = pytest.importorskip("mpmath")
    ref = _mpmath_log_inner(mpmath, alpha, tau, eta, dps=80)
    spec = profile_power(alpha)
    got = 2.0 * tau * effective_conjugate(spec, tau, eta, cfg)
    assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
    if ref < 700.0:
        res = inner_integral(spec, tau, eta, cfg)
        assert res.abs_err_estimate >= abs(res.value - math.exp(ref))
    else:
        with pytest.raises(DomainError, match="overflows"):
            inner_integral(spec, tau, eta, cfg)


def test_effective_conjugate_grid_returns_or_raises_typed(cfg):
    # no bare OverflowError, NaN or RuntimeWarning anywhere on the grid;
    # 24 points raise, where |eta|^alpha' max(1, 2 tau) passes ~1e300
    returned = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1.001, 1.01, 1.02, 1.05, 1.1, 1.3, 1.5, 2.0, 2.5, 3.0, 4.0):
            spec = profile_power(alpha)
            for tau in (0.05, 1.0, 10.0, 60.0):
                for eta in (0.0, 0.3, 0.5, 0.9, -1.0, 1.5, 3.0, 8.0, -30.0, 100.0, 1e3):
                    try:
                        value = effective_conjugate(spec, tau, eta, cfg)
                    except SzegofockError:
                        continue
                    assert math.isfinite(value), (alpha, tau, eta)
                    returned += 1
    assert returned >= 460


def test_inner_integral_overflow_raises(cfg):
    # log I = 1e6 at eta = 1e3: not representable, so no inf is returned
    with pytest.raises(DomainError, match="overflows"):
        inner_integral(gaussian(), 1.0, 1e3, cfg)
    with pytest.raises(DomainError, match="overflows"):
        inner_integral(profile_power(1.5), 1.0, 1e3, cfg)


def test_bergman_profile_alpha15_tight_against_tau_batch():
    # criterion 04's tight config asks the inner rule for 1e-13, which two
    # Gauss panels meeting the |r|^1.5 singularity at r = 0 never reached
    spec = profile_power(1.5)
    cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=4000)
    tau = 1.2919433100044269
    z, w = 0.24258609613926585 - 0.5472879414911842j, 0.15733949247373125 - 0.8577096966811935j
    got = bergman_profile(spec, tau, z, w, cfg).value
    ref = _kernel_tau_batch(spec, [tau], z + w.conjugate(), np.zeros(1), 1e-13)[0][0]
    assert abs(got - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref))


def test_log_inner_is_convex_in_eta(rng):
    for _ in range(20):
        alpha = rng.choice([1.5, 2.0, 3.0, 4.0])
        tau = rng.uniform(0.3, 3.0)
        spec = profile_power(alpha)
        etas = np.linspace(-4.0, 4.0, 41)
        logI, _ = _log_inner_batch(spec, tau, etas, 1e-9)
        second = logI[2:] - 2.0 * logI[1:-1] + logI[:-2]
        assert np.min(second) >= -1e-7


def test_bergman_profile_examples(tight):
    g = gaussian()
    assert bergman_profile(g, 1.0, 0.0, 0.0, tight).value == pytest.approx(
        1.0 / (2.0 * PI), rel=1e-10)
    assert bergman_profile(g, 1.0, 1.0, 1.0, tight).value == pytest.approx(
        math.exp(1.0) / (2.0 * PI), rel=1e-10)
    # depends on z + conj(w) only: purely imaginary translation is invisible
    assert bergman_profile(g, 1.0, 1j, 1j, tight).value == pytest.approx(
        1.0 / (2.0 * PI), rel=1e-10)


def test_bergman_profile_translation_and_symmetry(rng, cfg):
    g = gaussian()
    for _ in range(8):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        c = rng.uniform(-2, 2)
        a = bergman_profile(g, 1.0, z, w, cfg).value
        b = bergman_profile(g, 1.0, z + 1j * c, w + 1j * c, cfg).value
        assert a == pytest.approx(b, rel=1e-8)
        h = bergman_profile(g, 1.0, w, z, cfg).value
        assert a == pytest.approx(h.conjugate(), rel=1e-8)


def test_bergman_profile_matches_closed_nongaussian_exponent(cfg):
    # quartic profile: no closed form; Hermitian + positivity sanity
    spec = profile_power(4.0)
    val = bergman_profile(spec, 1.0, 0.5, 0.5, cfg).value
    assert val.real > 0.0
    assert abs(val.imag) < 1e-10 * val.real


@pytest.mark.parametrize("tau, z, w", [
    (math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
    (1.0, complex(math.nan, 0.0), 0.5), (1.0, 0.5, complex(0.0, math.inf)),
])
def test_bergman_profile_rejects_nonfinite(tau, z, w):
    with pytest.raises(DomainError):
        bergman_profile(gaussian(), tau, z, w)


KERNEL_TAUS = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0])


@pytest.mark.parametrize("weight", ["gaussian", "profile:alpha=1.5",
                                    "profile:alpha=3", "profile:alpha=4"])
def test_tau_batch_kernel_matches_bergman_profile(weight, cfg):
    spec = parse_weight(weight)
    rtol = max(1e-13, 0.05 * cfg.rel_tol)
    for u in (0.6 + 0.05j, -0.9 + 0.02j, 1.4 - 0.03j):
        got, n_evals = _kernel_tau_batch(spec, KERNEL_TAUS, u, np.zeros(KERNEL_TAUS.size), rtol)
        assert n_evals > 0
        for tau, value in zip(KERNEL_TAUS, got):
            ref = bergman_profile(spec, tau, u, 0.0, cfg).value
            assert abs(value - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
def test_bergman_profile_homogeneity(alpha, cfg):
    # K_tau(z, w) = tau^(2/a) K_1(tau^(1/a) z, tau^(1/a) w)
    spec = profile_power(alpha)
    z, w = 0.4 + 0.1j, -0.3 + 0.2j
    for tau in (0.3, 2.5, 7.0):
        s = tau ** (1.0 / alpha)
        lhs = bergman_profile(spec, tau, z, w, cfg).value
        rhs = tau ** (2.0 / alpha) * bergman_profile(spec, 1.0, s * z, s * w, cfg).value
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_bergman_gaussian_closed_examples():
    assert bergman_gaussian_closed(1.0, 0.0, 0.0) == pytest.approx(1.0 / (2.0 * PI))
    assert bergman_gaussian_closed(2.0, 1.0, -1.0) == pytest.approx(1.0 / PI)
    expected = (1.0 / (2.0 * PI)) * np.exp(2.0j)
    assert bergman_gaussian_closed(1.0, 1.0 + 1.0j, 1.0 - 1.0j) == pytest.approx(expected)


@pytest.mark.parametrize("z", [30.0, 30.0 + 1.0j])
def test_bergman_gaussian_closed_overflow_raises(z):
    with pytest.raises(DomainError, match="overflows"):
        bergman_gaussian_closed(1.0, z, 30.0)


def test_szego_gaussian_closed_examples():
    assert szego_gaussian_closed(BoundaryPoint(0, 0), BoundaryPoint(0, 1)) == pytest.approx(
        -1.0 / (2.0 * PI))
    assert szego_gaussian_closed(BoundaryPoint(1, 0), BoundaryPoint(0, 0)) == pytest.approx(
        8.0 / PI)
    with pytest.raises(SingularPoint):
        szego_gaussian_closed(BoundaryPoint(1, 0), BoundaryPoint(1, 0))


def test_szego_profile_damped_point(loose):
    g = gaussian()
    res = szego_profile(g, BoundaryPoint(1, 0), BoundaryPoint(0, 0), loose)
    assert res.method == "triple-quadrature"
    assert res.value == pytest.approx(8.0 / PI, rel=1e-4)


def _within_tol(res, ref, cfg):
    return abs(res.value - ref) <= max(cfg.abs_tol, cfg.rel_tol * abs(ref))


@pytest.mark.parametrize("dist", [0.05, 0.1, 0.2, 0.5, 1.0])
def test_szego_profile_gaussian_near_points(dist, loose):
    # near points, where the integrand barely decays on the real tau axis
    p1 = BoundaryPoint(0.1 + 0.2j + dist * (0.6 + 0.8j) / 2, 0.3)
    p2 = BoundaryPoint(0.1 + 0.2j - dist * (0.6 + 0.8j) / 2, -0.2)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2)
    assert _within_tol(res, ref, loose)
    assert abs(res.value - ref) <= min(res.abs_err_estimate, 1e-12 * abs(ref))


@pytest.mark.parametrize("z, s, t", [(0.0, 0.0, 1.0), (0.0, 0.4, -0.3),
                                     (0.5 + 0.3j, 0.0, 1.0), (-0.3 - 0.6j, 0.2, -0.5),
                                     (1.0 + 0.3j, 0.0, 0.2), (2.0 + 0.3j, 0.0, 1.0)])
def test_szego_profile_gaussian_equal_z(z, s, t, loose):
    # z = w, s != t: the integrand does not decay on the real tau axis; at
    # the last two points the x sum on the steepest-descent ray cancels
    # from terms e^{(Re z)^2 r / 2} larger than it, and only a ray nearer
    # the real axis converges
    p1, p2 = BoundaryPoint(z, s), BoundaryPoint(z, t)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2)
    assert _within_tol(res, ref, loose)
    assert abs(res.value - ref) <= min(res.abs_err_estimate, 1e-12 * abs(ref))


def test_szego_profile_power_two_is_gaussian(loose):
    p1, p2 = BoundaryPoint(0.2 - 0.1j, 0.1), BoundaryPoint(0.1 + 0.15j, -0.35)
    res = szego_profile(profile_power(2.0), p1, p2, loose)
    assert _within_tol(res, szego_gaussian_closed(p1, p2), loose)


def test_szego_profile_im_distance_one(loose):
    # |Im(z - w)| >= 1: the oscillating x sum of K_1 cancels far below its
    # terms, so rtol |K_1| is out of the kernel rule's reach
    p1 = BoundaryPoint(0.18343226883801267 - 0.33150979398458535j, 0.09029098228971466)
    p2 = BoundaryPoint(-0.1454480961812442 + 0.9280045276882244j, 0.18975668840137316)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2)
    assert _within_tol(res, ref, loose)
    assert abs(res.value - ref) <= res.abs_err_estimate


def _szego_on_ray(spec, p1, p2, cfg, omega):
    """The tau integral along the ray tau = r omega, integrated in
    s = r^(1/a) up to where its L1 envelope has fallen by e^-60."""
    z, w = p1.z, p2.z
    a = spec.alpha
    rate = eval_weight(spec, z) + eval_weight(spec, w) + 1j * (p2.t - p1.t)
    u = z + w.conjugate()
    envelope = 2.0 * profile_p(spec, 0.5 * (omega ** (1.0 / a) * u).real) - (omega * rate).real
    assert envelope < 0.0
    r_max = 60.0 / -envelope
    rtol = max(1e-13, 0.05 * max(min(cfg.rel_tol * 0.1, 1e-6), 1e-12))

    def g(s):
        taus = s ** a * omega
        log_weight = math.log(a) + (a - 1.0) * np.log(s) - taus * rate
        return _kernel_tau_batch(spec, taus, u, log_weight, rtol)[0]

    edges = np.linspace(0.0, r_max, 9)[1:-1] ** (1.0 / a)
    return omega * integrate_interval(g, 0.0, r_max ** (1.0 / a), cfg, breakpoints=edges).value


@pytest.mark.parametrize("alpha", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("p1, p2", [
    (BoundaryPoint(0.3 + 0.1j, 0.2), BoundaryPoint(0.1 - 0.2j, -0.4)),
    (BoundaryPoint(0.4 + 0.2j, 0.0), BoundaryPoint(0.4 + 0.2j, 0.7)),
], ids=["near", "equal-z"])
def test_szego_profile_contour_independence(alpha, p1, p2):
    # K_1 is entire: rays turned by +-0.2 rad from the steepest-descent ray
    # arg tau = -arg(-E) of the rate e^{tau E} give the same S
    spec = profile_power(alpha)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    res = szego_profile(spec, p1, p2, cfg)
    u = p1.z + p2.z.conjugate()
    growth = (2.0 * (0.5 * u) ** alpha / alpha - eval_weight(spec, p1.z)
              - eval_weight(spec, p2.z) - 1j * (p2.t - p1.t))
    for turn in (0.2, -0.2):
        omega = -abs(growth) / growth * complex(math.cos(turn), math.sin(turn))
        ray = _szego_on_ray(spec, p1, p2, cfg, omega)
        assert abs(res.value - ray) <= 1e-11 * abs(ray)


@pytest.mark.parametrize("alpha, p1, p2", [
    (4.0, BoundaryPoint(1j, 0.0), BoundaryPoint(-1j, 0.02)),
    (3.0, BoundaryPoint(-0.18 + 0.38j, 0.0), BoundaryPoint(0.2 - 0.95j, 0.02)),
])
def test_szego_profile_nearly_imaginary_u(alpha, p1, p2):
    # u = z + conj w nearly imaginary and a > 2: Re E > 0 (alpha 4) or
    # e^{tau E} decays faster than the integrand (alpha 3), so only the L1
    # envelope gives a safe truncation point; fixed rays agree
    spec = profile_power(alpha)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    res = szego_profile(spec, p1, p2, cfg)
    for phase in (-0.6, -0.9):
        ray = _szego_on_ray(spec, p1, p2, cfg, complex(math.cos(phase), math.sin(phase)))
        assert abs(res.value - ray) <= 1e-11 * abs(ray)


def test_szego_profile_boundary_diagonal(loose):
    g = gaussian()
    with pytest.raises(NearSingular):
        szego_profile(g, BoundaryPoint(1, 0), BoundaryPoint(1, 0), loose)


def test_szego_profile_hermitian(loose):
    g = gaussian()
    p1 = BoundaryPoint(0.8 + 0.3j, 0.2)
    p2 = BoundaryPoint(-0.4 - 0.1j, -0.3)
    ab = szego_profile(g, p1, p2, loose)
    ba = szego_profile(g, p2, p1, loose)
    assert ab.value == pytest.approx(ba.value.conjugate(), rel=1e-4)


def _szego_per_tau_route(spec, p1, p2, cfg, tau_max):
    """The boundary kernel as the tau integral of one adaptive
    bergman_profile call per tau node: the reference for the batched path.
    Integrates in s = tau^(1/a), where the integrand is smooth at 0."""
    z, w = p1.z, p2.z
    a = spec.alpha
    rate = eval_weight(spec, z) + eval_weight(spec, w) + 1j * (p2.t - p1.t)
    inner = QuadConfig(abs_tol=1e-30, rel_tol=max(min(cfg.rel_tol * 0.1, 1e-6), 1e-12))

    def f(taus):
        return np.array([bergman_profile(spec, t, z, w, inner).value * np.exp(-t * rate)
                         for t in taus])

    def g(s):
        return f(s ** a) * a * s ** (a - 1.0)

    assert abs(f([tau_max])[0]) <= 1e-15 * abs(f([1.0])[0])
    return integrate_interval(g, 0.0, tau_max ** (1.0 / a), cfg).value


def test_szego_profile_nongaussian_decaying_point():
    spec = profile_power(3.0)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=1e-9)
    p1 = BoundaryPoint(-1.0 + 0.15j, -0.45)
    p2 = BoundaryPoint(0.6 - 0.1j, -0.55)
    ab = szego_profile(spec, p1, p2, cfg)
    assert ab.method == "triple-quadrature"
    ref = _szego_per_tau_route(spec, p1, p2, cfg, 100.0)
    assert abs(ab.value - ref) <= 1e-12 * abs(ref)
    ba = szego_profile(spec, p2, p1, cfg)
    assert abs(ab.value - ba.value.conjugate()) <= 1e-8 * abs(ab.value)


@pytest.mark.parametrize("alpha, rel_tol, tau_max", [(1.5, 1e-8, 100.0),
                                                     (2.5, 1e-9, 100.0),
                                                     (4.0, 1e-9, 300.0)])
def test_szego_profile_decaying_point_against_per_tau_route(alpha, rel_tol, tau_max):
    # alpha = 1.5 stays at rel_tol 1e-8: at 1e-9 the per-tau oracle takes
    # ~10 s (test_szego_profile_alpha15_at_tight_inner_tolerance covers 1e-9)
    spec = profile_power(alpha)
    cfg = QuadConfig(abs_tol=1e-12, rel_tol=rel_tol)
    p1 = BoundaryPoint(-1.0 + 0.15j, -0.45)
    p2 = BoundaryPoint(0.6 - 0.1j, -0.55)
    res = szego_profile(spec, p1, p2, cfg)
    assert res.method == "triple-quadrature"
    ref = _szego_per_tau_route(spec, p1, p2, cfg, tau_max)
    assert abs(res.value - ref) <= 1e-11 * abs(ref)


def test_szego_profile_alpha15_at_tight_inner_tolerance():
    # rel_tol 1e-9 asks the inner rule for 5e-12, where a 32-eta batch used
    # to raise; the rel_tol 1e-8 value is checked against the per-tau route
    spec = profile_power(1.5)
    p1 = BoundaryPoint(-1.0 + 0.15j, -0.45)
    p2 = BoundaryPoint(0.6 - 0.1j, -0.55)
    tight = szego_profile(spec, p1, p2, QuadConfig(abs_tol=1e-12, rel_tol=1e-9))
    base = szego_profile(spec, p1, p2, QuadConfig(abs_tol=1e-12, rel_tol=1e-8))
    assert tight.method == "triple-quadrature"
    assert abs(tight.value - base.value) <= 1e-11 * abs(base.value)


def test_szego_profile_decaying_work_count(loose, monkeypatch):
    # in tau the adaptive rule bisected toward the tau^(2/3) behaviour at
    # 0: 8 batched kernel calls and 1.51M evaluations on this point
    calls = []
    batch = profile_module._kernel_tau_batch

    def counted(spec, taus, *args):
        calls.append(np.size(taus))
        return batch(spec, taus, *args)

    monkeypatch.setattr(profile_module, "_kernel_tau_batch", counted)
    p1 = BoundaryPoint(-1.0 + 0.15j, -0.45)
    p2 = BoundaryPoint(0.6 - 0.1j, -0.55)
    res = szego_profile(profile_power(3.0), p1, p2, loose)
    assert res.method == "triple-quadrature"
    assert len(calls) <= 4
    assert res.n_evals < 1_000_000


def test_szego_profile_gaussian_estimate_is_honest(loose):
    rng = np.random.default_rng(11)
    for _ in range(6):
        dmag = rng.uniform(0.8, 2.0)
        dim = rng.uniform(-0.3, 0.3)
        d = complex(math.copysign(math.sqrt(dmag * dmag - dim * dim), rng.uniform(-1, 1)), dim)
        mid = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
        p1 = BoundaryPoint(mid + d / 2, rng.uniform(-0.5, 0.5))
        p2 = BoundaryPoint(mid - d / 2, rng.uniform(-0.5, 0.5))
        res = szego_profile(gaussian(), p1, p2, loose)
        assert res.method == "triple-quadrature"
        assert res.abs_err_estimate >= abs(res.value - szego_gaussian_closed(p1, p2))


def test_sandwich_bounds_examples(cfg):
    grid = np.arange(-5.0, 5.5, 0.5)
    rep = sandwich_bounds_check(profile_power(2.0), 1.0, 1.5, grid, cfg)
    assert rep.upper_bounded and rep.lower_bounded
    assert np.all(np.isfinite(rep.upper_log_gap))
    assert np.all(np.isfinite(rep.dual_upper_log_gap))

    rep = sandwich_bounds_check(profile_power(4.0), 1.0, 1.25, np.linspace(-8, 8, 65), cfg)
    assert rep.upper_bounded and rep.lower_bounded

    # designed failure: lam < 1 breaks the upper bound
    rep = sandwich_bounds_check(profile_power(2.0), 1.0, 0.9, np.linspace(-8, 8, 65), cfg)
    assert not rep.upper_bounded

    # lam = 1 leaves the Gaussian upper gap exactly constant: still bounded
    rep = sandwich_bounds_check(profile_power(2.0), 1.0, 1.0, np.linspace(-8, 8, 65), cfg)
    assert rep.upper_bounded and rep.lower_bounded


def test_sandwich_squeeze_constants(cfg):
    # p*(eta/lam) + c1 <= smoothed conjugate <= p*(lam eta) + c2 on the grid
    spec = profile_power(3.0)
    tau, lam = 1.0, 1.5
    grid = np.linspace(-6.0, 6.0, 49)
    rep = sandwich_bounds_check(spec, tau, lam, grid, cfg)
    assert np.max(rep.upper_log_gap) < np.inf
    assert np.min(rep.lower_log_gap) > -np.inf
    # the gap arrays are exactly log I - 2 tau p*(scaled eta)
    mid = len(grid) // 2
    eta = grid[mid + 3]
    expected = 2.0 * tau * (effective_conjugate(spec, tau, eta, cfg)
                            - young_conjugate_closed(spec, lam * eta))
    assert rep.upper_log_gap[mid + 3] == pytest.approx(expected, abs=1e-6)


@pytest.mark.parametrize("alpha", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("tau", [0.05, 1.0, 60.0])
def test_log_inner_batch_against_mpmath(alpha, tau):
    mpmath = pytest.importorskip("mpmath")
    etas = np.array([0.0, 0.3, -1.0, 2.5, 8.0])
    logI, _ = _log_inner_batch(profile_power(alpha), tau, etas)
    for eta, got in zip(etas, logI):
        ref = _mpmath_log_inner(mpmath, alpha, tau, eta)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref)), (eta, got, ref)


def test_laplace_asymptotic_gaussian(cfg):
    rep = laplace_asymptotic(gaussian(), 1.0, [1.0, 10.0, 100.0], cfg)
    assert np.allclose(rep.ratios, 1.0, atol=1e-6)
    assert rep.converged


def test_laplace_asymptotic_quartic(cfg):
    rep = laplace_asymptotic(profile_power(4.0), 1.0, [1.0, 10.0, 100.0], cfg)
    dev = np.abs(rep.ratios - 1.0)
    assert dev[0] > dev[1] > dev[2]
    assert dev[2] <= 0.02
    assert rep.converged
    # reciprocal prefactor orientation is far from 1 and grows with tau
    assert abs(rep.printed_prefactor_ratios[-1] - 1.0) > 0.5


def test_laplace_asymptotic_degenerate(cfg):
    with pytest.raises(DomainError):
        laplace_asymptotic(profile_power(4.0), 0.0, [1.0], cfg)
    with pytest.raises(DomainError):
        laplace_asymptotic(profile_power(1.5), 0.0, [1.0], cfg)


def test_roundtrip_recovers_closed_kernel(cfg):
    for tau, z, w in ((1.0, 0.0j, 0.0j), (1.0, 1.0 + 0j, 1.0 + 0j)):
        target = bergman_gaussian_closed(tau, z, w)
        res = bergman_roundtrip_extrapolated(tau, z, w, cfg)
        assert abs(res.value - target) <= 1e-3 * abs(target)


def test_roundtrip_hermitian_despite_asymmetric_integrand(cfg):
    # the causal factor treats z and w asymmetrically; the limit is Hermitian
    a = bergman_roundtrip_extrapolated(1.0, 1.0 + 0j, 0.0j, cfg)
    b = bergman_roundtrip_extrapolated(1.0, 0.0j, 1.0 + 0j, cfg)
    assert a.value == pytest.approx(b.value.conjugate(), rel=2e-3)
    target = bergman_gaussian_closed(1.0, 1.0, 0.0)
    assert abs(a.value - target) <= 2e-3 * abs(target)


def test_single_epsilon_evaluation_converges_toward_target(cfg):
    target = bergman_gaussian_closed(1.0, 0.0, 0.0)
    gaps = [abs(bergman_from_szego_gaussian(1.0, 0.0, 0.0, e, cfg).value - target)
            for e in (0.1, 0.05, 0.025)]
    assert gaps[0] > gaps[1] > gaps[2]
    with pytest.raises(DomainError):
        bergman_from_szego_gaussian(1.0, 0.0, 0.0, 0.0, cfg)


def test_duality_criterion_cases():
    assert duality_finiteness_criterion(1.0, 0.8, 2.0) is True
    assert duality_finiteness_criterion(1.0, 0.5, 2.0) is False
    assert duality_finiteness_criterion(1.0, 0.99, 2.0) is True
    with pytest.raises(DomainError):
        duality_finiteness_criterion(1.0, 1.5, 2.0)


def test_duality_marginal_matches_determinant(cfg):
    res = duality_marginal_integral(1.0, 0.8, 2.0, cfg)
    det = (2.0 * 2.0 - 1.0) * (2.0 * 0.8 - 1.0) - 1.0
    closed = (1.0 / (2.0 * PI)) ** 2 * 2.0 * PI / math.sqrt(det)
    assert res.value.real == pytest.approx(closed, rel=1e-7)


def test_duality_marginal_diverges_below_threshold(cfg):
    with pytest.raises(TruncationError):
        duality_marginal_integral(1.0, 0.5, 2.0, cfg)


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_shifted_maximizer_gap_bounded_below(alpha):
    spec = profile_power(alpha)
    gaps20 = [shifted_maximizer_gap(spec, 1.0, 0.5, e) for e in np.linspace(0, 20, 201)]
    gaps40 = [shifted_maximizer_gap(spec, 1.0, 0.5, e) for e in np.linspace(0, 40, 401)]
    m20, m40 = min(gaps20), min(gaps40)
    assert math.isfinite(m20)
    assert abs(m40 - m20) <= 0.01 * abs(m20)
