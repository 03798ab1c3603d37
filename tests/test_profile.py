import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from szegofock import (
    BoundaryPoint,
    ConvergenceError,
    DomainError,
    EvalResult,
    NearSingular,
    QuadConfig,
    SingularPoint,
    SzegofockError,
    TruncationError,
    bergman_from_szego_gaussian,
    bergman_gaussian_closed,
    bergman_profile,
    bergman_radial_series,
    bergman_roundtrip_extrapolated,
    duality_finiteness_criterion,
    duality_marginal_integral,
    effective_conjugate,
    eval_weight,
    gamma_step_identity_check,
    gaussian,
    inner_integral,
    integrate_interval,
    integrate_real_line,
    inverse_derivative,
    laplace_asymptotic,
    moment_closed,
    moment_oracle,
    parse_weight,
    profile_power,
    reproducing_check,
    sandwich_bounds_check,
    series_coefficient,
    shifted_maximizer_gap,
    szego_gaussian_closed,
    szego_profile,
    szego_radial_closed,
    szego_radial_via_laplace,
    weight_derivatives,
    young_conjugate_closed,
    young_conjugate_numeric,
)
import szegofock.profile as profile_module
from szegofock.profile import (_bregman, _cut_widths, _kernel_tau_batch, _log_inner_batch,
                               _log_inner_floor)
from szegofock.weights import conjugate_spec, profile_dp, profile_p

from scan_log_inner import mpmath_log_inner, scan as scan_log_inner

PI = math.pi
SQRT_PI = math.sqrt(PI)
EPS = np.finfo(float).eps


def test_inner_integral_gaussian_closed_form(cfg):
    g = gaussian()
    assert inner_integral(g, 1.0, 0.0, cfg).value.real == pytest.approx(SQRT_PI, rel=1e-9)
    assert inner_integral(g, 1.0, 1.0, cfg).value.real == pytest.approx(
        SQRT_PI * math.exp(1.0), rel=1e-9)
    assert inner_integral(g, 2.0, 0.0, cfg).value.real == pytest.approx(
        math.sqrt(PI / 2.0), rel=1e-9)
    # the method names the rule that ran: a nested trapezoid at even alpha
    # up to _WALL_ALPHA; above it even alpha takes the wall panels too
    for alpha, method in ((2.0, "trapezoid-batch"), (6.0, "trapezoid-batch"),
                          (3.0, "gauss-legendre-batch"), (1.5, "gauss-legendre-batch"),
                          (52.0, "gauss-legendre-batch")):
        assert inner_integral(profile_power(alpha), 1.0, 0.5, cfg).method == method


@pytest.mark.parametrize("alpha, eta, cfg", [(1000.0, 1.0, QuadConfig()),
                                          (2001.0, 3.1, QuadConfig(rel_tol=1e-12))])
def test_inner_integral_large_alpha_against_mpmath(alpha, eta, cfg):
    # both raised ConvergenceError: even alpha 1000 ran the trapezoid rule,
    # which has no cuts at the walls, and at alpha 2001 the binomial
    # coefficients of _bregman's series overflowed into NaN
    mpmath = pytest.importorskip("mpmath")
    res = inner_integral(profile_power(alpha), 1.0, eta, cfg)
    assert res.method == "gauss-legendre-batch"
    ref = math.exp(mpmath_log_inner(mpmath, alpha, 1.0, eta))
    assert abs(res.value.real - ref) <= cfg.rel_tol * ref


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
    ref = mpmath_log_inner(mpmath, 1.5, tau, eta) / (2.0 * tau)
    assert effective_conjugate(profile_power(1.5), tau, eta, cfg) == pytest.approx(ref, rel=1e-12)


def test_effective_conjugate_far_peak_against_mpmath(cfg):
    # mu = 1e6: the unshifted exponent terms are ~1e11 and cancel to O(1)
    # at the peak unless the exponent is formed as a Bregman divergence
    mpmath = pytest.importorskip("mpmath")
    tau, eta = 60.0, 1e3
    ref = mpmath_log_inner(mpmath, 1.5, tau, eta)
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
    ref = mpmath_log_inner(mpmath, alpha, tau, eta, dps=80)
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
    # 22 points raise, where |eta|^alpha' max(1, 2 tau) passes e^700
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


def test_log_inner_overflow_guard_sized_to_its_terms(cfg):
    # the rule forms |eta| mu = |eta|^alpha' and 2 tau times it: e^697.7 at
    # alpha 1.01, eta = 1e3 is a float, and so is p*(eta) = 9.9e300; e^716
    # at eta = 1.2e3 is not
    spec = profile_power(1.01)
    got = effective_conjugate(spec, 0.05, 1e3, cfg)
    assert got == pytest.approx(young_conjugate_closed(spec, 1e3), rel=1e-12)
    with pytest.raises(DomainError, match="overflows"):
        effective_conjugate(spec, 0.05, 1.2e3, cfg)
    with pytest.raises(DomainError, match="overflows"):
        effective_conjugate(profile_power(1.5), 1.0, 1e200, cfg)


def test_log_inner_guard_is_exact_in_x(cfg):
    # the rule runs at tau = 1 on x = tau^(1/2) eta and forms 2 x^2 = e^697.1
    # at tau = 0.01, eta = e^350.5, a float; a guard on eta^2 = e^701 would raise
    eta = math.exp(350.5)
    got = effective_conjugate(gaussian(), 0.01, eta, cfg)
    assert got == pytest.approx(young_conjugate_closed(gaussian(), eta), rel=1e-12)


def _bergman_nested_oracle(spec, tau, z, w, cfg):
    """K_tau(z, w) by nested quadrature, independent of `_kernel_tau_batch`:
    an adaptive GK15 integral over eta of exp(tau eta u) / I(eta, tau),
    I from `_log_inner_batch` at rtol max(1e-13, 0.05 rel_tol), shifted so
    its peak at eta* = p'(Re u / 2) sits at 1."""
    u = complex(z) + complex(w).conjugate()
    eta_star = float(profile_dp(spec, u.real / 2.0))
    rtol = max(1e-13, 0.05 * cfg.rel_tol)
    shift = tau * eta_star * u.real - _log_inner_batch(spec, tau, [eta_star], rtol)[0][0]

    def outer(etas):
        log_i = _log_inner_batch(spec, tau, etas, rtol)[0]
        return np.exp(tau * np.asarray(etas) * u - log_i - shift)

    res = integrate_real_line(outer, cfg, center=eta_star,
                              initial_halfwidth=max(1.0, 2.0 * abs(eta_star)))
    return tau / (2.0 * PI) * math.exp(shift) * res.value


def test_bergman_profile_alpha15_tight_against_tau_batch():
    # criterion 04's tight config asks the inner rule for 1e-13, which two
    # Gauss panels meeting the |r|^1.5 singularity at r = 0 never reached;
    # the nested route is the reference the batch row must meet
    spec = profile_power(1.5)
    cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=4000)
    tau = 1.2919433100044269
    z, w = 0.24258609613926585 - 0.5472879414911842j, 0.15733949247373125 - 0.8577096966811935j
    got = bergman_profile(spec, tau, z, w, cfg).value
    ref = _bergman_nested_oracle(spec, tau, z, w, cfg)
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


PROFILE_WEIGHTS = ["gaussian", "profile:alpha=1.5", "profile:alpha=3", "profile:alpha=4"]
# (z, w) in [-1.5, 1.5]^2, with u = z + conj w out to |Im u| = 3, where the
# x integral of K_1 cancels far below its L1 norm
GRID_POINTS = [
    (-1.5 - 1.5j, 1.5 + 1.5j), (0.9 - 0.4j, -1.2 + 0.8j), (1.5 - 1.5j, 0.7 + 1.5j),
    (1.5j, 0.7 - 1.5j), (-1.5 + 1.5j, 1.5 - 1.5j), (1.5 + 1.5j, 1.5 - 1.5j),
    (-1.5 + 1.5j, -1.5 - 1.5j), (1.5 + 1.5j, 1.5 + 1.5j), (0.3j, -0.2 + 0.1j),
]


@pytest.mark.parametrize("weight", PROFILE_WEIGHTS)
def test_bergman_profile_estimate_meets_tolerance_or_raises(weight, cfg, tight):
    # every return carries an estimate within its tolerance; at the default
    # config the whole grid returns, at the tight one the cancelling points
    # (u = +-3 + 3i at alpha 3 and 4) may raise instead
    spec = parse_weight(weight)
    for config, taus, points in ((cfg, (0.4, 1.2, 2.0), GRID_POINTS),
                                 (tight, (0.4, 1.2), GRID_POINTS[4:])):
        for tau in taus:
            for z, w in points:
                try:
                    res = bergman_profile(spec, tau, z, w, config)
                except ConvergenceError:
                    assert config is tight
                    continue
                assert res.abs_err_estimate <= max(config.abs_tol, config.rel_tol * abs(res.value))
                if weight == "gaussian":
                    exact = bergman_gaussian_closed(tau, z, w).value
                    assert res.abs_err_estimate >= abs(res.value - exact)


def test_bergman_profile_is_one_tau_batch_row(monkeypatch, cfg):
    # one top-level batch call at one tau, a second only where the terms
    # cancel, and no adaptive outer integral; n_evals is the batches' count
    calls, depth = [], [0]
    batch = profile_module._kernel_tau_batch

    def counted(spec, taus, u, log_factor, rtol):
        depth[0] += 1
        try:
            out = batch(spec, taus, u, log_factor, rtol)
        finally:
            depth[0] -= 1
        if depth[0] == 0:
            calls.append((np.size(taus), rtol, out[1]))
        return out

    def adaptive(*args, **kwargs):
        raise AssertionError("bergman_profile ran an adaptive integral")

    monkeypatch.setattr(profile_module, "_kernel_tau_batch", counted)
    monkeypatch.setattr(profile_module, "integrate_real_line", adaptive)
    monkeypatch.setattr(profile_module, "integrate_interval", adaptive)
    for weight in ("gaussian", "profile:alpha=4"):
        for tau, z, w, n_calls in ((1.2, 0.4 + 0.1j, -0.3 + 0.2j, 1),
                                   (2.0, 1.5 + 1.5j, 1.5 - 1.5j, 2)):
            calls.clear()
            res = bergman_profile(parse_weight(weight), tau, z, w, cfg)
            assert [size for size, _, _ in calls] == [1] * n_calls
            assert calls[0][1] == 0.05 * cfg.rel_tol
            assert all(later[1] < calls[0][1] for later in calls[1:])
            assert res.n_evals == sum(n for _, _, n in calls)


def test_bergman_profile_overflow_raises(cfg):
    with pytest.raises(DomainError, match="overflows"):
        bergman_profile(gaussian(), 1.0, 30.0, 30.0, cfg)


@pytest.mark.parametrize("weight", PROFILE_WEIGHTS)
@pytest.mark.parametrize("tau", [1e12, 1e15, 1e20, 1e300])
def test_bergman_profile_large_tau_overflow_is_a_domain_error(weight, tau, cfg):
    # K_tau(0.3) passes the float range from tau ~ 1e7; where x* is huge the x
    # rule cannot settle, nor at tau = 1e300 its window close, so the row's
    # scale is checked before either runs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows the float range"):
            bergman_profile(parse_weight(weight), tau, 0.15, 0.15, cfg)


KERNEL_TAUS = np.array([0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0])


@pytest.mark.parametrize("weight", PROFILE_WEIGHTS)
def test_tau_batch_kernel_matches_bergman_profile(weight, cfg):
    spec = parse_weight(weight)
    rtol = max(1e-13, 0.05 * cfg.rel_tol)
    for u in (0.6 + 0.05j, -0.9 + 0.02j, 1.4 - 0.03j):
        got, n_evals, _ = _kernel_tau_batch(spec, KERNEL_TAUS, u, np.zeros(KERNEL_TAUS.size), rtol)
        assert n_evals > 0
        for tau, value in zip(KERNEL_TAUS, got):
            ref = _bergman_nested_oracle(spec, tau, u, 0.0, cfg)
            assert abs(value - ref) <= 1e-9 * abs(ref)


def _recorded_starts(monkeypatch):
    """The start level of each `_kernel_tau_batch` x rule, as it runs."""
    starts, start_level = [], profile_module._x_start_level

    def recorded(*args):
        starts.append(start_level(*args))
        return starts[-1]

    monkeypatch.setattr(profile_module, "_x_start_level", recorded)
    return starts


def _recorded_rule_nodes(monkeypatch):
    """The x nodes of each `_kernel_tau_batch` rule fetch of log J, as it runs."""
    fetches, even_log_j = [], profile_module._even_log_j

    def recorded(spec, q, h, rtol):
        fetches.append(q * h)
        return even_log_j(spec, q, h, rtol)

    monkeypatch.setattr(profile_module, "_even_log_j", recorded)
    return fetches


@pytest.mark.parametrize("alpha, u, rtol, start", [(3.0, -0.9 + 0.02j, 5e-9, 1),
                                                  (4.0, 1.4 - 0.03j, 1e-13, 2)])
def test_tau_batch_kernel_evaluates_each_abs_x_once(monkeypatch, alpha, u, rtol, start):
    # the nested trapezoid rule starts at its start level k0: its first pass
    # is one direct sum over the n_k0 + 1 nodes of that level, and no pass
    # runs below it.  The first fetch takes the nodes of levels k0 and
    # k0 + 1, 2 n_k0 + 1 of them; each later level only the midpoints new
    # to it, and each pass sums the nodes its level adds.  The window
    # is snapped to its level-0 step's lattice, so with a node x its mirror
    # -x is one too, and J is even: the inner calls take each |x| once,
    # across levels too.  x* and the window come from the per-alpha table of
    # the closed-form floor of log J, so every inner call is a rule fetch
    calls, passes, depth = [], [], [0]
    inner, nested_sum = profile_module._log_inner_batch, profile_module._nested_sum

    def recorded(spec, tau, etas, rtol):
        if depth[0] == 0:
            calls.append(np.array(etas, dtype=float))
        depth[0] += 1
        try:
            return inner(spec, tau, etas, rtol)
        finally:
            depth[0] -= 1

    def recorded_sum(prev, h, terms):  # an x-rule pass sums its values, then its L1 norms
        if depth[0] == 0:
            passes.append(terms.shape)
        return nested_sum(prev, h, terms)

    monkeypatch.setattr(profile_module, "_log_inner_batch", recorded)
    monkeypatch.setattr(profile_module, "_nested_sum", recorded_sum)
    starts, fetches = _recorded_starts(monkeypatch), _recorded_rule_nodes(monkeypatch)
    _kernel_tau_batch(profile_power(alpha), KERNEL_TAUS, u, np.zeros(KERNEL_TAUS.size), rtol)
    sizes, n = [xs.size for xs in fetches], profile_module._X_ORDERS[start]
    assert starts == [start] and sizes[0] == 2 * n + 1 and len(sizes) >= 2
    assert sizes[1:] == [2 * n * 2 ** k for k in range(len(sizes) - 1)]
    assert passes[0] == (KERNEL_TAUS.size, n + 1) and passes[::2] == passes[1::2]
    assert [cols for _, cols in passes[::2]] == [n + 1, n] + sizes[1:]
    assert len(calls) == len(fetches)
    rule = np.concatenate(fetches)
    assert np.unique(rule).size == rule.size
    h = np.diff(np.sort(rule))
    assert np.allclose(h, h[0], rtol=1e-9)
    # 0 and the pairs +-x are nodes, exact negatives of each other
    assert 0.0 in rule and np.intersect1d(rule, -rule).size > 1
    nodes = np.concatenate(calls)
    assert np.all(nodes >= 0.0) and np.unique(nodes).size == nodes.size
    assert np.allclose(nodes / h[0], np.round(nodes / h[0]), rtol=0.0, atol=1e-6)
    for fetch, call in zip(fetches, calls):
        assert np.array_equal(np.unique(np.abs(fetch)), np.sort(call))
    assert nodes.size < rule.size


@pytest.mark.parametrize("alpha", [1.001, 1.5, 2.0, 3.0, 4.0, 51.0])
@pytest.mark.parametrize("rtol", [1e-8, 1e-13])
def test_log_inner_is_even(alpha, rtol):
    # J = I(., 1) is even, which the x rule relies on to fetch log J once
    # per |x|: the inner rule gives log J(-x) within its own tolerance of
    # log J(x), from 0 up to where the term 2 |x|^a' nears e^650, through
    # its trapezoid rows, y-panels, far rows and wall panels
    spec = profile_power(alpha)
    top = (650.0 - math.log(2.0)) / spec.conjugate_alpha / math.log(10.0)
    xs = np.concatenate([[0.0], np.logspace(-6.0, top, 121)])
    log_j, _ = _log_inner_batch(spec, 1.0, xs, rtol)
    mirrored, _ = _log_inner_batch(spec, 1.0, -xs, rtol)
    assert np.all(np.abs(mirrored - log_j) <= rtol + 4.0 * EPS * np.abs(log_j))


@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.1, 1.5, 2.0, 3.0, 4.0])
def test_log_inner_floor_bounds_log_j(alpha):
    # the closed-form floor is never above log J, up to rounding, and at
    # most 3 below it, wherever log J is a float
    spec = profile_power(alpha)
    mags = np.logspace(-6.0, 3.0, 91)
    mags = mags[spec.conjugate_alpha * np.log(mags) < 690.0]
    xs = np.concatenate([[0.0], mags, -mags])
    log_j, _ = _log_inner_batch(spec, 1.0, xs, 1e-12)
    floor = _log_inner_floor(spec, xs)
    assert np.all(floor <= log_j + 4.0 * np.spacing(np.abs(log_j)))
    assert np.all(log_j - floor <= 3.0)
    assert _log_inner_floor(spec, np.array([1e300]))[0] == math.inf


@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.1, 1.5, 2.0, 2.5, 3.0, 4.0, 10.0, 51.0])
def test_x_window_table_matches_the_two_step_cut_and_floor(alpha):
    # the kernel's per-alpha table against the formulas it is built from,
    # on slopes across the float range, and densely where c = |slope| and
    # x* = p'(slope) are both near 1: the cut widened by the fall of log h
    # within 0.5%, half the 1% the cut leaves past its root, and the floor
    # F of log J at x* within 1e-3 of the 3 it gives away, wherever F
    # rounds by less than that
    spec = profile_power(alpha)
    ap, step = spec.conjugate_alpha, profile_module._floor_step
    near = 20.0 * min(1.0, 1.0 / (alpha - 1.0))
    t = np.concatenate([np.linspace(-744.0, math.log(np.finfo(float).max) / alpha, 20001),
                        np.linspace(-near, near, 20001)])
    slope = np.concatenate([[0.0], np.exp(t), -np.exp(t)])
    x_star = profile_dp(spec, slope)
    with np.errstate(divide="ignore", over="ignore"):  # h at x = 0; x* + L past the float range
        widths = _cut_widths(ap, slope)
        fall = np.log(step(alpha, x_star) / step(alpha, x_star + [[-1.0], [1.0]] * widths))
        widths = _cut_widths(ap, slope, 46.0 + np.maximum(fall, 0.0))
    left, right, gain = profile_module._x_window(alpha, slope)
    assert np.all(np.abs(np.log([left, right] / widths)) <= 5e-3)
    rounds = np.abs(slope) ** alpha < 1e15  # 2 p*(x*) = 2 (a - 1) p(slope)
    floor = _log_inner_floor(spec, x_star[rounds])
    got = 2.0 * np.abs(x_star[rounds]) ** ap / ap + gain[rounds]
    assert np.all(np.abs(got - floor) <= 1e-3 + 4.0 * EPS * np.abs(floor))


def test_tau_batch_kernel_runs_no_cut_or_floor_formula(monkeypatch):
    # the x rule reads its cut and shift from `_x_window_table`, built once
    # per alpha: a call runs `_cut_widths` only inside the inner rule, and
    # no floor of log J
    callers = []
    cut = profile_module._cut_widths

    def recorded_cut(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return cut(*args)

    def forbidden(*args):
        raise AssertionError("a kernel call ran a floor formula")

    specs = [profile_power(alpha) for alpha in (1.5, 2.0, 3.0, 51.0)]
    for spec in specs:
        profile_module._x_window_table(spec.alpha)
    monkeypatch.setattr(profile_module, "_cut_widths", recorded_cut)
    for name in ("_floor_step", "_floor_gain", "_log_inner_floor"):
        monkeypatch.setattr(profile_module, name, forbidden)
    for spec in specs:
        for u in (0.6 + 0.05j, -0.9 + 0.02j, 0.3j):
            taus = KERNEL_TAUS[:5] * complex(math.cos(-0.3), math.sin(-0.3))
            _kernel_tau_batch(spec, taus, u, np.zeros(taus.size), 1e-10)
            bergman_profile(spec, 1.2, u, 0.1)
    assert callers and set(callers) == {"_log_inner_batch"}


@pytest.mark.parametrize("weight", PROFILE_WEIGHTS)
@pytest.mark.parametrize("phase", [0.0, -0.5])
def test_tau_batch_kernel_window_ends_decay(monkeypatch, weight, phase):
    # the window is fitted from the floor of log J and snapped outward to
    # its level-0 lattice; with log J itself the terms at the ends of the
    # start level (every other node of the first fetch) are still below
    # e^-40 of each row's largest term, on the real tau axis and on a
    # complex ray
    spec = parse_weight(weight)
    taus = KERNEL_TAUS * complex(math.cos(phase), math.sin(phase))
    starts, fetches = _recorded_starts(monkeypatch), _recorded_rule_nodes(monkeypatch)
    for u in (0.6 + 0.05j, -0.9 + 0.02j, 1.4 - 0.03j):
        fetches.clear()
        starts.clear()
        _kernel_tau_batch(spec, taus, u, np.zeros(taus.size), 5e-10)
        xs = fetches[0][0::2]
        assert xs.size == profile_module._X_ORDERS[starts[0]] + 1
        log_j, _ = _log_inner_batch(spec, 1.0, xs, 1e-12)
        v = taus ** (1.0 / spec.alpha) * u
        log_terms = np.multiply.outer(v.real, xs) - log_j
        ends = np.maximum(log_terms[:, 0], log_terms[:, -1])
        assert np.all(ends - log_terms.max(axis=1) <= -40.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0, 10.0, 51.0])
def test_tau_batch_kernel_start_level_never_overshoots(monkeypatch, alpha):
    # started at level 0 instead of at the level the poles of 1/J allow,
    # every row settles at the same level, with the same work, or raises
    # alike: none could have settled before the start.  The direct sum at
    # the start rounds apart from the nested levels below it, so the two
    # values agree within the smaller of their estimates, not bit for bit;
    # real and complex u, tau real and on a complex ray, two rtols
    spec, settle = profile_power(alpha), profile_module._settle_rows
    start_level, starts, levels = profile_module._x_start_level, [], []

    def recorded_start(forced):
        def start(*args):
            starts.append(0 if forced else start_level(*args))
            return starts[-1]
        return start

    def recorded_settle(n, level, n_levels):
        if "_kernel_tau_batch" not in level.__qualname__:
            return settle(n, level, n_levels)
        last, start = np.zeros(n, dtype=int), starts[-1]  # the batch's start, just taken

        def recorded(k, idx, prev):
            last[idx] = k + start
            return level(k, idx, prev)

        out = settle(n, recorded, n_levels)
        levels.append(np.where(out[2], -1, last).tolist())
        return out

    monkeypatch.setattr(profile_module, "_settle_rows", recorded_settle)
    for u, phase, rtol in itertools.product((0.6, -1.8, 1.4 - 0.3j, -0.9 + 1.0j), (0.0, -0.5),
                                            (5e-10, 1e-13)):
        taus = KERNEL_TAUS * complex(math.cos(phase), math.sin(phase))
        runs = []
        for forced in (True, False):
            levels.clear()
            monkeypatch.setattr(profile_module, "_x_start_level", recorded_start(forced))
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    got, n_evals, err = _kernel_tau_batch(spec, taus, u, np.zeros(taus.size), rtol)
                runs.append((levels[:], n_evals, got, err))
            except ConvergenceError as exc:  # a lone unsettled row, from either start
                runs.append((levels[:], str(exc)))
        (forced, started), width = runs, len(runs[0])
        assert len(started) == width and forced[:2] == started[:2]
        if width == 4:
            assert np.all(np.abs(forced[2] - started[2]) <= np.minimum(forced[3], started[3]))
    assert max(starts) > 0


@pytest.mark.parametrize("alpha, ref", [(2.5, 1.72029), (3.0, 1.55895), (4.0, 1.45200),
                                        (6.0, 1.40353), (10.0, 1.40312), (51.0, 1.49042)])
def test_pole_distance_against_mpmath(alpha, ref):
    # the first zero of J(iy) = 2 int_0^inf cos(2 r y) e^{-2 r^a / a} dr,
    # the reference split at the wall r = 1 that alpha 51's integrand falls at
    mpmath = pytest.importorskip("mpmath")
    a = mpmath.mpf(alpha)

    def j(y):
        return mpmath.quad(lambda r: mpmath.cos(2 * r * y) * mpmath.exp(-2 * r ** a / a),
                           [0, 1, 2, mpmath.inf])

    d = profile_module._pole_distance(alpha)
    assert abs(d - float(mpmath.findroot(j, ref))) <= 1e-10
    assert abs(d - ref) <= 1e-5
    # e^{-|r|^a} has a positive Fourier transform for a <= 2
    assert profile_module._pole_distance(2.0) == profile_module._pole_distance(1.5) == math.inf


def test_tau_batch_kernel_complex_tau_gaussian_closed():
    # on a ray tau = r omega, K_tau(u) = (tau / 2 pi) e^{tau u^2 / 4}
    for u in (0.6 + 0.2j, -0.9 + 0.1j, 1.4 - 0.3j):
        for phase in (-1.0, -0.5, 0.4):
            taus = np.array([0.05, 0.3, 1.0, 3.0, 8.0]) * complex(math.cos(phase), math.sin(phase))
            got = _kernel_tau_batch(gaussian(), taus, u, np.zeros(taus.size), 1e-13)[0]
            ref = taus / (2.0 * PI) * np.exp(0.25 * taus * u * u)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12


def test_tau_batch_kernel_far_apart_peaks_gaussian_closed():
    # real taus whose peaks x* lie far apart, on the batch's own window,
    # scaled into the float range
    taus, u = np.array([0.3, 6400.0]), 1.0 + 0.05j
    log_factor = -0.25 * taus * (u * u).real
    got = _kernel_tau_batch(gaussian(), taus, u, log_factor, 1e-10)[0]
    ref = taus / (2.0 * PI) * np.exp(0.25 * taus * u * u + log_factor)
    assert np.all(np.abs(got - ref) <= 1e-8 * np.abs(ref))


def test_tau_batch_kernel_lone_unsettled_row_raises(monkeypatch):
    # with one rule level nothing settles: the batch splits down to single
    # rows, and a lone row raises
    monkeypatch.setattr(profile_module, "_X_ORDERS", (32,))
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        _kernel_tau_batch(gaussian(), KERNEL_TAUS[:3], 0.6 + 0.05j, np.zeros(3), 1e-12)


@pytest.mark.parametrize("alpha, orders", [(2.0, "_R_ORDERS"), (3.0, "_GL_ORDERS")])
def test_log_inner_unsettled_row_raises(monkeypatch, alpha, orders):
    # with one trapezoid level or one Gauss-Legendre order no row settles
    monkeypatch.setattr(profile_module, orders, getattr(profile_module, orders)[:1])
    with pytest.raises(ConvergenceError, match="did not stabilise"):
        _log_inner_batch(profile_power(alpha), 1.0, [0.5], 1e-10)


@pytest.mark.parametrize("engine", ["inner-integral", "kernel"])
def test_window_whose_ends_have_not_decayed_raises(monkeypatch, engine):
    # each engine checks its cut window once and raises where an end has not
    # decayed; it does not search for a wider one.  The kernel reads its
    # half-widths from its per-alpha table, and checks the terms at the ends
    # of its snapped window, on the log J it fetched there
    cut, table = profile_module._cut_widths, profile_module._x_window_table
    if engine == "kernel":
        halved = [[math.log(2.0)], [math.log(2.0)], [0.0]]
        monkeypatch.setattr(profile_module, "_x_window_table",
                            lambda a: (table(a)[0], table(a)[1] - halved))
    else:
        monkeypatch.setattr(profile_module, "_cut_widths", lambda *args: 0.5 * cut(*args))
    with pytest.raises(ConvergenceError, match=engine + " window failed to close"):
        if engine == "kernel":
            _kernel_tau_batch(profile_power(3.0), np.ones(1), 0.5, np.zeros(1), 1e-10)
        else:
            _log_inner_batch(profile_power(3.0), 1.0, [0.5], 1e-10)


def test_tau_batch_kernel_reruns_only_unsettled_rows(monkeypatch):
    # with three rule levels every row settles but the largest tau, whose
    # terms oscillate fastest (Im u = 0.8 keeps it past the third level on a
    # window cut at its end-decay point): the settled rows keep their values,
    # and only that row goes on, with a window of its own
    monkeypatch.setattr(profile_module, "_X_ORDERS", (32, 64, 128))
    calls, batch = [], profile_module._kernel_tau_batch

    def recorded(spec, taus, u, log_factor, rtol):
        calls.append(np.array(taus))
        return batch(spec, taus, u, log_factor, rtol)

    monkeypatch.setattr(profile_module, "_kernel_tau_batch", recorded)
    u = 4.0 + 0.8j
    got, _, err = recorded(gaussian(), KERNEL_TAUS, u, np.zeros(KERNEL_TAUS.size), 1e-10)
    assert [taus.tolist() for taus in calls[1:]] == [[60.0]]
    ref = KERNEL_TAUS / (2.0 * PI) * np.exp(0.25 * KERNEL_TAUS * u * u)
    assert np.all(np.abs(got - ref) <= err)


def test_tau_batch_kernel_settles_only_resolved_oscillation():
    # on a lone complex-tau row the terms oscillate like e^{i x Im v}; two
    # coarse levels that alias it alike agree on a wrong value, so a row
    # settles only on a step with two nodes a period, and its estimate
    # bounds its true error
    tau = 400.0 * complex(math.cos(-0.28), math.sin(-0.28))
    u = 0.33 - 1.26j
    (got,), _, (err,) = _kernel_tau_batch(gaussian(), np.array([tau]), u, np.zeros(1), 5e-9)
    ref = tau / (2.0 * PI) * np.exp(0.25 * tau * u * u)
    assert err >= abs(got - ref)


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
    assert bergman_gaussian_closed(1.0, 0.0, 0.0).value == pytest.approx(1.0 / (2.0 * PI))
    assert bergman_gaussian_closed(2.0, 1.0, -1.0).value == pytest.approx(1.0 / PI)
    expected = (1.0 / (2.0 * PI)) * np.exp(2.0j)
    assert bergman_gaussian_closed(1.0, 1.0 + 1.0j, 1.0 - 1.0j).value == pytest.approx(expected)


@pytest.mark.parametrize("z", [30.0, 30.0 + 1.0j])
def test_bergman_gaussian_closed_overflow_raises(z):
    with pytest.raises(DomainError, match="overflows"):
        bergman_gaussian_closed(1.0, z, 30.0)


def test_szego_gaussian_closed_examples():
    assert szego_gaussian_closed(BoundaryPoint(0, 0), BoundaryPoint(0, 1)).value == pytest.approx(
        -1.0 / (2.0 * PI))
    assert szego_gaussian_closed(BoundaryPoint(1, 0), BoundaryPoint(0, 0)).value == pytest.approx(
        8.0 / PI)
    with pytest.raises(SingularPoint):
        szego_gaussian_closed(BoundaryPoint(1, 0), BoundaryPoint(1, 0))
    res = szego_gaussian_closed(BoundaryPoint(1, 0), BoundaryPoint(0, 0))
    assert (res.method, res.n_evals) == ("closed", 0)
    # cond = 2 scale / |E|, scale = 2 and E = -1/4
    assert res.abs_err_estimate == pytest.approx(8e-16 * 17.0 * 8.0 / PI)


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
    ref = szego_gaussian_closed(p1, p2).value
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
    ref = szego_gaussian_closed(p1, p2).value
    assert _within_tol(res, ref, loose)
    assert abs(res.value - ref) <= min(res.abs_err_estimate, 1e-12 * abs(ref))


@pytest.mark.parametrize("x, gap", [(1.0, 0.05), (1.5, 0.05), (2.0, 0.2), (3.0, 0.2),
                                    (3.0, 0.05)])
def test_szego_profile_gaussian_equal_z_small_gap(x, gap, loose):
    # z = w, |s - t| below ~0.05 (Re z)^2: r_max reaches |tau| ~ 1e4, and
    # one x window for the whole batch (Re v from 0 to ~450) leaves rows
    # unsettled, which go on in contiguous halves with windows of their
    # own; at (3, 0.05) every decaying ray lies inside the first step of
    # the angle grid, which is zoomed into that step
    p1, p2 = BoundaryPoint(x + 0.3j, 0.0), BoundaryPoint(x + 0.3j, gap)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2).value
    assert _within_tol(res, ref, loose)
    assert abs(res.value - ref) <= res.abs_err_estimate
    if (x, gap) == (3.0, 0.05):
        # each batch on a window fitted to its own rows
        assert res.n_evals <= 34_419_004


def test_szego_profile_power_two_is_gaussian(loose):
    p1, p2 = BoundaryPoint(0.2 - 0.1j, 0.1), BoundaryPoint(0.1 + 0.15j, -0.35)
    res = szego_profile(profile_power(2.0), p1, p2, loose)
    assert _within_tol(res, szego_gaussian_closed(p1, p2).value, loose)


def test_szego_profile_abel_point_within_acceptance(loose):
    # the benchmark's szego-abel-miss point, |z - w| = 0.054, where the tau
    # integral once ran an Abel-damped branch that missed 1e-4 relative
    p1 = BoundaryPoint(-0.17120345235059753 + 0.3673585963815835j, -0.15931382414349093)
    p2 = BoundaryPoint(-0.21577118468206113 + 0.3979232233211636j, -0.3657294302107026)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2).value
    assert abs(res.value - ref) <= 1e-4 * abs(ref)
    assert abs(res.value - ref) <= res.abs_err_estimate


def test_szego_profile_im_distance_one(loose):
    # |Im(z - w)| >= 1: the oscillating x sum of K_1 cancels far below its
    # terms, so rtol |K_1| is out of the kernel rule's reach
    p1 = BoundaryPoint(0.18343226883801267 - 0.33150979398458535j, 0.09029098228971466)
    p2 = BoundaryPoint(-0.1454480961812442 + 0.9280045276882244j, 0.18975668840137316)
    res = szego_profile(gaussian(), p1, p2, loose)
    ref = szego_gaussian_closed(p1, p2).value
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
    """The boundary kernel as the tau integral of one nested-quadrature
    kernel per tau node: the reference for the batched path.
    Integrates in s = tau^(1/a), where the integrand is smooth at 0."""
    z, w = p1.z, p2.z
    a = spec.alpha
    rate = eval_weight(spec, z) + eval_weight(spec, w) + 1j * (p2.t - p1.t)
    inner = QuadConfig(abs_tol=1e-30, rel_tol=max(min(cfg.rel_tol * 0.1, 1e-6), 1e-12))

    def f(taus):
        return np.array([_bergman_nested_oracle(spec, t, z, w, inner) * np.exp(-t * rate)
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


@pytest.mark.parametrize("alpha, rel_tol, tau_max", [(1.5, 1e-9, 100.0),
                                                     (2.5, 1e-9, 100.0),
                                                     (4.0, 1e-9, 300.0)])
def test_szego_profile_decaying_point_against_per_tau_route(alpha, rel_tol, tau_max):
    # alpha = 1.5 runs at rel_tol 1e-9 too: the per-tau oracle's inner rows
    # take the y^2 panels that meet at r = 0, which cut its time there by
    # more than half
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


def _count_ray_batches(monkeypatch):
    """Per top-level `_kernel_tau_batch` call of a `szego_profile` call, the
    number of `_log_inner_batch` calls it made, halves included."""
    inner_calls, depth = [], [0]
    batch, inner = profile_module._kernel_tau_batch, profile_module._log_inner_batch

    def counted_batch(*args):
        depth[0] += 1
        if depth[0] == 1:
            inner_calls.append(0)
        try:
            return batch(*args)
        finally:
            depth[0] -= 1

    def counted_inner(*args):
        inner_calls[-1] += 1
        return inner(*args)

    monkeypatch.setattr(profile_module, "_kernel_tau_batch", counted_batch)
    monkeypatch.setattr(profile_module, "_log_inner_batch", counted_inner)
    return inner_calls


_DECAYING_POINTS = [
    (gaussian(), BoundaryPoint(0.72 + 0.07j, -0.35), BoundaryPoint(-0.98 + 0.06j, -0.47)),
    (profile_power(3.0), BoundaryPoint(-0.71 + 0.13j, 0.39), BoundaryPoint(1.0 + 0.25j, 0.25)),
    (gaussian(), BoundaryPoint(-0.17120345235059753 + 0.3673585963815835j, -0.15931382414349093),
     BoundaryPoint(-0.21577118468206113 + 0.3979232233211636j, -0.3657294302107026)),
]


@pytest.mark.parametrize("config", [
    QuadConfig(abs_tol=1e-9, rel_tol=1e-6), QuadConfig(), QuadConfig(rel_tol=1e-10),
], ids=["loose", "default", "rel1e-10"])
@pytest.mark.parametrize("spec, p1, p2", _DECAYING_POINTS, ids=["gaussian", "alpha3", "abel"])
def test_szego_profile_decaying_point_takes_one_batch(spec, p1, p2, config, monkeypatch):
    # the ray's GK15 panels are seeded evenly in s, the variable integrated
    # in, so each meets the tolerance and the tau rule takes one batch
    inner_calls = _count_ray_batches(monkeypatch)
    szego_profile(spec, p1, p2, config)
    assert len(inner_calls) == 1


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
        assert res.abs_err_estimate >= abs(res.value - szego_gaussian_closed(p1, p2).value)


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


def test_sandwich_bounds_near_alpha_one(cfg):
    # alpha = 1.01 puts the peaks at eta^100, so the eta = 0 row shares a
    # batch with windows 1e79 wide; the dual alpha' = 101 has walls at
    # |r| ~ 1, 1/100 wide, where its panels are cut
    spec = profile_power(1.01)
    grid = np.linspace(0.0, 30.0, 25)
    rep = sandwich_bounds_check(spec, 1.0, 1.5, grid, cfg)
    assert rep.upper_bounded and rep.lower_bounded
    logI, _ = _log_inner_batch(spec, 1.0, grid, 1e-10)
    alone = [_log_inner_batch(spec, 1.0, [eta], 1e-10)[0][0] for eta in grid]
    np.testing.assert_allclose(logI, alone, rtol=1e-10, atol=1e-10)
    # each row leaves the batch at the order it settles, on panels of its
    # own, so a batch is its rows: the same work, and the same values to
    # rounding; the dual runs on panels cut at its walls (the Gaussian and
    # alpha 4 take the nested trapezoid rule: the same holds)
    assert conjugate_spec(spec).alpha > profile_module._WALL_ALPHA
    for spec, grid, rtol in ((conjugate_spec(spec), grid, 1e-8),
                             (profile_power(1.5), np.linspace(-6.0, 6.0, 65), 5e-10),
                             (gaussian(), np.linspace(-6.0, 6.0, 65), 5e-10),
                             (profile_power(4.0), np.linspace(-6.0, 6.0, 65), 5e-10)):
        logI, n_batch = _log_inner_batch(spec, 1.0, grid, rtol)
        alone = [_log_inner_batch(spec, 1.0, [eta], rtol) for eta in grid]
        assert n_batch == sum(n for _, n in alone)
        assert np.max(np.abs(logI - [log_i[0] for log_i, _ in alone])) <= 1e-14


@pytest.mark.parametrize("tau", [0.05, 1.0, 60.0])
@pytest.mark.parametrize("rtol", [5e-9, 5e-10, 1e-13])
def test_log_inner_gaussian_trapezoid_exact(tau, rtol):
    # log I = log(pi / tau) / 2 + tau eta^2; |eta| up to 1e3 takes in the far
    # rows, run in the offset from their peak with D from _bregman
    etas = np.concatenate([np.linspace(-1e3, 1e3, 41), np.linspace(-6.0, 6.0, 25)])
    logI, n_evals = _log_inner_batch(gaussian(), tau, etas, rtol)
    exact = 0.5 * np.log(PI / tau) + tau * etas * etas
    assert np.all(np.abs(logI - exact) <= 4.0 * np.spacing(np.maximum(1.0, np.abs(exact))))
    assert n_evals <= 80 * etas.size  # 320 an eta on the split Gauss-Legendre ladder


@pytest.mark.parametrize("alpha", [4.0, 6.0])
def test_log_inner_even_alpha_trapezoid_against_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    etas = np.array([0.0, 0.3, -1.0, 8.0, -1e3])
    for tau in (0.05, 1.0, 60.0):
        logI, _ = _log_inner_batch(profile_power(alpha), tau, etas, 1e-13)
        for eta, got in zip(etas, logI):
            ref = mpmath_log_inner(mpmath, alpha, tau, eta)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (tau, eta, got, ref)


def test_log_inner_trapezoid_narrow_peak():
    # tau = 60, |eta| = 1e3: peaks 0.09 (Gaussian) and 0.005 (alpha 4) wide
    # at |r| = 1e3 and 10, batched with rows at r = 0, whose alpha-4 peak is
    # 0.4 wide; each row's window is fitted to its own peak and its middle
    # node sits on it, so no two coarse levels step over the peak and agree
    # on a wrong value (the values are checked in the exact and mpmath tests)
    etas = np.array([-1e3, -1.0, 0.0, 0.5, 1e3])
    for spec in (gaussian(), profile_power(4.0)):
        logI, n_batch = _log_inner_batch(spec, 60.0, etas, 5e-10)
        alone = [_log_inner_batch(spec, 60.0, [eta], 5e-10) for eta in etas]
        assert n_batch == sum(n for _, n in alone)
        assert np.max(np.abs(logI - [log_i[0] for log_i, _ in alone])) <= 1e-14


@pytest.mark.parametrize("alpha", [1.001, 1.1, 1.5, 1.9])
def test_log_inner_y_squared_panels_against_mpmath(alpha):
    # below alpha 2 the panels meeting at r = 0 run in y, r = -+y^2, where
    # |r|^alpha = y^(2 alpha) is smooth; rtol 1e-13 holds wherever log I is a
    # float, and the rows past it raise
    mpmath = pytest.importorskip("mpmath")
    spec = profile_power(alpha)
    for tau in (0.05, 60.0):
        for eta in (0.3, 30.0, 1e3):
            try:
                got = _log_inner_batch(spec, tau, [eta], 1e-13)[0][0]
            except DomainError as exc:
                assert "overflows" in str(exc)
                continue
            ref = mpmath_log_inner(mpmath, alpha, tau, eta, dps=80 if alpha < 1.05 else 30)
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref)), (tau, eta, got, ref)


@pytest.mark.parametrize("rtol", [5e-10, 1e-13])
@pytest.mark.parametrize("alpha", [1.5, 3.0])
def test_log_inner_panels_evaluation_count(alpha, rtol):
    # every row settles at the second Gauss-Legendre order on its two panels,
    # run in y at alpha 1.5 and plain at alpha 3; at alpha 1.5 plain panels
    # split at r = 0 take 33,256 evaluations here at 5e-10, and run out of
    # orders at 1e-13
    _, n_evals = _log_inner_batch(profile_power(alpha), 1.0, np.linspace(-7.0, 7.0, 65), rtol)
    assert n_evals == 65 * 2 * (48 + 64)


def test_log_inner_batch_steep_walls_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    dual = conjugate_spec(profile_power(1.01))
    logI, _ = _log_inner_batch(dual, 1.0, [2.5], 1e-10)
    ref = mpmath_log_inner(mpmath, dual.alpha, 1.0, 2.5)
    assert abs(logI[0] - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("alpha, tau", [(1.005, 1.0), (1.001, 0.05)])
def test_log_inner_batch_wall_inside_a_panel_against_mpmath(alpha, tau):
    # the duals alpha' = 201 and 1001 at eta = 1, rtol 1e-8: two orders of
    # a panel that holds a wall at r = -+1 can agree on a wrong value (the
    # grow-and-halve windows returned 1.3304629 at alpha' = 201, and panels
    # graded toward r = 0 returned 0.7034710 at alpha' = 1001)
    mpmath = pytest.importorskip("mpmath")
    dual = conjugate_spec(profile_power(alpha))
    logI, _ = _log_inner_batch(dual, tau, [1.0], 1e-8)
    ref = mpmath_log_inner(mpmath, dual.alpha, tau, 1.0)
    assert abs(logI[0] - ref) <= 1e-8 * abs(ref)


def test_log_inner_wall_slice_against_mpmath():
    # a slice of tests/scan_log_inner.py: the walls of the duals alpha' =
    # 1001, 101 and 11 against the reference split at them; no wrong value,
    # no raise but the float range's, no RuntimeWarning
    mpmath = pytest.importorskip("mpmath")
    duals = [conjugate_spec(profile_power(a)).alpha for a in (1.001, 1.01, 1.1)]
    assert scan_log_inner(mpmath, duals, (0.05, 1.0, 60.0), (0.0, 0.001, 1.0, 30.0),
                          (1e-8, 1e-13)) == []


def test_log_inner_estimate_charges_exponent_rounding():
    # rows whose error passed rtol + 32 ulps of log I: the peak term
    # 2 |x|^a' / a' at alpha 1.005 and 1.01 carries a' times the rounding
    # of x, and |r|^a at alpha 2001's walls a times that of r
    mpmath = pytest.importorskip("mpmath")
    assert scan_log_inner(mpmath, (1.005, 1.01), (0.05, 60.0), (30.0,), (1e-13,)) == []
    wall = conjugate_spec(profile_power(1.0005)).alpha
    assert scan_log_inner(mpmath, (wall,), (5.0,), (1.0,), (1e-13,)) == []


@pytest.mark.parametrize("alpha, tol", [(4.0, 1e-13), (7.0, 1e-13), (101.0, 1e-13), (201.0, 1e-13),
                                        (1001.0, 1e-13),
                                        (conjugate_spec(profile_power(1.0005)).alpha, 4.5e-13)])
def test_bregman_large_alpha_against_mpmath(alpha, tol):
    # the binomial series of D alternates for d < 0 with terms that outgrow
    # D past alpha = 5, so it runs only where none outgrows the first: at
    # d = -c / 4 the series had lost every digit at alpha = 201 and 1001.
    # Where it runs, |d| < 3 |c| / (4 (alpha - 2)), its binomial
    # coefficients overflowed into NaN past alpha 1030.  Outside, the direct
    # form's |c + d|^alpha carries alpha times the rounding of c + d: tol
    mpmath = pytest.importorskip("mpmath")
    c = 1.0223
    series = np.linspace(-0.99, 0.99, 21)[np.arange(21) != 10] * 0.75 / max(3.0, alpha - 2.0)
    d = np.concatenate([np.linspace(-0.3, 0.3, 41)[np.arange(41) != 20], series]) * c
    with mpmath.workdps(60):
        a, cm = mpmath.mpf(alpha), mpmath.mpf(c)
        ref = np.array([float(abs(cm + x) ** a / a - cm ** a / a - cm ** (a - 1) * x)
                        for x in map(mpmath.mpf, d)])
    rel = np.abs(_bregman(profile_power(alpha), d, np.full(d.size, c)) - ref) / ref
    assert np.max(rel[:40]) <= tol
    assert np.max(rel[40:]) <= 1e-14


@pytest.mark.parametrize("alpha", [1.001, 1.01, 1.5, 2.0, 3.0, 4.0, 101.0, 201.0])
def test_cut_widths_end_at_the_decay_point(alpha):
    # each half-width L of the homogeneous cut table ends where the shifted
    # exponent -2 D(c -+ L, c) has fallen past -cutoff, at most 5% beyond
    # the root: D grows with |d|, so that is 2 D(c -+ L / 1.05, c) <= cutoff
    spec = profile_power(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        profile_module._cut_table.__wrapped__(alpha)  # the build itself, uncached
    cs = np.geomspace(1e-8, 1e8, 81)
    cs = np.concatenate([cs, -cs])[np.abs((alpha - 1.0) * np.log(np.concatenate([cs, cs]))) < 700.0]
    for cutoff in (45.0, 60.0):
        widths = _cut_widths(alpha, 0.0, cutoff)  # c = 0: D(d, 0) = p(d)
        assert np.all(2.0 * profile_p(spec, widths) >= cutoff)
        assert np.all(2.0 * profile_p(spec, widths / 1.05) <= cutoff)
        # the rest, whose slope p'(c) is a float: past it no caller forms a row
        widths = _cut_widths(alpha, profile_dp(spec, cs), cutoff) * [[-1.0], [1.0]]
        assert np.all(2.0 * _bregman(spec, widths, cs) >= cutoff)
        assert np.all(2.0 * _bregman(spec, widths / 1.05, cs) <= cutoff)


def test_log_inner_wall_panels_settle_at_the_second_order():
    # the walls of alpha' = 1001 at |r| = 1 outran the two panels' ladder at
    # rtol 5e-10; cut also at seven points about each wall, the window's 16
    # panels settle at the second order
    mpmath = pytest.importorskip("mpmath")
    dual = conjugate_spec(profile_power(1.001))
    logI, n_evals = _log_inner_batch(dual, 0.3, [0.3], 5e-10)
    assert n_evals == 16 * (48 + 64)
    ref = mpmath_log_inner(mpmath, dual.alpha, 0.3, 0.3)
    assert abs(logI[0] - ref) <= 5e-10 * abs(ref)


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


@pytest.mark.parametrize("n", [64, 729])
def test_leggauss_against_mpmath(n):
    # each node is refined by one mpmath Newton step on P_n at 32 digits,
    # and its weight is 2 (1 - x^2) / (n P_{n-1}(x))^2 there
    mpmath = pytest.importorskip("mpmath")
    x, w = profile_module._leggauss(n)
    assert x.size == n and np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert abs(w.sum() - 2.0) <= 1e-14
    with mpmath.workdps(32):
        for xk, wk in zip(x[n // 2:], w[n // 2:]):
            r = mpmath.mpf(xk)
            p_n, p_m = mpmath.legendre(n, r), mpmath.legendre(n - 1, r)
            r -= p_n * (1 - r * r) / (n * (p_m - r * p_n))
            ref_w = 2 * (1 - r * r) / (n * mpmath.legendre(n - 1, r)) ** 2
            assert abs(xk - r) <= 1e-13 * abs(r) + 1e-17, (xk, r)
            assert abs(wk - ref_w) <= 1e-13 * ref_w, (xk, wk, ref_w)


@pytest.mark.parametrize("alpha", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("tau", [0.05, 1.0, 60.0])
def test_log_inner_batch_against_mpmath(alpha, tau):
    mpmath = pytest.importorskip("mpmath")
    etas = np.array([0.0, 0.3, -1.0, 2.5, 8.0])
    logI, _ = _log_inner_batch(profile_power(alpha), tau, etas)
    for eta, got in zip(etas, logI):
        ref = mpmath_log_inner(mpmath, alpha, tau, eta)
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


def test_laplace_asymptotic_reads_its_grid_in_ascending_order(cfg):
    # the monotone and last-tau checks behind `converged` read the grid
    # ascending, whatever order it is given in
    ref = laplace_asymptotic(profile_power(4.0), 1.0, [1.0, 10.0, 100.0], cfg)
    for grid in ([10.0, 1.0, 100.0], [100.0, 10.0, 1.0]):
        rep = laplace_asymptotic(profile_power(4.0), 1.0, grid, cfg)
        assert rep.converged == ref.converged is True
        assert np.array_equal(rep.tau_grid, ref.tau_grid)
        assert np.array_equal(rep.ratios, ref.ratios)


def test_laplace_asymptotic_is_one_engine_call(monkeypatch, cfg):
    # the whole tau grid maps to x = tau^(1-1/a) eta in one call, and agrees
    # with one call per tau
    spec, eta, taus = profile_power(1.5), -2.0, np.geomspace(0.05, 100.0, 7)
    rtol = max(1e-9, 0.01 * cfg.rel_tol)
    per_tau = np.array([_log_inner_batch(spec, tau, [eta], rtol)[0][0] for tau in taus])
    calls = []

    def counted(*args):
        calls.append(args)
        return _log_inner_batch(*args)

    monkeypatch.setattr(profile_module, "_log_inner_batch", counted)
    rep = laplace_asymptotic(spec, eta, taus, cfg)
    assert len(calls) == 1
    mu = inverse_derivative(spec, eta)
    p2d = weight_derivatives(spec, mu)[1]
    log_pred = 0.5 * np.log(PI / (taus * p2d)) + 2.0 * taus * young_conjugate_closed(spec, eta)
    np.testing.assert_allclose(rep.ratios, np.exp(per_tau - log_pred), rtol=1e-9)


def test_laplace_asymptotic_degenerate(cfg):
    with pytest.raises(DomainError):
        laplace_asymptotic(profile_power(4.0), 0.0, [1.0], cfg)
    with pytest.raises(DomainError):
        laplace_asymptotic(profile_power(1.5), 0.0, [1.0], cfg)


def test_roundtrip_recovers_closed_kernel(cfg):
    for tau, z, w in ((1.0, 0.0j, 0.0j), (1.0, 1.0 + 0j, 1.0 + 0j)):
        target = bergman_gaussian_closed(tau, z, w).value
        res = bergman_roundtrip_extrapolated(tau, z, w, cfg)
        assert abs(res.value - target) <= 1e-3 * abs(target)


@pytest.mark.xfail(strict=True, reason="FOUND 71")
@pytest.mark.parametrize("z", [2.0 + 0j, 3.0 + 0j])
def test_roundtrip_diagonal_within_its_estimate(z, cfg):
    # on the diagonal at larger |z| the round trip returns a wrong value
    # with a small estimate: 10.15 against 8.69 (estimate 1.02) at z = 2,
    # -1.94e5 against 1290 at z = 3
    target = bergman_gaussian_closed(1.0, z, z).value
    res = bergman_roundtrip_extrapolated(1.0, z, z, cfg)
    assert abs(res.value - target) <= res.abs_err_estimate


@pytest.mark.parametrize("z, w", [
    (30.0, 30.0),  # e^{tau (p(z) + p(w))} = e^1800
    (1e200j, 0.0),  # p(z) = 0 but E's u^2 overflows
])
def test_roundtrip_overflow_is_a_domain_error(z, w):
    with pytest.raises(DomainError, match="float range"):
        bergman_roundtrip_extrapolated(1.0, z, w)


def test_roundtrip_hermitian_despite_asymmetric_integrand(cfg):
    # the causal factor treats z and w asymmetrically; the limit is Hermitian
    a = bergman_roundtrip_extrapolated(1.0, 1.0 + 0j, 0.0j, cfg)
    b = bergman_roundtrip_extrapolated(1.0, 0.0j, 1.0 + 0j, cfg)
    assert a.value == pytest.approx(b.value.conjugate(), rel=2e-3)
    target = bergman_gaussian_closed(1.0, 1.0, 0.0).value
    assert abs(a.value - target) <= 2e-3 * abs(target)


def test_roundtrip_off_diagonal_near_pole(cfg):
    # the kernel's double pole sits |z - w|^2 / 4 = 1.5e-3 off the v axis,
    # at Re v = Im base = 0.0285, where the v rule must refine
    tau, z, w = 0.94, -0.6 + 0.31j, -0.54 + 0.36j
    target = bergman_gaussian_closed(tau, z, w).value
    res = bergman_roundtrip_extrapolated(tau, z, w, cfg)
    err = abs(res.value - target)
    assert err <= 1e-3 * abs(target)
    assert res.abs_err_estimate >= err


@pytest.mark.parametrize("tau", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("eps", [0.1, 0.005])
@pytest.mark.parametrize("z, w", [(0.3 + 0.1j, 0.3 + 0.1j), (-0.6 + 0.31j, -0.54 + 0.36j)])
def test_inverse_rule_gap_to_finer_rule_within_estimate(monkeypatch, cfg, tau, eps, z, w):
    # the fixed v rule of width h = min(1, 2/tau) and lambda rule against
    # a rule of a quarter the v width and four times the lambda panels
    got = bergman_from_szego_gaussian(tau, z, w, eps, cfg)
    edges = profile_module._difference_rule_edges
    monkeypatch.setattr(profile_module, "_difference_rule_edges",
                        lambda c, scale, stop, V, width: edges(c, scale, stop, V, 0.25 * width))
    monkeypatch.setattr(profile_module, "_LAMBDA_PANELS", 4 * profile_module._LAMBDA_PANELS)
    ref = bergman_from_szego_gaussian(tau, z, w, eps, cfg)
    gap = abs(got.value - ref.value)
    assert gap <= got.abs_err_estimate
    assert gap <= 1e-9 * abs(ref.value)


def test_roundtrip_peak_memory():
    tracemalloc.start()
    try:
        bergman_roundtrip_extrapolated(1.0, 0.3 + 0.1j, 0.3 + 0.1j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_single_epsilon_evaluation_converges_toward_target(cfg):
    target = bergman_gaussian_closed(1.0, 0.0, 0.0).value
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
    assert abs(res.value - closed) <= res.abs_err_estimate


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


_P0, _P1 = BoundaryPoint(0.5, 0.0), BoundaryPoint(-0.25j, 0.5)
_GRID = np.linspace(-4.0, 4.0, 17)


# Non-finite and out-of-domain input at the public entry points: each raises
# DomainError, or ValueError where that is the contract (moment_oracle).
@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: young_conjugate_closed(gaussian(), math.nan), DomainError, "finite",
                 id="young_conjugate_closed-nan-eta"),
    pytest.param(lambda: inverse_derivative(profile_power(3.0), math.nan), DomainError, "finite",
                 id="inverse_derivative-nan-eta"),
    pytest.param(lambda: young_conjugate_numeric(profile_power(3.0), math.nan, 1e-9),
                 DomainError, "finite", id="young_conjugate_numeric-nan-eta"),
    pytest.param(lambda: young_conjugate_numeric(profile_power(3.0), 1.0, 0.0),
                 DomainError, "tol", id="young_conjugate_numeric-zero-tol"),
    pytest.param(lambda: young_conjugate_numeric(profile_power(3.0), 1.0, math.nan),
                 DomainError, "tol", id="young_conjugate_numeric-nan-tol"),
    pytest.param(lambda: young_conjugate_numeric(profile_power(3.0), 1.0, math.inf),
                 DomainError, "tol", id="young_conjugate_numeric-inf-tol"),
    pytest.param(lambda: shifted_maximizer_gap(profile_power(3.0), 1.0, 0.5, math.nan),
                 DomainError, "finite", id="shifted_maximizer_gap-nan-eta"),
    pytest.param(lambda: shifted_maximizer_gap(profile_power(3.0), 1.0, math.nan, 1.0),
                 DomainError, "finite", id="shifted_maximizer_gap-nan-lam"),
    pytest.param(lambda: sandwich_bounds_check(profile_power(2.0), 1.0, math.nan, _GRID),
                 DomainError, "lam", id="sandwich_bounds_check-nan-lam"),
    pytest.param(lambda: sandwich_bounds_check(profile_power(2.0), 1.0, 0.0, _GRID),
                 DomainError, "lam", id="sandwich_bounds_check-zero-lam"),
    pytest.param(lambda: sandwich_bounds_check(profile_power(2.0), 1.0, math.inf, _GRID),
                 DomainError, "lam", id="sandwich_bounds_check-inf-lam"),
    pytest.param(lambda: sandwich_bounds_check(gaussian(), 1.0, 1.5, [0.0, math.nan, 1.0]),
                 DomainError, "eta must be finite", id="sandwich_bounds_check-nan-eta"),
    pytest.param(lambda: series_coefficient(2.0, math.nan, 0), DomainError, "tau",
                 id="series_coefficient-nan-tau"),
    pytest.param(lambda: series_coefficient(2.0, math.inf, 0), DomainError, "tau",
                 id="series_coefficient-inf-tau"),
    pytest.param(lambda: series_coefficient(2.0, 1.0, math.inf), DomainError, "integer",
                 id="series_coefficient-inf-k"),
    pytest.param(lambda: series_coefficient(2.0, 1.0, math.nan), DomainError, "integer",
                 id="series_coefficient-nan-k"),
    pytest.param(lambda: series_coefficient(2.0, 1.0, 1.5), DomainError, "integer",
                 id="series_coefficient-fractional-k"),
    pytest.param(lambda: series_coefficient(math.inf, 1.0, 0), DomainError, "finite alpha",
                 id="series_coefficient-inf-alpha"),
    pytest.param(lambda: bergman_radial_series(math.inf, 1.0, 0.5, 0.5), DomainError,
                 "finite alpha", id="bergman_radial_series-inf-alpha"),
    pytest.param(lambda: bergman_radial_series(math.nan, 1.0, 0.5, 0.5), DomainError,
                 "finite alpha", id="bergman_radial_series-nan-alpha"),
    pytest.param(lambda: szego_radial_closed(math.nan, _P0, _P1), DomainError, "alpha",
                 id="szego_radial_closed-nan-alpha"),
    pytest.param(lambda: szego_radial_closed(0.0, _P0, _P1), DomainError, "alpha",
                 id="szego_radial_closed-zero-alpha"),
    pytest.param(lambda: szego_radial_closed(2.0, BoundaryPoint(0, 1.0), BoundaryPoint(0, 1.0)),
                 SingularPoint, "A = 0", id="szego_radial_closed-A-zero"),
    pytest.param(lambda: szego_radial_via_laplace(math.nan, _P0, _P1), DomainError, "alpha",
                 id="szego_radial_via_laplace-nan-alpha"),
    pytest.param(lambda: szego_radial_via_laplace(-1.0, _P0, _P1), DomainError, "alpha",
                 id="szego_radial_via_laplace-negative-alpha"),
    pytest.param(lambda: gamma_step_identity_check(0.0, 0, 1.0), DomainError, "alpha",
                 id="gamma_step_identity_check-zero-alpha"),
    pytest.param(lambda: gamma_step_identity_check(2.0, 0, complex(math.nan, 0.0)), DomainError,
                 "finite A", id="gamma_step_identity_check-nan-A"),
    pytest.param(lambda: gamma_step_identity_check(2.0, 0.5, 1.0), DomainError, "integer",
                 id="gamma_step_identity_check-fractional-k"),
    pytest.param(lambda: gamma_step_identity_check(2.0, -2, 1.0), DomainError, "integer",
                 id="gamma_step_identity_check-negative-k"),
    pytest.param(lambda: gamma_step_identity_check(2.0, math.nan, 1.0), DomainError, "integer",
                 id="gamma_step_identity_check-nan-k"),
    pytest.param(lambda: weight_derivatives(gaussian(), math.nan), DomainError, "finite",
                 id="weight_derivatives-nan-x"),
    pytest.param(lambda: eval_weight(gaussian(), math.nan), DomainError, "finite",
                 id="eval_weight-nan-z"),
    # p(1e200) leaves the float range on each branch: the float power, numpy's
    # products and numpy's pow
    pytest.param(lambda: eval_weight(parse_weight("radial:alpha=2"), 1e200), DomainError,
                 "overflows", id="eval_weight-radial-overflow"),
    pytest.param(lambda: eval_weight(gaussian(), 1e200), DomainError, "overflows",
                 id="eval_weight-gaussian-overflow"),
    pytest.param(lambda: eval_weight(profile_power(3.0), 1e200), DomainError, "overflows",
                 id="eval_weight-alpha3-overflow"),
    pytest.param(lambda: eval_weight(profile_power(2.5), 1e200), DomainError, "overflows",
                 id="eval_weight-alpha2.5-overflow"),
    pytest.param(lambda: inner_integral(gaussian(), 1.0, math.nan), DomainError,
                 "eta must be finite", id="inner_integral-nan-eta"),
    pytest.param(lambda: effective_conjugate(profile_power(1.5), 2.0, math.nan), DomainError,
                 "eta must be finite", id="effective_conjugate-nan-eta"),
    pytest.param(lambda: effective_conjugate(gaussian(), 1.0, -math.inf), DomainError,
                 "eta must be finite", id="effective_conjugate-inf-eta"),
    pytest.param(lambda: laplace_asymptotic(gaussian(), math.nan, [1.0, 10.0]), DomainError,
                 "finite", id="laplace_asymptotic-nan-eta"),
    pytest.param(lambda: laplace_asymptotic(gaussian(), 1.0, [1.0, math.nan]), DomainError,
                 "tau", id="laplace_asymptotic-nan-tau"),
    pytest.param(lambda: laplace_asymptotic(profile_power(3.0), 1.0, []), DomainError,
                 "tau grid", id="laplace_asymptotic-empty-tau"),
    pytest.param(lambda: sandwich_bounds_check(profile_power(3.0), 1.0, 1.5, []), DomainError,
                 "eta grid", id="sandwich_bounds_check-empty-eta"),
    pytest.param(lambda: sandwich_bounds_check(profile_power(3.0), 1.0, 1.5, [1.0]), DomainError,
                 "eta grid", id="sandwich_bounds_check-one-eta"),
    pytest.param(lambda: bergman_from_szego_gaussian(1.0, 0.0, 0.0, math.nan), DomainError,
                 "epsilon", id="bergman_from_szego_gaussian-nan-eps"),
    pytest.param(lambda: bergman_gaussian_closed(1.0, complex(math.nan, 0.0), 0.0), DomainError,
                 "finite", id="bergman_gaussian_closed-nan-z"),
    pytest.param(lambda: duality_marginal_integral(1.0, 2.0, 0.5), DomainError, "tau0",
                 id="duality_marginal_integral-tau-order"),
    pytest.param(lambda: duality_marginal_integral(1.0, 0.8, math.inf), DomainError, "finite",
                 id="duality_marginal_integral-inf-tau1"),
    pytest.param(lambda: duality_finiteness_criterion(1.0, 0.5, math.inf), DomainError, "finite",
                 id="duality_finiteness_criterion-inf-tau1"),
    pytest.param(lambda: moment_oracle(math.nan, 1.0, 0), ValueError, "alpha",
                 id="moment_oracle-nan-alpha"),
    pytest.param(lambda: moment_oracle(2.0, 0.0, 0), ValueError, "tau",
                 id="moment_oracle-zero-tau"),
    pytest.param(lambda: moment_oracle(2.0, 1.0, -1), ValueError, "k >= 0",
                 id="moment_oracle-negative-k"),
    pytest.param(lambda: moment_closed(2.0, math.nan, 0), ValueError, "tau",
                 id="moment_closed-nan-tau"),
    pytest.param(lambda: reproducing_check(2.0, 1.0, 0, complex(math.nan, 0.0)), ValueError,
                 "finite z", id="reproducing_check-nan-z"),
    pytest.param(lambda: reproducing_check(2.0, 0.0, 0, 0.5), ValueError, "tau",
                 id="reproducing_check-zero-tau"),
    pytest.param(lambda: reproducing_check(0.0, 1.0, 0, 0.5), ValueError, "alpha",
                 id="reproducing_check-zero-alpha"),
    pytest.param(lambda: reproducing_check(2.0, 1.0, 2.5, 0.3 + 0.1j), ValueError, "integer j",
                 id="reproducing_check-fractional-j"),
    pytest.param(lambda: reproducing_check(2.0, 1.0, True, 0.5), ValueError, "integer j",
                 id="reproducing_check-bool-j"),
    pytest.param(lambda: reproducing_check(2.0, 1.0, 9, 0.5), ValueError, "integer j",
                 id="reproducing_check-j-above-8"),
    pytest.param(lambda: BoundaryPoint(0.5, math.inf), DomainError, "finite",
                 id="BoundaryPoint-inf-t"),
    pytest.param(lambda: profile_power(math.nan), DomainError, "finite",
                 id="WeightSpec-nan-alpha"),
    # nan subdivisions let an adaptive integral run without end
    pytest.param(lambda: QuadConfig(max_subdivisions=math.nan), DomainError, "integer",
                 id="QuadConfig-nan-subdivisions"),
    pytest.param(lambda: QuadConfig(max_subdivisions=math.inf), DomainError, "integer",
                 id="QuadConfig-inf-subdivisions"),
    pytest.param(lambda: QuadConfig(max_subdivisions=2.5), DomainError, "integer",
                 id="QuadConfig-fractional-subdivisions"),
    pytest.param(lambda: QuadConfig(max_subdivisions=True), DomainError, "integer",
                 id="QuadConfig-bool-subdivisions"),
    pytest.param(lambda: EvalResult(1.0, -1e-12, "closed", 0), DomainError, "non-negative",
                 id="EvalResult-negative-estimate"),
])
def test_entry_points_reject_invalid_input(call, error, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


def test_effective_conjugate_property_against_mpmath():
    # tau away from 1 is mapped to x = tau^(1-1/a) eta and run at tau = 1;
    # mpmath integrates at tau itself
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @hypothesis.given(alpha=st.floats(1.2, 4.0),
                      tau=st.floats(math.log(0.05), math.log(60.0)).map(math.exp),
                      eta=st.floats(-20.0, 20.0))
    def check(alpha, tau, eta):
        ref = mpmath_log_inner(mpmath, alpha, tau, eta)
        got = effective_conjugate(profile_power(alpha), tau, eta)
        assert abs(2.0 * tau * got - ref) <= 1e-9 * max(1.0, abs(ref))

    check()


def test_bergman_profile_gaussian_property_against_closed(cfg):
    # the Gaussian kernel at the default config, tau log-uniform in [0.05,
    # 20] and z, w in the box |Re|, |Im| <= 3, against (tau / 2 pi) e^X, X =
    # tau u^2 / 4: a returned value is within its estimate of it, and the
    # estimate within the tolerance.  The x integral's terms cancel like
    # e^{-tau (Im u)^2 / 4}, so only past tau (Im u)^2 / 4 = 10 may the call
    # raise, and only that it cancels
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = st.floats(-3.0, 3.0)
    point = st.builds(complex, coord, coord)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @hypothesis.given(tau=st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
                      z=point, w=point)
    def check(tau, z, w):
        cancels = 0.25 * tau * (z + w.conjugate()).imag ** 2
        try:
            res = bergman_profile(gaussian(), tau, z, w, cfg)
        except ConvergenceError as exc:
            assert cancels >= 10.0 and "the x integral cancels" in str(exc)
            return
        exact = bergman_gaussian_closed(tau, z, w).value
        assert abs(res.value - exact) <= res.abs_err_estimate
        assert res.abs_err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))

    check()


_PROFILE_SPECS = (gaussian(), profile_power(1.5), profile_power(3.0), profile_power(4.0))


def test_bergman_profile_property_hermitian_and_translation():
    # K(w, z) = conj K(z, w) exactly, and K depends on z + conj w only
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = st.floats(-1.5, 1.5)
    point = st.builds(complex, coord, coord)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @hypothesis.given(spec=st.sampled_from(_PROFILE_SPECS), tau=st.floats(0.4, 2.0),
                      z=point, w=point, c=point)
    def check(spec, tau, z, w, c):
        k = bergman_profile(spec, tau, z, w).value
        assert bergman_profile(spec, tau, w, z).value == k.conjugate()
        moved = bergman_profile(spec, tau, z + c, w - c.conjugate()).value
        assert abs(moved - k) <= 1e-13 * abs(k)

    check()


def test_szego_profile_property_scaling(loose):
    # S(lam z, lam w, lam^a t, lam^a s) = lam^-(a+2) S, on the region the
    # szego-triple benchmark draws: |z - w| in [1.4, 2], |Im(z - w)| <= 0.3,
    # and s - t set so that the tau integrand turns at rate 0.1 to 0.15
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=12)
    @hypothesis.given(alpha=st.sampled_from([2.0, 3.0]), dmag=st.floats(1.4, 2.0),
                      dim=st.floats(-0.3, 0.3), mid_re=st.floats(-0.4, 0.4),
                      mid_im=st.floats(-0.4, 0.4), t=st.floats(-0.5, 0.5),
                      osc=st.floats(0.1, 0.15), sign=st.sampled_from([-1.0, 1.0]),
                      lam=st.floats(0.7, 1.3))
    def check(alpha, dmag, dim, mid_re, mid_im, t, osc, sign, lam):
        spec = gaussian() if alpha == 2.0 else profile_power(alpha)
        d = complex(sign * math.sqrt(dmag * dmag - dim * dim), dim)
        z, w = complex(mid_re, mid_im) + d / 2, complex(mid_re, mid_im) - d / 2
        s = t + sign * osc + float(profile_dp(spec, 0.5 * (z + w).real)) * dim
        ref = szego_profile(spec, BoundaryPoint(z, t), BoundaryPoint(w, s), loose).value
        got = szego_profile(spec, BoundaryPoint(lam * z, lam ** alpha * t),
                            BoundaryPoint(lam * w, lam ** alpha * s), loose).value
        assert abs(got * lam ** (alpha + 2.0) - ref) <= 1e-13 * abs(ref)

    check()


def test_szego_profile_property_hermitian(loose):
    # S(P2, P1) = conj S(P1, P2), on the region of the scaling property
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=12)
    @hypothesis.given(alpha=st.sampled_from([2.0, 3.0]), dmag=st.floats(1.4, 2.0),
                      dim=st.floats(-0.3, 0.3), mid_re=st.floats(-0.4, 0.4),
                      mid_im=st.floats(-0.4, 0.4), t=st.floats(-0.5, 0.5),
                      osc=st.floats(0.1, 0.15), sign=st.sampled_from([-1.0, 1.0]))
    def check(alpha, dmag, dim, mid_re, mid_im, t, osc, sign):
        spec = gaussian() if alpha == 2.0 else profile_power(alpha)
        d = complex(sign * math.sqrt(dmag * dmag - dim * dim), dim)
        z, w = complex(mid_re, mid_im) + d / 2, complex(mid_re, mid_im) - d / 2
        s = t + sign * osc + float(profile_dp(spec, 0.5 * (z + w).real)) * dim
        p1, p2 = BoundaryPoint(z, t), BoundaryPoint(w, s)
        ref = szego_profile(spec, p1, p2, loose).value
        got = szego_profile(spec, p2, p1, loose).value
        assert abs(got - ref.conjugate()) <= 1e-13 * abs(ref)

    check()
