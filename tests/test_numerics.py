import math

import numpy as np
import pytest

from szegofock import (
    ConvergenceError,
    DomainError,
    QuadConfig,
    TruncationError,
    integrate_half_line,
    integrate_interval,
    integrate_plane_polar,
    integrate_real_line,
    log_gamma,
    sum_series,
)
from szegofock.numerics import closed_result

SQRT_PI = math.sqrt(math.pi)


def _check(res, expected, cfg):
    budget = max(cfg.abs_tol, cfg.rel_tol * abs(res.value))
    assert abs(res.value - expected) <= budget
    assert res.abs_err_estimate <= budget * 1.0000001
    assert res.n_evals > 0


def test_closed_result_charges_its_cond_and_rejects_non_finite_values():
    res = closed_result(-2.0 + 0j, 3.0)
    assert (res.value, res.method, res.n_evals) == (-2.0, "closed", 0)
    assert res.abs_err_estimate == 8e-16 * 4.0 * 2.0 + 1e-323
    assert closed_result(0.0, 0.0).abs_err_estimate == 1e-323
    for value in (math.inf, complex(0.0, -math.inf), complex(math.nan, 0.0)):
        with pytest.raises(DomainError, match="overflows"):
            closed_result(value, 0.0)


def test_quad_config_validation():
    with pytest.raises(DomainError):
        QuadConfig(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadConfig(rel_tol=2.0)
    with pytest.raises(DomainError):
        QuadConfig(max_subdivisions=0)


def test_real_line_examples(cfg):
    _check(integrate_real_line(lambda x: np.exp(-x * x), cfg), SQRT_PI, cfg)
    _check(integrate_real_line(lambda x: np.exp(-np.abs(x)), cfg), 2.0, cfg)
    _check(integrate_real_line(lambda x: np.exp(-x * x) * np.cos(x), cfg),
           SQRT_PI * math.exp(-0.25), cfg)
    for scale in (1e-20, 1e20):
        _check(integrate_real_line(lambda x: scale * np.exp(-x * x), cfg), scale * SQRT_PI, cfg)


def test_half_line_examples(cfg):
    _check(integrate_half_line(lambda t: np.exp(-t), cfg), 1.0, cfg)
    _check(integrate_half_line(lambda t: t * np.exp(-2.0 * t), cfg), 0.25, cfg)
    _check(integrate_half_line(lambda t: np.sqrt(t) * np.exp(-t), cfg),
           SQRT_PI / 2.0, cfg)


def test_plane_polar_examples(cfg):
    _check(integrate_plane_polar(lambda r, th: np.exp(-2.0 * r * r) * np.ones_like(th), cfg),
           math.pi / 2.0, cfg)
    _check(integrate_plane_polar(lambda r, th: np.exp(-r) * np.ones_like(th), cfg),
           2.0 * math.pi, cfg)
    _check(integrate_plane_polar(lambda r, th: r * r * np.exp(-2.0 * r * r) * np.ones_like(th), cfg),
           math.pi / 4.0, cfg)


def test_plane_polar_angular_dependence(cfg):
    # int r^2 cos^2(theta) e^{-r^2} r dr dtheta = pi * Gamma(2) / 2
    res = integrate_plane_polar(
        lambda r, th: (r * np.cos(th)) ** 2 * np.exp(-r * r), cfg)
    _check(res, math.pi / 2.0, cfg)


def test_series_examples(cfg):
    _check(sum_series(lambda k: 0.5 ** k, cfg), 2.0, cfg)
    _check(sum_series(lambda k: (k + 1) * 0.5 ** k, cfg), 4.0, cfg)
    _check(sum_series(lambda k: 2.0 ** k / math.factorial(k) if k < 170 else 0.0, cfg),
           math.exp(2.0), cfg)


def test_series_all_zero_terms(cfg):
    res = sum_series(lambda k: 0.0, cfg)
    assert res.value == 0.0
    assert res.abs_err_estimate == 0.0


def test_series_divergence_detected(cfg):
    with pytest.raises(ConvergenceError):
        sum_series(lambda k: 1.0, cfg)


def test_series_cancellation_raises(cfg):
    # e^-20 = 2.06e-9 from terms up to 4.3e7: their rounding, eps * sum |t_k|
    # = 1.1e-7, is above the 1e-10 target
    with pytest.raises(ConvergenceError, match="cancel"):
        sum_series(lambda k: (-20.0) ** k / math.factorial(k) if k < 170 else 0.0, cfg)


def test_series_overflowing_term_raises(cfg):
    def term(k):
        if k == 5:
            raise OverflowError("complex exponentiation")
        return 2.0 ** k

    with pytest.raises(ConvergenceError, match="term 5 overflows"):
        sum_series(term, cfg)


def test_plane_polar_angular_cap(cfg):
    # an angular peak of width 1e-3 stays unresolved at 1024 nodes
    with pytest.raises(ConvergenceError, match="1024"):
        integrate_plane_polar(lambda r, th: np.exp(-r) * np.exp(1e6 * (np.cos(th) - 1.0)), cfg)


def test_log_gamma_examples():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(SQRT_PI), rel=1e-13)
    assert log_gamma(3.0) == pytest.approx(math.log(2.0), rel=1e-13)
    with pytest.raises(DomainError):
        log_gamma(0.0)
    with pytest.raises(DomainError):
        log_gamma(-2.5)


def test_log_gamma_functional_equation():
    for x in np.geomspace(1e-3, 1e3, 61):
        assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) < 1e-10


def test_log_gamma_against_stdlib():
    for x in np.geomspace(1e-3, 1e3, 101):
        ref = math.lgamma(x)
        assert log_gamma(x) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_monotone_refinement_on_closed_forms():
    cases = [
        (lambda x: np.exp(-x * x), SQRT_PI),
        (lambda x: np.exp(-np.abs(x)), 2.0),
        (lambda x: np.exp(-x * x) * np.cos(x), SQRT_PI * math.exp(-0.25)),
    ]
    for f, exact in cases:
        errs = []
        for tol in (1e-6, 5e-7, 2.5e-7, 1.25e-7):
            cfg = QuadConfig(abs_tol=tol, rel_tol=tol)
            errs.append(abs(integrate_real_line(f, cfg).value - exact))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-15


def test_linearity(cfg):
    f = lambda x: np.exp(-x * x)
    g = lambda x: np.exp(-2.0 * x * x)
    a, b = 2.5, -1.25
    lhs = integrate_real_line(lambda x: a * f(x) + b * g(x), cfg)
    rf = integrate_real_line(f, cfg)
    rg = integrate_real_line(g, cfg)
    combined_err = (lhs.abs_err_estimate + abs(a) * rf.abs_err_estimate
                    + abs(b) * rg.abs_err_estimate)
    assert abs(lhs.value - (a * rf.value + b * rg.value)) <= combined_err + 1e-14


def test_truncation_error_on_non_decaying_integrand(cfg):
    # infinite ranges stop only when a doubling shell's mass is finite and
    # below a tenth of the target; exp(x^2) overflows both sides to inf
    cases = [(integrate_real_line, np.ones_like), (integrate_real_line, np.cos),
             (integrate_half_line, np.sin), (integrate_real_line, lambda x: x),
             (integrate_real_line, lambda x: np.exp(x * x))]
    for integrate, f in cases:
        with pytest.raises(TruncationError):
            integrate(f, cfg)


def test_half_line_estimate_charges_the_tail(cfg):
    """1/(1 + t^2) decays like t^-2, so the part beyond the window is as
    large as the last shell's mass; (1 + t)^-1.5 leaves about 2.4 times it.
    Both tails must be in the estimate.  (1 + t)^-1.2, whose shells fall
    by only 2^-0.2, still raises TruncationError: its tail charge reaches
    the target beyond the doubling budget."""
    cases = [(lambda t: 1.0 / (1.0 + t * t), 0.5 * math.pi), (lambda t: (1.0 + t) ** -1.5, 2.0)]
    for f, exact in cases:
        res = integrate_half_line(f, cfg)
        err = abs(res.value - exact)
        assert err <= res.abs_err_estimate <= max(cfg.abs_tol, cfg.rel_tol * exact)


def test_convergence_error_on_subdivision_budget():
    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
    with pytest.raises(ConvergenceError):
        # needle too sharp for four panels at this tolerance
        integrate_real_line(lambda x: np.exp(-1e6 * x * x), cfg)


def test_complex_integrand(cfg):
    res = integrate_real_line(lambda x: np.exp(-x * x) * np.exp(1j * x), cfg)
    expected = SQRT_PI * math.exp(-0.25)
    assert abs(res.value - expected) < 1e-9
    assert abs(res.value.imag) < 1e-10


def test_interval_orientation_and_breakpoints(cfg):
    # from b back to a is minus the integral over [a, b], breakpoints included
    for breakpoints in ((), (0.25, 0.5, 2.0)):
        forward = integrate_interval(lambda x: x, 0.0, 1.0, cfg, breakpoints)
        backward = integrate_interval(lambda x: x, 1.0, 0.0, cfg, breakpoints)
        _check(forward, 0.5, cfg)
        assert backward.value == -forward.value
        assert (backward.abs_err_estimate, backward.n_evals) == (forward.abs_err_estimate,
                                                                 forward.n_evals)
    assert integrate_interval(lambda x: x, 2.0, 2.0, cfg).value == 0.0


@pytest.mark.parametrize("a, b", [(0.0, math.nan), (-math.inf, 1.0), (math.nan, math.inf)])
def test_interval_rejects_non_finite_ends(a, b, cfg):
    with pytest.raises(DomainError, match="finite"):
        integrate_interval(lambda x: x, a, b, cfg)


@pytest.mark.parametrize("f", [lambda x: 1.0 / (x - 0.3) ** 2, lambda x: x * math.nan],
                         ids=["double-pole", "nan"])
def test_interval_raises_on_non_finite_results(f, cfg):
    # a diverging or nan integrand used to return (inf, inf) or (nan, nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="non-finite"):
            integrate_interval(f, 0.0, 1.0, cfg)


@pytest.mark.parametrize("kwargs", [dict(initial_halfwidth=-1.0), dict(initial_halfwidth=0.0),
                                    dict(initial_halfwidth=math.inf),
                                    dict(initial_halfwidth=math.nan), dict(center=math.nan),
                                    dict(center=-math.inf)])
def test_real_line_rejects_invalid_windows(kwargs, cfg):
    # a negative width used to return -sqrt(pi) for e^{-x^2}, a zero one 0
    with pytest.raises(DomainError, match="width"):
        integrate_real_line(lambda x: np.exp(-x * x), cfg, **kwargs)


@pytest.mark.parametrize("width", [0.0, -2.0, math.inf, math.nan])
def test_half_line_rejects_invalid_windows(width, cfg):
    with pytest.raises(DomainError, match="width"):
        integrate_half_line(lambda x: np.exp(-x), cfg, width)
