import cmath
import math
import sys

import pytest

from szegofock import (
    BoundaryPoint,
    ConvergenceError,
    DomainError,
    NearSingular,
    SingularPoint,
    bergman_radial_series,
    gamma_step_identity_check,
    series_coefficient,
    szego_radial_closed,
    szego_radial_via_laplace,
)

PI = math.pi


def test_series_coefficient_oracle_values():
    # moment oracle m_0 = pi/2, m_1 = pi/4 for alpha=2, tau=1
    assert series_coefficient(2, 1, 0) == pytest.approx(2.0 / PI, rel=1e-13)
    assert series_coefficient(2, 1, 1) == pytest.approx(4.0 / PI, rel=1e-13)
    # alpha=4: m_0 = (pi/2) sqrt(pi/2)
    m0 = (PI / 2.0) * math.sqrt(PI / 2.0)
    assert series_coefficient(4, 1, 0) == pytest.approx(1.0 / m0, rel=1e-12)
    with pytest.raises(DomainError):
        series_coefficient(-1.0, 1.0, 0)
    with pytest.raises(DomainError):
        series_coefficient(2.0, 0.0, 0)
    with pytest.raises(DomainError):
        series_coefficient(2.0, 1.0, -1)


@pytest.mark.parametrize("tau, z, w", [
    (math.nan, 0.5, 0.5), (math.inf, 0.5, 0.5),
    (1.0, complex(math.nan, 0.0), 0.5), (1.0, 0.5, complex(0.0, math.inf)),
])
def test_bergman_series_rejects_nonfinite(tau, z, w):
    with pytest.raises(DomainError):
        bergman_radial_series(2.0, tau, z, w)


def test_bergman_series_examples(tight):
    res = bergman_radial_series(2, 1, 0, 0, tight)
    assert res.value == pytest.approx(2.0 / PI, rel=1e-12)
    res = bergman_radial_series(2, 1, 1, 1, tight)
    assert res.value == pytest.approx((2.0 / PI) * math.exp(2.0), rel=1e-9)


def test_bergman_series_hermitian(rng, cfg):
    for _ in range(25):
        alpha = rng.choice([1.0, 2.0, 3.0])
        tau = rng.uniform(0.3, 2.0)
        z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        w = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        kzw = bergman_radial_series(alpha, tau, z, w, cfg).value
        kwz = bergman_radial_series(alpha, tau, w, z, cfg).value
        assert kzw == pytest.approx(kwz.conjugate(), rel=1e-8, abs=1e-12)
        diag = bergman_radial_series(alpha, tau, z, z, cfg).value
        assert abs(diag.imag) < 1e-10 * abs(diag)
        assert diag.real > 0.0


def test_scaling_law(rng, tight):
    # c_k proportional to tau^{2(k+1)/alpha} gives
    # K_tau(z, w) = tau^{2/alpha} K_1(tau^{1/alpha} z, tau^{1/alpha} w)
    for _ in range(10):
        alpha = rng.choice([1.0, 2.0, 4.0])
        tau = rng.uniform(0.4, 2.5)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        s = tau ** (1.0 / alpha)
        lhs = bergman_radial_series(alpha, tau, z, w, tight).value
        rhs = tau ** (2.0 / alpha) * bergman_radial_series(alpha, 1.0, s * z, s * w, tight).value
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-13)


def _mp_radial_series(mpmath, alpha, tau, z, w):
    """The kernel series summed in mpmath at 40 digits, past its peak term."""
    with mpmath.workdps(40):
        zw = mpmath.mpc(z) * mpmath.conj(mpmath.mpc(w))
        a, two_tau = mpmath.mpf(alpha), 2 * mpmath.mpf(tau)
        total, prev = mpmath.mpc(0), mpmath.inf
        for k in range(5000):
            x = 2 * (k + 1) / a
            t = a / (2 * mpmath.pi) * two_tau ** x / mpmath.gamma(x) * zw ** k
            total += t
            if abs(t) < prev and abs(t) <= mpmath.mpf(10) ** -40 * abs(total):
                return complex(total)
            prev = abs(t)
    raise AssertionError("oracle series did not converge")


def _mp_szego_radial(mpmath, alpha, p1, p2):
    """The closed boundary kernel evaluated in mpmath at 40 digits."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        z, w = mpmath.mpc(p1.z), mpmath.mpc(p2.z)
        A = (abs(z) ** a + abs(w) ** a + 1j * (mpmath.mpf(p2.t) - mpmath.mpf(p1.t))) / 2
        q = z * mpmath.conj(w) * A ** (-2 / a)
        return complex(A ** (-1 - 2 / a) * (1 - q) ** -2 / (2 * mpmath.pi))


# The estimate charges the summation's rounding, eps * sum |t_k|, but not the
# terms' own: where the first term dominates (z or w near 0) the error is up
# to about 7 ulps of the value against an estimate of about 1.
_TERM_ROUNDING = 8.0 * sys.float_info.epsilon


def _assert_honest(res, ref, cfg):
    err = abs(res.value - ref)
    assert err <= res.abs_err_estimate + _TERM_ROUNDING * abs(ref)
    assert res.abs_err_estimate <= max(cfg.abs_tol, cfg.rel_tol * abs(res.value))


def test_bergman_series_late_peak_against_mpmath(cfg):
    # alpha = 3 at z = w = 3, the benchmark's radial-series-growth-raise
    # input: the terms grow for about 160 terms to 1e47
    mpmath = pytest.importorskip("mpmath")
    res = bergman_radial_series(3, 2, 3, 3, cfg)
    ref = _mp_radial_series(mpmath, 3, 2, 3, 3)
    _assert_honest(res, ref, cfg)
    assert abs(res.value - ref) <= res.abs_err_estimate


def test_bergman_series_cancellation_raises(cfg):
    # terms up to 1.4e5 cancel to 3e-7: rounding 3e-10 against a 1e-10 target
    with pytest.raises(ConvergenceError, match="cancel"):
        bergman_radial_series(2, 1, 2.7, -2.7, cfg)


def test_bergman_series_estimate_honest_property(cfg):
    # the benchmark's series region: tau in [0.4, 2], z and w in the disc of
    # radius 2^(1/alpha), so 2 tau |z w|^(alpha/2) <= 8
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @hypothesis.given(alpha=st.sampled_from([1.0, 2.0, 3.0]), tau=st.floats(0.4, 2.0),
                      rz=st.floats(0.0, 1.0), rw=st.floats(0.0, 1.0),
                      az=st.floats(-math.pi, math.pi), aw=st.floats(-math.pi, math.pi))
    def check(alpha, tau, rz, rw, az, aw):
        radius = 2.0 ** (1.0 / alpha)
        z, w = cmath.rect(radius * rz, az), cmath.rect(radius * rw, aw)
        res = bergman_radial_series(alpha, tau, z, w, cfg)
        _assert_honest(res, _mp_radial_series(mpmath, alpha, tau, z, w), cfg)

    check()


def test_via_laplace_estimate_honest_property(cfg):
    # criterion 03's draws with |q| <= 0.99, the benchmark's Laplace region
    hypothesis = pytest.importorskip("hypothesis")
    mpmath = pytest.importorskip("mpmath")
    st = hypothesis.strategies
    box = st.floats(-1.5, 1.5)

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @hypothesis.given(alpha=st.sampled_from([1.0, 2.0, 3.0]), zx=box, zy=box, wx=box, wy=box,
                      t=box, s=box)
    def check(alpha, zx, zy, wx, wy, t, s):
        z, w = complex(zx, zy), complex(wx, wy)
        hypothesis.assume(abs(z) ** alpha + abs(w) ** alpha >= 0.2)
        A = 0.5 * (abs(z) ** alpha + abs(w) ** alpha + 1j * (s - t))
        hypothesis.assume(abs(z * w.conjugate() * A ** (-2.0 / alpha)) <= 0.99)
        p1, p2 = BoundaryPoint(z, t), BoundaryPoint(w, s)
        res = szego_radial_via_laplace(alpha, p1, p2, cfg)
        _assert_honest(res, _mp_szego_radial(mpmath, alpha, p1, p2), cfg)

    check()


def test_szego_closed_examples():
    res = szego_radial_closed(2, BoundaryPoint(0, 0), BoundaryPoint(0, 1))
    assert res.value == pytest.approx(-2.0 / PI, rel=1e-13)
    res = szego_radial_closed(1, BoundaryPoint(0, 0), BoundaryPoint(0, 2))
    assert res.value == pytest.approx(1j / (2.0 * PI), rel=1e-13)
    with pytest.raises(SingularPoint):
        szego_radial_closed(2, BoundaryPoint(1, 0), BoundaryPoint(1, 0))


def test_szego_closed_time_translation(rng):
    for _ in range(25):
        alpha = rng.choice([1.0, 2.0, 3.0])
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 1.5
        t, s, c = rng.uniform(-2, 2, size=3)
        a = szego_radial_closed(alpha, BoundaryPoint(z, t), BoundaryPoint(w, s)).value
        b = szego_radial_closed(alpha, BoundaryPoint(z, t + c), BoundaryPoint(w, s + c)).value
        assert a == pytest.approx(b, rel=1e-12)


def test_szego_closed_hermitian(rng):
    for _ in range(25):
        alpha = rng.choice([1.0, 2.0, 3.0])
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 1.25
        w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t, s = rng.uniform(-2, 2, size=2)
        p1 = BoundaryPoint(z, t)
        p2 = BoundaryPoint(w, s)
        ab = szego_radial_closed(alpha, p1, p2).value
        ba = szego_radial_closed(alpha, p2, p1).value
        assert ab == pytest.approx(ba.conjugate(), rel=1e-12)


def test_geometric_factor_inside_unit_disc(rng):
    # AM-GM: |z w| <= |A|^{2/alpha} with equality only on the diagonal
    for _ in range(50):
        alpha = rng.choice([0.5, 1.0, 2.0, 3.0])
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        s_minus_t = rng.uniform(-3, 3)
        if abs(abs(z) - abs(w)) < 1e-3 and abs(s_minus_t) < 1e-3:
            continue
        A = 0.5 * (abs(z) ** alpha + abs(w) ** alpha + 1j * s_minus_t)
        if abs(A) == 0.0:
            continue
        q = z * w.conjugate() * A ** (-2.0 / alpha)
        assert abs(q) < 1.0 + 1e-12


def test_via_laplace_matches_closed(cfg):
    p1 = BoundaryPoint(1, 0)
    p2 = BoundaryPoint(0, 0)
    closed = szego_radial_closed(2, p1, p2).value
    assert closed == pytest.approx(2.0 / PI, rel=1e-13)
    lap = szego_radial_via_laplace(2, p1, p2, cfg).value
    assert abs(lap - closed) <= 1e-6 * abs(closed)

    p1 = BoundaryPoint(0.5, 0.0)
    p2 = BoundaryPoint(0.5j, 0.7)
    closed = szego_radial_closed(3, p1, p2).value
    lap = szego_radial_via_laplace(3, p1, p2, cfg).value
    assert abs(lap - closed) <= 1e-6 * abs(closed)


def test_via_laplace_far_terms_within_tolerance(cfg):
    # terms near x = 1e5: Gamma(x + 1) / Gamma(x) through two lgamma values
    # left ~3e-11 relative in each, a 1e-9 miss in the sum
    p1 = BoundaryPoint(1.2586963292605642 + 0.2770203802947886j, 0.3256170062422039)
    p2 = BoundaryPoint(-1.2127028257221546 - 0.6972098784788424j, 0.32436501784149874)
    closed = szego_radial_closed(1.0, p1, p2).value
    lap = szego_radial_via_laplace(1.0, p1, p2, cfg).value
    assert abs(lap - closed) <= max(cfg.abs_tol, cfg.rel_tol * abs(closed))


def test_via_laplace_rejects_undamped(cfg):
    with pytest.raises(NearSingular):
        szego_radial_via_laplace(2, BoundaryPoint(0, 0), BoundaryPoint(0, 1), cfg)


def test_transform_consistency_sample(rng, cfg):
    checked = 0
    while checked < 20:
        alpha = rng.choice([1.0, 2.0, 3.0])
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        if abs(z) ** alpha + abs(w) ** alpha < 0.2:
            continue
        t, s = rng.uniform(-1.5, 1.5, size=2)
        p1 = BoundaryPoint(z, t)
        p2 = BoundaryPoint(w, s)
        try:
            closed = szego_radial_closed(alpha, p1, p2)
        except SingularPoint:
            continue
        lap = szego_radial_via_laplace(alpha, p1, p2, cfg)
        budget = max(1e-6 * abs(closed.value),
                     closed.abs_err_estimate + lap.abs_err_estimate)
        assert abs(lap.value - closed.value) <= budget
        checked += 1


def test_gamma_step_identity():
    assert gamma_step_identity_check(2, 0, 1.0 + 0j) <= 1e-8
    assert gamma_step_identity_check(2, 1, 1.0 + 0j) <= 1e-8
    assert gamma_step_identity_check(3, 0, 0.5 + 0.5j) <= 1e-8
    # closed values Gamma(2) 2^-2 and Gamma(3) 2^-3
    x = 2.0 * 1.0 / 2.0
    closed0 = cmath.exp(math.lgamma(x + 1.0)) * 2.0 ** (-(x + 1.0))
    assert closed0 == pytest.approx(0.25)
    x1 = 2.0 * 2.0 / 2.0
    closed1 = cmath.exp(math.lgamma(x1 + 1.0)) * 2.0 ** (-(x1 + 1.0))
    assert closed1 == pytest.approx(0.25)
    with pytest.raises(DomainError):
        gamma_step_identity_check(2, 0, -1.0 + 0j)
