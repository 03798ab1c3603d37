"""Acceptance criteria, one test each, at their contractual tolerances.

Every test prints one pass line with its runtime against the stated budget
(visible with pytest -s / -v); the runtime budget is part of the assertion.
"""
import math
import time

import numpy as np
import pytest

from szegofock import (
    BoundaryPoint,
    QuadConfig,
    TruncationError,
    bergman_gaussian_closed,
    bergman_profile,
    bergman_radial_series,
    bergman_roundtrip_extrapolated,
    duality_finiteness_criterion,
    duality_marginal_integral,
    gaussian,
    laplace_asymptotic,
    profile_power,
    reproducing_check,
    run_suite,
    sandwich_bounds_check,
    shifted_maximizer_gap,
    szego_gaussian_closed,
    szego_profile,
    szego_radial_closed,
    szego_radial_via_laplace,
    young_conjugate_numeric,
)
from szegofock.profile import _log_inner_batch

PI = math.pi


class _Budget:
    def __init__(self, number, name, limit):
        self.number = number
        self.name = name
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %02d %-24s %s  (%.2fs of %.0fs budget)"
              % (self.number, self.name, status, elapsed, self.limit))
        if exc_type is None:
            assert elapsed <= self.limit, (
                "criterion %d exceeded its %.0fs budget: %.2fs"
                % (self.number, self.limit, elapsed))
        return False


def test_criterion_01_normalization():
    with _Budget(1, "normalization", 10.0):
        rep = run_suite("normalization", QuadConfig())
        assert len(rep.cases) == 36
        for c in rep.cases:
            assert c.tolerance == 1e-7
            assert abs(c.actual - 1.0) <= 1e-7
            assert c.passed
        # the conventional 2 pi / alpha prefactor is recorded, not asserted
        assert len(rep.notes) == 4
        assert all("2pi/alpha" in n for n in rep.notes)


def test_criterion_02_fock_crosscheck():
    with _Budget(2, "fock-crosscheck", 1.0):
        cfg = QuadConfig(abs_tol=1e-14, rel_tol=1e-12, max_subdivisions=4000)
        pts = [1.5 + 0.0j, -1.2 + 0.6j, 0.4 - 0.9j, -0.3 - 0.3j, 1.0 + 1.0j]
        for z in pts:
            for w in pts:
                exact = (2.0 / PI) * np.exp(2.0 * z * np.conj(w))
                got = bergman_radial_series(2.0, 1.0, z, w, cfg).value
                assert abs(got - exact) <= 1e-9 * abs(exact)


def test_criterion_03_transform_consistency():
    with _Budget(3, "transform-consistency", 30.0):
        cfg = QuadConfig()
        rng = np.random.default_rng(73)
        for alpha in (1.0, 2.0, 3.0):
            checked = 0
            while checked < 20:
                z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
                t, s = rng.uniform(-1.5, 1.5, size=2)
                if abs(z) ** alpha + abs(w) ** alpha < 0.2:
                    continue
                p1, p2 = BoundaryPoint(z, t), BoundaryPoint(w, s)
                A = 0.5 * (abs(z) ** alpha + abs(w) ** alpha + 1j * (s - t))
                if abs(z * np.conj(w) * A ** (-2.0 / alpha)) > 0.999:
                    continue  # boundary-diagonal neighbourhood
                closed = szego_radial_closed(alpha, p1, p2).value
                lap = szego_radial_via_laplace(alpha, p1, p2, cfg).value
                assert abs(lap - closed) <= 1e-6 * abs(closed)
                checked += 1


def test_criterion_04_gaussian_pipeline():
    with _Budget(4, "gaussian-pipeline", 60.0):
        g = gaussian()
        tight = QuadConfig(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=4000)
        rng = np.random.default_rng(5)
        pts = [(1.0, 0.0j, 0.0j), (1.0, 1.0 + 0.0j, 1.0 + 0.0j)]
        while len(pts) < 10:
            pts.append((float(rng.uniform(0.4, 2.0)),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
        for tau, z, w in pts:
            exact = bergman_gaussian_closed(tau, z, w).value
            got = bergman_profile(g, tau, z, w, tight).value
            assert abs(got - exact) <= 1e-8 * abs(exact)

        loose = QuadConfig(abs_tol=1e-9, rel_tol=1e-6)
        boundary_pts = [
            (1.0 + 0.0j, 0.0, 0.0j, 0.0),
            (-0.5 + 0.0j, 0.0, 0.75 + 0.0j, 0.4),
            (0.3 + 0.2j, 0.1, -0.4 - 0.1j, 0.35),
            (1.2 + 0.0j, -0.2, 0.1 + 0.3j, 0.3),
            (0.7 - 0.2j, 0.05, -0.3 + 0.4j, 0.2),
        ]
        for z, t, w, s in boundary_pts:
            p1, p2 = BoundaryPoint(z, t), BoundaryPoint(w, s)
            exact = szego_gaussian_closed(p1, p2).value
            got = szego_profile(g, p1, p2, loose).value
            assert abs(got - exact) <= 1e-4 * abs(exact)


def test_criterion_05_inverse_roundtrip():
    with _Budget(5, "inverse-roundtrip", 60.0):
        for z, w in ((0.0j, 0.0j), (1.0 + 0.0j, 1.0 + 0.0j)):
            exact = bergman_gaussian_closed(1.0, z, w).value
            got = bergman_roundtrip_extrapolated(1.0, z, w).value
            assert abs(got - exact) <= 1e-3 * abs(exact)


def test_criterion_06_sandwich_bounds():
    with _Budget(6, "sandwich-bounds", 30.0):
        cfg = QuadConfig()
        grid = np.linspace(-8.0, 8.0, 65)
        for alpha in (2.0, 4.0):
            rep = sandwich_bounds_check(profile_power(alpha), 1.0, 1.5, grid, cfg)
            assert rep.upper_bounded
            assert rep.lower_bounded
        rep = sandwich_bounds_check(profile_power(2.0), 1.0, 0.9, grid, cfg)
        assert not rep.upper_bounded


def test_criterion_07_de_bruijn_asymptotics():
    with _Budget(7, "de-bruijn-asymptotics", 30.0):
        cfg = QuadConfig()
        taus = (1.0, 10.0, 100.0)
        rep = laplace_asymptotic(gaussian(), 1.0, taus, cfg)
        assert np.all(np.abs(rep.ratios - 1.0) <= 1e-6)
        rep4 = laplace_asymptotic(profile_power(4.0), 1.0, taus, cfg)
        dev = np.abs(rep4.ratios - 1.0)
        assert dev[0] > dev[1] > dev[2]
        assert dev[2] <= 0.02


def test_criterion_08_lower_bound_gap():
    with _Budget(8, "maximizer-gap", 10.0):
        for alpha in (2.0, 3.0):
            spec = profile_power(alpha)
            g20 = min(shifted_maximizer_gap(spec, 1.0, 0.5, e)
                      for e in np.linspace(0.0, 20.0, 201))
            g40 = min(shifted_maximizer_gap(spec, 1.0, 0.5, e)
                      for e in np.linspace(0.0, 40.0, 401))
            assert math.isfinite(g20)
            assert abs(g40 - g20) < 0.01 * abs(g20)


def test_criterion_09_reproducing_property():
    with _Budget(9, "reproducing-property", 30.0):
        cfg = QuadConfig()
        assert reproducing_check(2.0, 1.0, 0, 0.5, cfg) <= 1e-6
        assert reproducing_check(2.0, 1.0, 2, 0.5 + 0.25j, cfg) <= 1e-6
        assert reproducing_check(4.0, 0.5, 1, 1.0, cfg) <= 1e-6


def test_criterion_10_duality():
    with _Budget(10, "duality-criterion", 30.0):
        assert duality_finiteness_criterion(1.0, 0.8, 2.0) is True
        assert duality_finiteness_criterion(1.0, 0.5, 2.0) is False
        assert duality_finiteness_criterion(1.0, 0.99, 2.0) is True
        cfg = QuadConfig()
        res = duality_marginal_integral(1.0, 0.8, 2.0, cfg)
        det = (2.0 * 2.0 - 1.0) * (2.0 * 0.8 - 1.0) - 1.0
        closed = (1.0 / (2.0 * PI)) ** 2 * 2.0 * PI / math.sqrt(det)
        assert res.value.real == pytest.approx(closed, rel=1e-6)
        with pytest.raises(TruncationError):
            duality_marginal_integral(1.0, 0.5, 2.0, cfg)


def test_criterion_11_invariant_suites():
    with _Budget(11, "invariant-suites", 60.0):
        rng = np.random.default_rng(20240817)
        cfg = QuadConfig()
        g = gaussian()

        # Hermitian symmetry of the radial kernel
        for _ in range(100):
            alpha = float(rng.choice([1.0, 2.0, 3.0]))
            tau = rng.uniform(0.3, 2.0)
            z = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            w = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
            kzw = bergman_radial_series(alpha, tau, z, w, cfg).value
            kwz = bergman_radial_series(alpha, tau, w, z, cfg).value
            assert abs(kzw - np.conj(kwz)) <= 1e-8 * (abs(kzw) + 1e-12)

        # scaling law K_tau(z, w) = tau^{2/alpha} K_1(tau^{1/alpha} z, ...)
        for _ in range(100):
            alpha = float(rng.choice([1.0, 2.0, 4.0]))
            tau = rng.uniform(0.4, 2.5)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            srt = tau ** (1.0 / alpha)
            lhs = bergman_radial_series(alpha, tau, z, w, cfg).value
            rhs = tau ** (2.0 / alpha) * bergman_radial_series(
                alpha, 1.0, srt * z, srt * w, cfg).value
            assert abs(lhs - rhs) <= 1e-7 * (abs(lhs) + 1e-12)

        # boundary kernel depends on times only through s - t
        for _ in range(100):
            alpha = float(rng.choice([1.0, 2.0, 3.0]))
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) + 1.5
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            t, s, c = rng.uniform(-2, 2, size=3)
            a = szego_radial_closed(alpha, BoundaryPoint(z, t), BoundaryPoint(w, s)).value
            b = szego_radial_closed(alpha, BoundaryPoint(z, t + c),
                                    BoundaryPoint(w, s + c)).value
            assert abs(a - b) <= 1e-10 * abs(a)

        # profile kernel depends on (z, w) through z + conj(w) only
        for _ in range(100):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            w = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = rng.uniform(-2.0, 2.0)
            a = bergman_profile(g, 1.0, z, w, cfg).value
            b = bergman_profile(g, 1.0, z + 1j * c, w + 1j * c, cfg).value
            assert abs(a - b) <= 1e-7 * abs(a)

        # log I(eta, tau) is convex in eta
        etas = np.linspace(-4.0, 4.0, 41)
        for _ in range(100):
            alpha = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            tau = rng.uniform(0.3, 3.0)
            logI, _ = _log_inner_batch(profile_power(alpha), tau, etas, 1e-9)
            second = logI[2:] - 2.0 * logI[1:-1] + logI[:-2]
            assert np.min(second) >= -1e-7

        # double conjugation recovers the weight
        for _ in range(100):
            alpha = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
            r = rng.uniform(0.0, 3.0)
            spec = profile_power(alpha)
            dual = profile_power(spec.conjugate_alpha)
            twice = young_conjugate_numeric(dual, r, 1e-9)
            direct = abs(r) ** alpha / alpha
            assert abs(twice - direct) <= 1e-6 * (1.0 + direct)
