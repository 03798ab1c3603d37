"""Kernels for weights depending on Re z, and their bounds and asymptotics.

For a profile weight p the Bergman kernel is the quadrature formula

    K_tau(z, w) = (tau / 2 pi) int_R exp(tau eta u) / I(eta, tau) deta,
    I(eta, tau) = int_R exp(2 tau (r eta - p(r))) dr,   u = z + conj w,

which `bergman_profile` evaluates for one tau by nested quadrature.
Integrating K_tau e^{-tau(p(z)+p(w))} e^{-i tau (s-t)} over tau gives the
boundary kernel.  The profiles p = |x|^a / a are homogeneous, and the
substitution x = tau^(1-1/a) eta reduces every tau to tau = 1:

    I(eta, tau) = tau^(-1/a) J(tau^(1-1/a) eta),   J = I(., 1),
    K_tau(u) = tau^(2/a) K_1(tau^(1/a) u).

So `szego_profile` evaluates its tau integrand for all tau nodes of a
quadrature step at once (`_kernel_tau_batch`): one table of log J on one
shared Gauss-Legendre rule in x, and one tau x x matrix product per rule
level, in place of a nested quadrature per node.  K_1 is entire, so the
tau integral may run along a ray tau = r omega in the complex plane; it
takes the ray between the real axis and the steepest-descent ray of the
integrand's rate e^{tau E} on which the terms of the x integral decay
fastest, and on it needs no damping, extrapolation or probing.  It
integrates in s = r^(1/a): the kernel factor becomes a s^(a+1) K_1(s
omega^(1/a) u), smooth at s = 0, where tau^(2/a) K_1(tau^(1/a) u) is only
algebraically smooth at tau = 0 for a != 2.

Every caller takes the inner integral I from one batched Gauss-Legendre
engine, `_log_inner_batch`.  I is the exponential of twice tau times a
smoothed conjugate of p; its growth is squeezed between scaled copies of
the Young conjugate p*, which is what `sandwich_bounds_check` verifies on
a grid, and for large tau it follows the classical Laplace-method asymptotic

    I(eta, tau) ~ (pi / (tau p''(mu(eta))))^{1/2} exp(2 tau p*(eta)),

exact for the Gaussian profile (`laplace_asymptotic` also reports the
ratio against the reciprocal prefactor orientation (tau p''/2 pi)^{1/2}
that circulates in print, which fails the Gaussian check).

For the Gaussian profile everything has closed forms, and the inverse
direction (recovering K_tau from the boundary kernel by a Plancherel-type
double integral) is realized with Gaussian dampers e^{-eps s^2} e^{-eps t^2}
plus an epsilon extrapolation; see `bergman_from_szego_gaussian`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .boundary import BoundaryPoint
from .errors import ConvergenceError, DomainError, NearSingular, SingularPoint, TruncationError
from .numerics import (
    DEFAULT_CONFIG,
    TWO_PI,
    EvalResult,
    QuadConfig,
    integrate_interval,
    integrate_real_line,
)
from .weights import (
    WeightSpec,
    conjugate_spec,
    eval_weight,
    inverse_derivative,
    profile_dp,
    profile_p,
    weight_derivatives,
    young_conjugate_closed,
    _require_profile,
)

# decay (in the shifted exponent) required before a quadrature window is cut
_EXP_CUTOFF = 45.0
_SIDES = np.array([-1.0, 1.0])
# the inner rule's retry at non-integer alpha: panels graded toward r = 0
# by this ratio, this many on each side
_GRADE_RATIO = 0.15
_GRADE_PANELS = 12


def _check_tau(tau):
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise DomainError("tau must be positive and finite")
    return tau


def _decay_length(a, tau):
    """Distance from 0 at which exp(-2 tau |x|^a / a) falls to exp(-_EXP_CUTOFF)."""
    return (_EXP_CUTOFF * a / (2.0 * tau)) ** (1.0 / a)


@lru_cache(maxsize=16)
def _leggauss(n):
    return np.polynomial.legendre.leggauss(n)


def _fit_window(decayed, L):
    """Half-widths L grown by 1.4 where decayed(L) fails, then halved while
    decayed(L / 2) holds; concave exponents make end decay bound the tails."""
    for _ in range(200):
        ok = decayed(L)
        if ok.all():
            break
        L = np.where(ok, L, 1.4 * L)
    else:
        raise ConvergenceError("quadrature window failed to close")
    for _ in range(80):
        half = 0.5 * L
        wide = decayed(half)
        if not wide.any():
            break
        L = np.where(wide, half, L)
    return L


def _log_inner_batch(spec: WeightSpec, tau: float, etas, rtol=1e-11):
    """log I(eta, tau) for an array of eta, on one shared Gauss rule.

    The exponent 2 tau (r eta - p(r)) is concave in r with peak value
    2 tau p*(eta) at r = c = sign(eta) mu(eta); shifted by the peak it is
    -2 tau D(r, c), D the Bregman divergence of p.  Rows whose terms
    2 tau |eta c| round by more than rtol / 100 are far: they run in the
    offset r - c with D from `_bregman`, so a narrow peak at a huge c keeps
    its nodes; the others run in r.  Each window [c - L, c + L] is fitted
    until the exponent at both ends is below -45 and split at r = 0, where
    |r|^a is not smooth.  The order grows until two levels agree to rtol
    in the log of the shifted sum; at non-integer alpha a batch unsettled
    at the top order is retried once on panels graded toward r = 0.
    DomainError: |eta|^alpha' or 2 tau |eta|^alpha' passes 1e300.
    """
    etas = np.asarray(etas, dtype=float).ravel()
    a = spec.alpha
    ap = a / (a - 1.0)
    abs_eta = np.abs(etas)
    e_max = float(abs_eta.max(initial=0.0))
    if not (e_max <= 1.0 or ap * math.log(e_max) + math.log(max(1.0, 2.0 * tau)) < 690.0):
        raise DomainError("log I(eta, tau) overflows the float range")
    mu = abs_eta ** (1.0 / (a - 1.0))
    c = np.sign(etas) * mu
    peak = 2.0 * tau * abs_eta ** ap / ap
    L = np.full_like(etas, mu.max(initial=0.0) + _decay_length(a, tau) + 1.0)
    far, origin, center = None, 0.0, c
    if 2.0 * tau * e_max ** ap * math.ulp(1.0) > 0.01 * rtol:
        far = peak * (ap * math.ulp(1.0)) > 0.01 * rtol
        origin = np.where(far, c, 0.0)
        center = c - origin
        # far rows start at ~10 peak widths (2 tau p''(mu))^(-1/2)
        L[far] = 10.0 * mu[far] ** (1.0 - 0.5 * a) / math.sqrt(2.0 * tau * (a - 1.0))

    def exponent(x):  # the shifted exponent at x = r - origin, a row per eta
        e = 2.0 * tau * (x * etas[:, None] - profile_p(spec, x)) - peak[:, None]
        if far is not None:
            e[far] = -2.0 * tau * _bregman(spec, x[far], c[far, None])
        return e

    def decayed(L):
        e = exponent(center[:, None] + L[:, None] * _SIDES)
        return np.maximum(e[:, 0], e[:, 1]) <= -_EXP_CUTOFF

    L = _fit_window(decayed, L)
    lo, hi = center - L, center + L
    mid = np.clip(-origin, lo, hi)

    def rule(edges):
        n_evals = 0
        prev = None
        for n in (64, 96, 144, 216, 324, 486, 729):
            x, wq = _leggauss(n)
            vals = np.zeros_like(etas)
            for lft, rgt in zip(edges[:-1], edges[1:]):
                half = 0.5 * (rgt - lft)
                R = 0.5 * (lft + rgt)[:, None] + half[:, None] * x[None, :]
                vals = vals + (np.exp(exponent(R)) @ wq) * half
                n_evals += R.size
            log_vals = np.log(vals)
            if prev is not None and np.max(np.abs(log_vals - prev)) <= rtol:
                return peak + log_vals, n_evals
            prev = log_vals
        return None, n_evals

    log_i, n_evals = rule([lo, mid, hi])
    if log_i is None and not a.is_integer():
        g = _GRADE_RATIO ** np.arange(_GRADE_PANELS + 1)
        edges = np.hstack([mid[:, None] - np.multiply.outer(mid - lo, g), mid[:, None],
                           mid[:, None] + np.multiply.outer(hi - mid, g[::-1])])
        log_i, more = rule(list(edges.T))
        n_evals += more
    if log_i is None:
        raise ConvergenceError("inner-integral rule did not stabilise")
    return log_i, n_evals


def _bregman(spec, d, c):
    """D(c + d, c) = p(c + d) - p(c) - p'(c) d >= 0 for p = |x|^a / a, c != 0.

    Its terms are ~|c|^a while D ~ |c|^(a-2) d^2, so for |t| < 1/4, t = d/c,
    D is summed as the binomial series |c|^a / a sum_{k>=2} binom(a, k) t^k
    of (1 + t)^a - 1 - a t, which cancels nothing; past k = a its terms
    shrink by 4 per step, and the 30 kept past it leave 4^-30 of the largest.
    """
    a = spec.alpha
    coef = [0.5 * a * (a - 1.0)]
    for k in range(2, 30 + int(a)):
        coef.append(coef[-1] * (a - k) / (k + 1))
    near = np.abs(d) < 0.25 * np.abs(c)
    t = np.where(near, d, 0.0) / c
    series = profile_p(spec, c) * t * t * np.polynomial.polynomial.polyval(t, coef)
    direct = profile_p(spec, c + d) - profile_p(spec, c) - profile_dp(spec, c) * d
    return np.where(near, series, direct)


def _log_inner(spec, tau, eta, cfg):
    """(log I(eta, tau), rtol, n_evals) at `bergman_profile`'s inner rtol."""
    _require_profile(spec)
    rtol = max(1e-13, 0.05 * cfg.rel_tol)
    log_i, n_evals = _log_inner_batch(spec, _check_tau(tau), [float(eta)], rtol)
    return float(log_i[0]), rtol, n_evals


def inner_integral(spec: WeightSpec, tau, eta, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """I(eta, tau) = int_R exp(2 tau (r eta - p(r))) dr > 0.

    One row of `_log_inner_batch` at rtol = max(1e-13, 0.05 rel_tol); the
    estimate is I (rtol + 32 ulps of log I), the last for its peak term.
    """
    log_i, rtol, n_evals = _log_inner(spec, tau, eta, cfg)
    try:
        value = math.exp(log_i)
    except OverflowError:
        raise DomainError("I(eta, tau) overflows the float range: log I = %.6g" % log_i) from None
    err = value * (rtol + 32.0 * math.ulp(1.0) * abs(log_i))
    return EvalResult(value, err, "gauss-legendre-batch", n_evals)


def effective_conjugate(spec: WeightSpec, tau, eta, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """The tau-smoothed conjugate: log I(eta, tau) / (2 tau).

    Squeezed between p*(eta/lam) and p*(lam eta) up to constants for any
    lam > 1, and converging to p*(eta) as tau grows.  log I is one row of
    `_log_inner_batch` at rtol = max(1e-13, 0.05 rel_tol).
    """
    return _log_inner(spec, tau, eta, cfg)[0] / (2.0 * tau)


def bergman_profile(spec: WeightSpec, tau, z, w, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Bergman kernel by nested quadrature; depends on (z, w) through z + conj w.

    The outer integrand exp(tau eta u) / I(eta, tau) is evaluated against
    the batched inner rule; its magnitude is normalised so the peak (at
    eta* = p'(Re u / 2)) sits at 1, making the window search safe.
    """
    _require_profile(spec)
    tau = _check_tau(tau)
    u = complex(z) + complex(w).conjugate()
    if not cmath.isfinite(u):
        raise DomainError("bergman_profile requires finite z and w")
    ux = u.real
    eta_star = float(profile_dp(spec, ux / 2.0))
    inner_rtol = max(1e-13, 0.05 * cfg.rel_tol)

    log_star, n0 = _log_inner_batch(spec, tau, [eta_star], inner_rtol)
    shift = tau * eta_star * ux - float(log_star[0])
    counter = {"n": n0}

    def outer(etas):
        logI, ne = _log_inner_batch(spec, tau, etas, inner_rtol)
        counter["n"] += ne
        return np.exp(tau * np.asarray(etas) * u - logI - shift)

    try:
        res = integrate_real_line(outer, cfg, center=eta_star,
                                  initial_halfwidth=max(1.0, 2.0 * abs(eta_star)))
    except TruncationError as exc:
        raise ConvergenceError(
            "outer integrand failed to decay; parameters outside the "
            "kernel's domain (%s)" % exc)
    scale = (tau / TWO_PI) * math.exp(shift)
    err = scale * (res.abs_err_estimate + inner_rtol * abs(res.value))
    return EvalResult(scale * res.value, err, "profile-quadrature",
                      counter["n"] + res.n_evals)


# Gauss-Legendre orders of the batched kernel's shared x rule, and the
# most tau one rule serves: larger batches are split, which bounds the
# tau x x matrices (4 MB at the top order) and the inner call at x*.  The
# size is a multiple of the 15 nodes of a GK15 panel, so no panel of the
# tau quadrature mixes two rules.
_X_ORDERS = (32, 64, 128, 256, 512, 1024)
_TAU_CHUNK = 240
# `szego_profile`'s ray: the angles it tries, and the GK15 panels seeding
# it, evenly spaced in r
_RAY_ANGLES = 33
_RAY_SEEDS = 8


def _kernel_tau_batch(spec: WeightSpec, taus, u, log_factor, rtol):
    """K_tau(u) exp(log_factor) for a vector of real or complex tau, on one
    shared x rule.

    For p = |x|^a / a the kernel is homogeneous, K_tau(u) = tau^(2/a)
    K_1(tau^(1/a) u), so with v = tau^(1/a) u and J = I(., 1)

        K_tau(u) = tau^(2/a) / (2 pi) int_R exp(x v - log J(x)) dx,

    and every tau shares one table of log J on one Gauss-Legendre rule.
    Row k is shifted by its peak x* Re v - log J(x*), x* = p'(Re v / 2),
    and the shift is folded into log_factor before the final exponential,
    so no row overflows.  The x window is fitted to every row at once from
    the decay length of exp(-2 p*(x)) (`_fit_window`); the rule order is
    doubled until every row agrees with the previous level to rtol times
    its L1 norm sum |e^expo| w, and the finer level is returned: each term
    carries the inner rule's relative error rtol, and where a complex v
    makes the terms oscillate and cancel, their errors do not cancel with
    them.  n_evals counts the inner evaluations plus the tau x x cells.
    """
    taus = np.asarray(taus)
    if taus.size > _TAU_CHUNK:
        parts = [_kernel_tau_batch(spec, taus[i:i + _TAU_CHUNK], u,
                                   log_factor[i:i + _TAU_CHUNK], rtol)
                 for i in range(0, taus.size, _TAU_CHUNK)]
        return np.concatenate([p[0] for p in parts]), sum(p[1] for p in parts)
    a = spec.alpha
    v = taus ** (1.0 / a) * u
    vr = v.real
    x_star = profile_dp(spec, 0.5 * vr)
    log_star, n_evals = _log_inner_batch(spec, 1.0, x_star, rtol)
    peak = x_star * vr - log_star

    ends = np.array([x_star.min(), x_star.max()])

    def decayed(L):
        nonlocal n_evals
        xs = ends + _SIDES * L
        log_j, ne = _log_inner_batch(spec, 1.0, xs, rtol)
        n_evals += ne
        expo = np.multiply.outer(vr, xs) - log_j - peak[:, None]
        return np.all(expo <= -_EXP_CUTOFF, axis=0)

    L = _fit_window(decayed, np.full(2, _decay_length(spec.conjugate_alpha, 1.0) + 1.0))
    lo, hi = ends[0] - L[0], ends[1] + L[1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    prev = None
    for n in _X_ORDERS:
        x, wq = _leggauss(n)
        xs = mid + half * x
        log_j, ne = _log_inner_batch(spec, 1.0, xs, rtol)
        n_evals += ne + taus.size * n
        expo = np.multiply.outer(v, xs)
        expo -= log_j
        expo -= peak[:, None]
        terms = np.exp(expo, out=expo)
        vals = (terms @ wq) * half
        l1 = (np.abs(terms) @ wq) * half
        if prev is not None and np.all(np.abs(vals - prev) <= rtol * l1):
            log_scale = peak + log_factor + (2.0 / a) * np.log(taus) - math.log(TWO_PI)
            return np.exp(log_scale) * vals, n_evals
        prev = vals
    raise ConvergenceError("tau-batched kernel rule did not stabilise")


def bergman_gaussian_closed(tau, z, w) -> complex:
    """(tau / 2 pi) exp((tau/4)(z + conj w)^2), the Gaussian-profile kernel."""
    tau = _check_tau(tau)
    u = complex(z) + complex(w).conjugate()
    if not cmath.isfinite(u):
        raise DomainError("bergman_gaussian_closed requires finite z and w")
    with np.errstate(over="ignore", invalid="ignore"):
        value = (tau / TWO_PI) * np.exp(0.25 * tau * u * u)
    if not cmath.isfinite(value):
        raise DomainError("the Gaussian kernel overflows the float range: "
                          "Re log K = %.6g" % (math.log(tau / TWO_PI) + (0.25 * tau * u * u).real))
    return value


def _gaussian_boundary_expression(p1: BoundaryPoint, p2: BoundaryPoint) -> complex:
    z, w = p1.z, p2.z
    return (0.25 * (z + w.conjugate()) ** 2
            - 0.125 * (z + z.conjugate()) ** 2
            - 0.125 * (w + w.conjugate()) ** 2
            - 1j * (p2.t - p1.t))


def szego_gaussian_closed(p1: BoundaryPoint, p2: BoundaryPoint) -> complex:
    """Closed Gaussian boundary kernel (1/2 pi) E^{-2}; SingularPoint if E = 0."""
    expr = _gaussian_boundary_expression(p1, p2)
    scale = 1.0 + abs(p1.z) ** 2 + abs(p2.z) ** 2 + abs(p2.t - p1.t)
    if abs(expr) < 1e-12 * scale:
        raise SingularPoint("boundary diagonal: defining expression vanishes")
    return (1.0 / TWO_PI) * expr ** -2


def _extrapolate_to_zero(xs, ys, powers):
    A = np.array([[x ** p for p in powers] for x in xs], dtype=float)
    coef = np.linalg.solve(A, np.asarray(ys, dtype=complex))
    return coef[0]


def szego_profile(spec: WeightSpec, p1: BoundaryPoint, p2: BoundaryPoint,
                  cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Boundary kernel as the tau integral of the batched profile kernel,
    taken along a ray in the complex tau plane.

    The tau integrand is K_tau(z, w) e^{-tau R}, R = p(z) + p(w) + i(s-t).
    Each call of it takes every tau node of a quadrature step at once:
    through the homogeneity K_tau(u) = tau^(2/a) K_1(tau^(1/a) u) all
    nodes share one table of log I(., 1) and one matrix product per rule
    level (`_kernel_tau_batch`), so no node runs a quadrature of its own.
    The integrand grows like e^{tau E}, E = 2 (u/2)^a / a - R, u = z +
    conj w taken with Re u >= 0, and K_1 is entire, so the contour may
    turn onto any ray tau = r omega between the real axis and the
    steepest-descent ray omega = -|E| / E, on which tau E = -r |E| is real
    and the integrand stops oscillating, also at z = w, s != t, where it
    does not decay on the real axis.  The x integral of K_1 cancels where
    Im v is large, so the ray taken is the one whose L1 envelope
    exp(r (2 p(Re(omega^(1/a) u) / 2) - Re(omega R))) decays fastest.
    With no decaying envelope the configuration is at or near the boundary
    diagonal, and NearSingular is raised.  The ray is cut where that
    envelope has fallen well below the absolute tolerance: it bounds the
    integrand, since |K_1(v)| <= K_1(Re v), where e^{tau E} is the rate
    only while the saddle of the x integral governs it (for a > 2 and
    nearly imaginary u, Re E can be positive on a bounded integrand).  The
    ray is integrated in s = r^(1/a), where the integrand is smooth at 0,
    on GK15 panels seeded evenly in r.
    The error estimate adds the inner relative tolerance times |S| to the
    tau quadrature's own estimate.
    """
    _require_profile(spec)
    z, w = p1.z, p2.z
    a = spec.alpha
    rate = eval_weight(spec, z) + eval_weight(spec, w) + 1j * (p2.t - p1.t)
    u = z + w.conjugate()
    growth = 2.0 * (0.5 * (u if u.real >= 0.0 else -u)) ** a / a - rate
    omegas = np.exp(1j * np.linspace(0.0, cmath.phase(-growth.conjugate()), _RAY_ANGLES))
    envelope = 2.0 * profile_p(spec, 0.5 * (omegas ** (1.0 / a) * u).real) - (omegas * rate).real
    k = int(np.argmin(envelope))
    if -envelope[k] < 1e-8 * (1.0 + abs(rate)):
        raise NearSingular("the tau integrand decays on no ray: at or near "
                           "the boundary diagonal")
    omega = omegas[k]
    inner_rel_tol = max(min(cfg.rel_tol * 0.1, 1e-6), 1e-12)
    rtol = max(1e-13, 0.05 * inner_rel_tol)
    n_evals = 0

    def g(s):  # the integrand at tau = s^a omega, times dtau / (omega ds)
        nonlocal n_evals
        taus = s ** a * omega
        vals, n = _kernel_tau_batch(spec, taus, u, math.log(a) + (a - 1.0) * np.log(s)
                                    - taus * rate, rtol)
        n_evals += n
        return vals

    floor = max(cfg.abs_tol * 1e-2, 1e-300)
    decay = -envelope[k]
    r_max = (1.3 * math.log(1.0 / floor) + (1.0 + 2.0 / a) * math.log(1.0 + 1.0 / decay)
             + 10.0) / decay
    edges = np.linspace(0.0, r_max, _RAY_SEEDS + 1)[1:-1] ** (1.0 / a)
    res = integrate_interval(g, 0.0, r_max ** (1.0 / a), cfg, breakpoints=edges)
    err = res.abs_err_estimate + inner_rel_tol * abs(res.value)
    return EvalResult(omega * res.value, err, "triple-quadrature", n_evals + res.n_evals)


@dataclass(frozen=True)
class BoundsReport:
    """Grid evidence for the conjugate sandwich around log I.

    upper_log_gap = log I(eta) - 2 tau p*(lam eta) must stay bounded above,
    lower_log_gap = log I(eta) - 2 tau p*(eta/lam) bounded below, for
    lam > 1.  Boundedness is judged by the end-decile trend of each gap:
    no end may drift upward (upper) or downward (lower).  The dual gaps
    run the same test with p and p* exchanged.
    """

    lam: float
    tau: float
    eta_grid: np.ndarray
    upper_log_gap: np.ndarray
    lower_log_gap: np.ndarray
    upper_bounded: bool
    lower_bounded: bool
    dual_upper_log_gap: np.ndarray
    dual_lower_log_gap: np.ndarray


_SLOPE_TOL = 1e-3


def _end_slopes(xs, gap):
    """Gap trend d(gap)/d|x| at each tail end of the grid."""
    order = np.argsort(xs)
    xs = xs[order]
    gap = gap[order]
    n10 = max(3, len(xs) // 10)
    slopes = []
    if abs(xs[-1]) >= 0.5 * np.max(np.abs(xs)):
        slopes.append(np.polyfit(xs[-n10:], gap[-n10:], 1)[0])
    if abs(xs[0]) >= 0.5 * np.max(np.abs(xs)):
        slopes.append(-np.polyfit(xs[:n10], gap[:n10], 1)[0])
    return slopes


def _gap_flags(xs, upper_gap, lower_gap):
    up_ok = all(s <= _SLOPE_TOL for s in _end_slopes(xs, upper_gap))
    lo_ok = all(s >= -_SLOPE_TOL for s in _end_slopes(xs, lower_gap))
    return up_ok, lo_ok


def sandwich_bounds_check(spec: WeightSpec, tau, lam, eta_grid,
                          cfg: QuadConfig = DEFAULT_CONFIG) -> BoundsReport:
    """Check the two-sided conjugate squeeze of log I on a grid.

    Also runs the dual check with p and p* exchanged (the conjugate weight
    family), and requires both to pass; lam > 1 is the regime in which the
    bounds hold -- passing lam < 1 is the designed failure probe.
    """
    _require_profile(spec)
    tau = _check_tau(tau)
    lam = float(lam)
    if lam <= 0.0:
        raise DomainError("lam must be positive")
    etas = np.asarray(eta_grid, dtype=float)
    rtol = max(1e-8, 0.01 * cfg.rel_tol)  # gap slopes are judged at 1e-3

    def gaps(s: WeightSpec):
        logI, _ = _log_inner_batch(s, tau, etas, rtol)
        d = conjugate_spec(s)
        up = logI - 2.0 * tau * profile_p(d, lam * etas)
        lo = logI - 2.0 * tau * profile_p(d, etas / lam)
        return up, lo

    up, lo = gaps(spec)
    d_up, d_lo = gaps(conjugate_spec(spec))
    up_ok, lo_ok = _gap_flags(etas, up, lo)
    dup_ok, dlo_ok = _gap_flags(etas, d_up, d_lo)
    return BoundsReport(lam, tau, etas, up, lo,
                        up_ok and dup_ok, lo_ok and dlo_ok, d_up, d_lo)


@dataclass(frozen=True)
class AsymptoticsReport:
    """Ratios of I(eta, tau) to its large-tau Laplace prediction."""

    tau_grid: np.ndarray
    ratios: np.ndarray
    converged: bool
    printed_prefactor_ratios: np.ndarray
    final_tol: float


def laplace_asymptotic(spec: WeightSpec, eta, tau_grid,
                       cfg: QuadConfig = DEFAULT_CONFIG,
                       final_tol: float = 0.02) -> AsymptoticsReport:
    """Ratio of I(eta, tau) to (pi/(tau p''(mu)))^{1/2} exp(2 tau p*(eta)).

    Exact for the Gaussian profile; ratios approach 1 like 1/tau otherwise.
    The reciprocal prefactor orientation (tau p''/2 pi)^{1/2}, which also
    circulates, is evaluated alongside for reference -- it grows like tau
    against the true value and is reported, not asserted.
    """
    _require_profile(spec)
    eta = float(eta)
    mu = inverse_derivative(spec, eta)
    _, p2d = weight_derivatives(spec, mu)
    if p2d <= 0.0:
        raise DomainError("degenerate maximizer: p'' vanishes at mu(eta)")
    pstar = young_conjugate_closed(spec, eta)
    taus = np.asarray(tau_grid, dtype=float)
    rtol = max(1e-9, 0.01 * cfg.rel_tol)
    ratios = []
    printed = []
    for tau in taus:
        tau = _check_tau(tau)
        logI = float(_log_inner_batch(spec, tau, [eta], rtol)[0][0])
        log_pred = 0.5 * (math.log(math.pi) - math.log(tau) - math.log(p2d)) \
            + 2.0 * tau * pstar
        ratios.append(math.exp(logI - log_pred))
        log_printed = 0.5 * (math.log(tau) + math.log(p2d) - math.log(TWO_PI)) \
            + 2.0 * tau * pstar
        printed.append(math.exp(logI - log_printed))
    ratios = np.array(ratios)
    dev = np.abs(ratios - 1.0)
    monotone = bool(np.all(dev[1:] <= dev[:-1] * 1.05 + 1e-12))
    converged = monotone and bool(dev[-1] <= final_tol)
    return AsymptoticsReport(taus, ratios, converged, np.array(printed), final_tol)


# Plancherel-type inverse: fixed interior/causal regularisation scales.
# The interior shift keeps the boundary kernel's double pole off the
# integration plane; the causal shift keeps 1/(p(w) - i s) off the contour
# when p(w) = 0.  Both are far below every tolerance in use.
_INTERIOR_SHIFT = 1e-6
_CAUSAL_SHIFT = 1e-6
_PLANCHEREL_NORM = 2.0 * math.pi ** 2


def _causal_deficit_slope(tau, a, base):
    """Leading sqrt(eps) coefficient of the damped double integral.

    Damping 1/(a - i s) with e^{-eps s^2} against the kernel pole at
    v* = -i(base) leaves a relative deficit c1 sqrt(eps) + O(eps) with
    c1 = -(2 sqrt 2/sqrt pi)(a - 1/(2 tau) - base/2); dividing it out
    leaves a plain {eps, eps^{3/2}} series for the extrapolation.
    """
    return -(2.0 * math.sqrt(2.0) / math.sqrt(math.pi)) * (a - 0.5 / tau - 0.5 * base)


def _gk_composite(edges):
    """GK15 nodes and weights for a fixed composite rule over given edges."""
    from .numerics import _WK, _XK  # shared tables

    edges = np.asarray(edges, dtype=float)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * _XK[None, :]).ravel()
    weights = (halfs[:, None] * _WK[None, :]).ravel()
    return nodes, weights


def _difference_rule_edges(delta, inner_stop, V, coarse):
    """Panel edges on [-V, V]: geometric refinement toward 0 at pole scale
    delta, uniform panels of width `coarse` elsewhere."""
    geo = []
    h = max(delta / 4.0, 1e-12)
    while h < inner_stop:
        geo.append(h)
        h *= 3.0
    pos = sorted(set(geo) | set(np.arange(inner_stop, V, coarse)) | {V})
    return [-p for p in reversed(pos)] + [0.0] + list(pos)


def bergman_from_szego_gaussian(tau, z, w, epsilon,
                                cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """One damped evaluation of the inverse double integral (Gaussian only).

    Computes e^{tau(p(z)+p(w))} iint S((z,t),(w,s)) e^{i tau(s-t)}
    / (p(w) - i s) ds dt with the integrand damped by e^{-eps s^2} e^{-eps t^2},
    the boundary kernel pushed an interior shift inside the domain, and the
    causal factor shifted off the contour.  In the difference variable
    v = s - t the kernel factor is s-independent, so the t-direction uses
    one fixed composite rule (validated by global refinement) and the
    s-direction is adaptive.  The result is normalised by the Plancherel
    constant 2 pi^2 and by the analytically known leading damping deficit,
    so values extrapolate to the closed kernel along eps -> 0 (see
    `bergman_roundtrip_extrapolated`).
    """
    tau = _check_tau(tau)
    eps = float(epsilon)
    if eps <= 0.0:
        raise DomainError("epsilon must be positive")
    z = complex(z)
    w = complex(w)
    pz = z.real ** 2 / 2.0
    pw = w.real ** 2 / 2.0
    base = _gaussian_boundary_expression(BoundaryPoint(z, 0.0), BoundaryPoint(w, 0.0))
    delta = _INTERIOR_SHIFT
    a = pw + _CAUSAL_SHIFT
    L = math.sqrt(_EXP_CUTOFF / eps)
    V = 2.0 * L + 2.0

    def kernel_profile(v):
        return (base - delta - 1j * v) ** -2 * np.exp(1j * tau * v)

    def build(coarse):
        edges = _difference_rule_edges(delta, 2.0, V, coarse)
        nodes, wts = _gk_composite(edges)
        return nodes, kernel_profile(nodes) * wts

    def inner_batch(svec, rule):
        nodes, pw_ = rule
        damp = np.exp(-eps * (np.asarray(svec)[:, None] - nodes[None, :]) ** 2)
        return damp @ pw_

    rule = build(0.5)
    check = build(0.25)
    probe = np.array([0.0, 0.3 * L, -0.7 * L])
    coarse_vals = inner_batch(probe, rule)
    fine_vals = inner_batch(probe, check)
    rule_err = float(np.max(np.abs(coarse_vals - fine_vals)))
    n_evals = probe.size * (rule[0].size + check[0].size)
    rule = check  # keep the finer rule

    def outer(svec):
        svec = np.atleast_1d(np.asarray(svec, dtype=float))
        inner_vals = inner_batch(svec, rule)
        return inner_vals * np.exp(-eps * svec * svec) / (a - 1j * svec)

    scale0 = max(a, delta)
    obp = sorted({sgn * scale0 * 10.0 ** j for sgn in (-1.0, 1.0) for j in range(8)}
                 | {0.0, -1.0, 1.0})
    outer_cfg = replace(cfg, abs_tol=1e-9, rel_tol=1e-9,
                        max_subdivisions=max(cfg.max_subdivisions, 4000))
    res = integrate_interval(outer, -L, L, outer_cfg,
                             breakpoints=[p for p in obp if -L < p < L])
    n_evals += res.n_evals * rule[0].size

    pref = math.exp(tau * (pz + pw)) / TWO_PI / _PLANCHEREL_NORM
    c1 = _causal_deficit_slope(tau, a, base - delta)
    correction = 1.0 + c1 * math.sqrt(eps)
    value = pref * res.value / correction
    err = pref * (res.abs_err_estimate + math.pi * rule_err) / abs(correction)
    return EvalResult(value, err, "plancherel-damped", n_evals)


def bergman_roundtrip_extrapolated(tau, z, w, cfg: QuadConfig = DEFAULT_CONFIG,
                                   eps_sequence=(0.1, 0.05, 0.025)) -> EvalResult:
    """Extrapolate the damped inverse evaluations to eps = 0.

    After the deficit normalisation in `bergman_from_szego_gaussian`, the
    eps expansion is {1, eps, eps^{3/2}}; three evaluations pin the limit.
    The error estimate combines the last extrapolation correction with the
    propagated quadrature errors.
    """
    eps = tuple(float(e) for e in eps_sequence)
    if len(eps) < 3:
        raise DomainError("need at least three epsilon values")
    results = [bergman_from_szego_gaussian(tau, z, w, e, cfg) for e in eps]
    vals = [r.value for r in results]
    limit = _extrapolate_to_zero(eps[-3:], vals[-3:], (0.0, 1.0, 1.5))
    pair = _extrapolate_to_zero(eps[-2:], vals[-2:], (0.0, 1.0))
    err = 0.5 * abs(limit - pair) + 8.0 * max(r.abs_err_estimate for r in results)
    n = sum(r.n_evals for r in results)
    return EvalResult(limit, err, "plancherel-extrapolated", n)


def duality_finiteness_criterion(tau, tau0, tau1) -> bool:
    """Negative-definiteness of (tau/2)(x+u)^2 - tau1 x^2 - tau0 u^2.

    Decides finiteness of the (x, u)-marginal of the squared-kernel double
    integral with weights e^{-2 tau1 p(z) - 2 tau0 p(w)} in the Gaussian
    case: true iff tau1 > tau/2 and (tau1 - tau/2)(tau0 - tau/2) > (tau/2)^2.
    """
    tau = float(tau)
    tau0 = float(tau0)
    tau1 = float(tau1)
    if not (0.0 < tau0 < tau < tau1):
        raise DomainError("require 0 < tau0 < tau < tau1")
    h = 0.5 * tau
    return tau1 > h and (tau1 - h) * (tau0 - h) > h * h


def duality_marginal_integral(tau, tau0, tau1,
                              cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Numeric (x, u)-marginal (tau/2 pi)^2 iint e^{Q(x,u)} dx du.

    Q(x, u) = (tau/2)(x+u)^2 - tau1 x^2 - tau0 u^2.  When the quadratic
    form fails to be negative definite the outer window doubling finds no
    decay and TruncationError propagates; that divergence is the point of
    the probe.
    """
    tau = float(tau)
    tau0 = float(tau0)
    tau1 = float(tau1)
    if not (0.0 < tau0 < tau < tau1):
        raise DomainError("require 0 < tau0 < tau < tau1")
    counter = {"n": 0}

    def h(uvec):
        out = np.empty(np.shape(uvec), dtype=float)
        flat = np.atleast_1d(uvec).ravel()
        res_flat = np.empty(flat.shape, dtype=float)
        for i, u in enumerate(flat):
            x_star = tau * u / (2.0 * (tau1 - 0.5 * tau))
            qmax = (0.5 * tau * (x_star + u) ** 2 - tau1 * x_star ** 2
                    - tau0 * u * u)

            def f(x, _u=u, _q=qmax):
                return np.exp(0.5 * tau * (x + _u) ** 2 - tau1 * x * x
                              - tau0 * _u * _u - _q)

            r = integrate_real_line(f, cfg, center=x_star,
                                    initial_halfwidth=max(1.0, 2.0 * abs(x_star)))
            counter["n"] += r.n_evals
            try:
                res_flat[i] = math.exp(qmax) * r.value.real
            except OverflowError:
                res_flat[i] = math.inf
        out.flat = res_flat
        return out

    res = integrate_real_line(h, cfg)
    scale = (tau / TWO_PI) ** 2
    return EvalResult(scale * res.value, scale * res.abs_err_estimate,
                      "marginal-nested", counter["n"] + res.n_evals)


def shifted_maximizer_gap(spec: WeightSpec, tau, lam, eta) -> float:
    """2 tau [eta (mu(eta)+1) - p(mu(eta)+1) - p*(lam eta)] for 0 < lam < 1.

    Bounded below in eta >= 0; the grid minimum stabilises as the grid is
    extended, which is what the lower-bound test asserts.
    """
    _require_profile(spec)
    tau = _check_tau(tau)
    eta = float(eta)
    mu = inverse_derivative(spec, eta)
    x = mu + 1.0
    return 2.0 * tau * (eta * x - float(profile_p(spec, x))
                        - young_conjugate_closed(spec, lam * eta))
