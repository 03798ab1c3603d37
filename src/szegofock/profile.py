"""Kernels for weights depending on Re z, and their bounds and asymptotics.

For a profile weight p the Bergman kernel is the quadrature formula

    K_tau(z, w) = (tau / 2 pi) int_R exp(tau eta u) / I(eta, tau) deta,
    I(eta, tau) = int_R exp(2 tau (r eta - p(r))) dr,   u = z + conj w.

Integrating K_tau e^{-tau(p(z)+p(w))} e^{-i tau (s-t)} over tau gives the
boundary kernel.  The profiles p = |x|^a / a are homogeneous, and the
substitution x = tau^(1-1/a) eta reduces every tau to tau = 1:

    I(eta, tau) = tau^(-1/a) J(tau^(1-1/a) eta),   J = I(., 1),
    K_tau(u) = tau^(2/a) K_1(tau^(1/a) u).

So one engine, `_kernel_tau_batch`, serves both kernels: for a vector of
tau it keeps one table of log J on one shared, nested trapezoid rule in x.
Its window and each row's shift, cut from a closed-form floor of log J
(`_log_inner_floor`), depend on alpha and Re v alone: they are read from a
per-alpha table (`_x_window_table`), and the window's ends are checked on
the log J fetched there.  The window is snapped onto the lattice h0 Z of
its level-0 step, so log J, even as p is, is computed once per |x|; its
levels start, one direct sum, at the level the poles of 1/J allow.
It and `_log_inner_batch` settle their rows under one policy,
`_settle_rows`, on windows cut by `_cut_table`.
`bergman_profile` is one row; `szego_profile` takes all tau nodes of a
step at once, each batch on a window fitted to its own rows.
K_1 is entire, so the tau integral may run along a ray tau = r omega in
the complex plane; it takes the ray between the real axis and the
steepest-descent ray of the integrand's rate e^{tau E} on which the terms
of the x integral decay fastest, and on it needs no damping,
extrapolation or probing.  It integrates in s = r^(1/a): the kernel
factor becomes a s^(a+1) K_1(s omega^(1/a) u), smooth at s = 0, where
tau^(2/a) K_1(tau^(1/a) u) is only algebraically smooth at tau = 0 for
a != 2.

Every caller takes the inner integral I from one batched engine,
`_log_inner_batch`, which computes log J alone, at x = tau^(1-1/a) eta: a
nested trapezoid rule at even alpha up to _WALL_ALPHA, where the exponent
is entire, and Gauss-Legendre panels split at r = 0 otherwise, run in y,
r = -+y^2, below alpha 2 and cut about the walls at |r| = 1 above
_WALL_ALPHA; DomainError where the term 2 |x|^alpha' it forms passes e^700.
I is the exponential of twice tau times a smoothed conjugate of p; its
growth is squeezed between scaled copies of the Young conjugate p*, which
`sandwich_bounds_check` verifies on a grid, and for large tau it follows
the classical Laplace-method asymptotic

    I(eta, tau) ~ (pi / (tau p''(mu(eta))))^{1/2} exp(2 tau p*(eta)),

exact for the Gaussian profile (`laplace_asymptotic` also reports the
ratio against the reciprocal prefactor orientation (tau p''/2 pi)^{1/2}
that circulates in print, which fails the Gaussian check).

The Gaussian is the profile a = 2.  Its kernels are closed, K_tau = (tau /
2 pi) e^{tau u^2 / 4} and S = (1 / 2 pi) E^-2, E = u^2 / 4 - R with the
rate R = p(z) + p(w) + i(s-t) of `boundary.boundary_rate`, and the inverse
direction (recovering K_tau from the boundary kernel by a Plancherel-type
double integral) takes Gaussian dampers e^{-eps s^2} e^{-eps t^2}, a Laplace
identity for the causal factor that leaves the s integral in closed form, and
an epsilon extrapolation; see `bergman_from_szego_gaussian`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .boundary import BoundaryPoint, boundary_rate
from .errors import ConvergenceError, DomainError, NearSingular, SingularPoint
from .numerics import (
    DEFAULT_CONFIG,
    EPS,
    TWO_PI,
    EvalResult,
    QuadConfig,
    closed_result,
    gk15_composite,
    integrate_interval,
    integrate_real_line,
)
from .weights import (
    WeightSpec,
    conjugate_spec,
    eval_weight,
    gaussian,
    inverse_derivative,
    profile_dp,
    profile_p,
    profile_power,
    weight_derivatives,
    young_conjugate_closed,
    _require_profile,
)

# decay (in the shifted exponent) required before a quadrature window is cut
_EXP_CUTOFF = 45.0
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)
_SIDES = np.array([-1.0, 1.0])
# above this alpha the inner rule runs its panels, at even alpha too, cut
# also about the walls at |r| = 1; without the cuts its two panels need
# order 144 at alpha 21-51, 324 past 120, and run out of orders from 175
_WALL_ALPHA = 50.0
# Gauss-Legendre orders of the inner rule's ladder on each panel, from the
# order whose rows settle one rung up (at 64, on every panel kind), and step
# counts of its nested trapezoid rule at even alpha and of the kernel's in x
_GL_ORDERS = (48, 64, 96, 144, 216, 324)
_R_ORDERS = tuple(32 << k for k in range(8))
_X_ORDERS = (32, 64, 128, 256, 512, 1024)


def _check_tau(tau):
    tau = float(tau)
    if not 0.0 < tau < math.inf:
        raise DomainError("tau must be positive and finite")
    return tau


@lru_cache(maxsize=16)
def _leggauss(n):
    """Gauss-Legendre nodes (ascending) and weights of order n, in O(n^2).

    Newton's method takes every root of P_n in [0, 1) at once from
    Tricomi's estimates; each step is one pass of the three-term recurrence
    in Reinsch's form about x = 1, in d_j = P_j - P_{j-1} and y = 1 - x,
    which keeps its rounding from growing at the end nodes.  The weight
    2 / ((1 - x^2) P_n'(x)^2) is carried to the root to first order in the
    last Newton step.  The other half of the rule is the mirror image.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(math.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for _ in range(10):
        y = 1.0 - x
        p_prev, p, d = 1.0, x, -y
        for j in range(1, n):
            d = (j * d - (2.0 * j + 1.0) * y * p) / (j + 1.0)
            p_prev, p = p, p + d
        s2 = y * (1.0 + x)
        dp = n * (p_prev - x * p) / s2  # (1 - x^2) P_n' = n (P_{n-1} - x P_n)
        dx = p / dp
        if np.max(np.abs(dx)) < 1e-14:
            break
        x = x - dx
    w = 2.0 / (s2 * dp * dp) * (1.0 + 2.0 * x * dx / s2)
    x = x - dx
    if n % 2:
        x[-1] = 0.0  # P_n is odd
    return (np.concatenate([-x, x[::-1][n % 2:]]),
            np.concatenate([w, w[::-1][n % 2:]]))


@lru_cache(maxsize=32)
def _unit_rule(n, squared):
    """The order-n Gauss-Legendre rule on [0, 1]; squared, the same rule in
    y for r = y^2: nodes y^2 and weights 2 y w."""
    x, w = _leggauss(n)
    y = 0.5 + 0.5 * x
    return (y * y, y * w) if squared else (y, 0.5 * w)


@lru_cache(maxsize=16)
def _cut_table(a):
    """log |c| against log d, inward and outward, where 2 D(c -+ d, c) = 45,
    D the Bregman divergence of p = |x|^a / a, 1% past the root.  D(c (1 -+
    delta), c) = |c|^a D(1 -+ delta, 1), so one pass of log a D(1 -+ delta, 1)
    over log delta (and log(delta - 1) inward past 1, where D turns a corner
    as a -> 1 and at large a) gives both curves; they run flat as c -> 0 and
    on from a far point along the Gaussian width's slope 1 - a/2."""
    la, lo = math.log(a), math.log(1e-3 / a)
    # from where D is Gaussian to where the c -> 0 slope holds, and about large a's corner
    g = np.sort(np.concatenate([
        np.linspace(min(lo, math.log((a - 1.0) / 16.0)), 2.0, 128, endpoint=False),
        np.geomspace(2.0, max(12.0, 12.0 / (a - 1.0)), 128),
        (math.log(2.0 * a) + np.linspace(-8.0, 8.0, 33)) / a]))
    t = np.sort(np.concatenate([g[g >= lo], -np.exp(g[g < -1.0])]))  # log delta, also near 1
    neg, sp = t[t < 0.0], np.logaddexp(0.0, t)
    inward = np.concatenate([np.log(a * np.exp(neg) + np.expm1(a * np.log(-np.expm1(neg)))),
                             np.logaddexp(a * g, np.logaddexp(math.log(a - 1.0), la + g))])
    outward = a * sp + np.log(-np.expm1(np.logaddexp(0.0, la + t) - a * sp))
    curves = []
    for log_delta, log_ad in ((np.concatenate([neg, np.logaddexp(0.0, g)]), inward), (t, outward)):
        log_c = (math.log(0.5 * _EXP_CUTOFF * a) - log_ad[::-1]) / a
        log_d = log_c + log_delta[::-1] + math.log(1.01)
        curves.append((np.append(log_c, log_c[-1] + 1e4),
                       np.append(log_d, log_d[-1] + (1.0 - 0.5 * a) * 1e4)))
    return curves


def _cut_widths(a, slope, cutoff=_EXP_CUTOFF):
    """Half-widths [left, right] about c = p'^-1(slope) where 2 D(c -+ d, c)
    reaches cutoff K (per side and slope, or one): `_cut_table`'s cut at |c|
    (45 / K)^(1/a), scaled back, by homogeneity."""
    with np.errstate(divide="ignore", over="ignore"):  # c = 0; c past the float range
        shift = np.log(cutoff / _EXP_CUTOFF) / a
        log_c = np.log(np.abs(slope)) / (a - 1.0) - shift
        inward, outward = (np.exp(np.interp(log_c, *curve) + shift) for curve in _cut_table(a))
    return np.where([slope < 0.0, slope >= 0.0], outward, inward)


@lru_cache(maxsize=16)
def _x_window_table(a):
    """The x rule's cut and shift for K_1(v), against t = log |s|, s = Re v
    / 2: rows log L_in, log L_out, the half-widths toward 0 and away from it
    about x* = p'(s), and the gain g = F(x*) - 2 p*(x*) of the floor F of
    log J (`_log_inner_floor`), for s >= 0 (s < 0 is the mirror image, J
    being even).  Built once per alpha from the two-step cut: `_cut_table`
    at alpha' to 2 D*(x, x*) = 45, then to 46 plus the fall of log h
    (`_floor_step`) from x* to each end, so that with F for log J its end
    terms are below e^-45 of the term at x*.  Its nodes run evenly in t
    where c = s varies, evenly in log x* where x* = s^(a-1) does, densely
    where both are near 1, and at the hold of h; below them the rows are
    flat, or no float lies, and s = 0 takes the first column.  Past |s|^a
    = e^36, where F rounds by e^-18 and the rows' corrections are as small,
    they run on along their asymptotes, log L ~ (a/2 - 1) t and g ~ log h
    ~ (1 - a/2) t, to a far point."""
    t_lo = max(-40.0 * max(1.0, 1.0 / (a - 1.0)), -745.0)
    t_hi = 36.0 / a
    near = 16.0 * min(1.0, 1.0 / (a - 1.0))
    parts = [np.linspace(t_lo, t_hi, 512),
             np.linspace(max(-40.0, (a - 1.0) * t_lo), (a - 1.0) * t_hi, 1024) / (a - 1.0),
             np.linspace(-near, near, 1536)]
    if a != 2.0:  # where h = 1/2
        parts.append([math.log(a - 1.0) / (2.0 - a)])
    t = np.sort(np.concatenate(parts))
    t = t[np.diff(t, prepend=-np.inf) > 0]  # not np.unique: its first call imports, 10 ms
    slope = np.append(0.0, np.exp(t))
    x_star = slope ** (a - 1.0)
    ap = a / (a - 1.0)
    with np.errstate(divide="ignore"):  # h at x = 0, for a > 2
        widths = _cut_widths(ap, slope)
        fall = np.log(_floor_step(a, x_star) / _floor_step(a, x_star + _SIDES[:, None] * widths))
        widths = _cut_widths(ap, slope, _EXP_CUTOFF + 1.0 + np.maximum(fall, 0.0))
        rows = np.vstack([np.log(widths), _floor_gain(profile_power(a), x_star)])
    far = rows[:, -1] + np.array([0.5 * a - 1.0, 0.5 * a - 1.0, 1.0 - 0.5 * a]) * 1e4
    t, rows = np.concatenate([[t_lo - 1.0], t, [t_hi + 1e4]]), np.column_stack([rows, far])
    t.flags.writeable = rows.flags.writeable = False  # the cache hands them to every call
    return t, rows


def _x_window(a, slope):
    """(left, right, gain) of `_x_window_table` at each slope, mirrored where
    it is negative: one lookup a row."""
    t, rows = _x_window_table(a)
    with np.errstate(divide="ignore"):  # slope 0 reads the first column
        log_slope = np.log(np.abs(slope))
    inward, outward, gain = (np.interp(log_slope, t, row) for row in rows)
    inward, outward = np.exp(inward), np.exp(outward)
    mirrored = slope < 0.0
    return np.where(mirrored, outward, inward), np.where(mirrored, inward, outward), gain


def _trapezoid_inner(a):
    """Whether the inner rule runs its trapezoid: even alpha up to _WALL_ALPHA."""
    return a % 2.0 == 0.0 and a <= _WALL_ALPHA


def _floor_step(a, x):
    """h = p''(c)^(-1/2) / 2 at c = p'^-1(x), held at 1/2 from the side of c = 0."""
    h = 0.5 / math.sqrt(a - 1.0) * np.abs(x) ** ((1.0 - 0.5 * a) / (a - 1.0))
    return np.minimum(h, 0.5) if a > 2.0 else np.maximum(h, 0.5)


@lru_cache(maxsize=16)
def _pole_distance(a):
    """d, the distance of the poles of 1/J from the real axis: inf for a <=
    2, where e^{-|r|^a} has a positive Fourier transform, else the first
    zero of J(iy) = 2 int_0^inf cos(2 r y) e^{-2 r^a / a} dr (the argument
    principle finds none of J nearer), on a grid of step 1/16 and by Newton,
    in the series sum_k (-1)^k (2y)^(2k) (a/2)^(m-1) Gamma(m) / (2k)!, m =
    (2k + 1) / a; up to y = 3 its 64 terms stay below e^8, past it d = inf."""
    if a <= 2.0:
        return math.inf
    k = np.arange(64.0)
    m = (2.0 * k + 1.0) / a
    c = np.exp(k * math.log(4.0) + (m - 1.0) * math.log(0.5 * a)
               + [math.lgamma(x) - math.lgamma(2.0 * j + 1.0) for j, x in zip(k, m)])
    c[1::2] *= -1.0  # J(iy) = sum_k c_k y^(2k)
    ys = np.arange(1.0, 49.0) / 16.0
    f = (ys * ys)[:, None] ** k @ c
    if f.min() > 0.0:
        return math.inf
    y = ys[np.argmax(f <= 0.0)]
    for _ in range(8):
        y -= (y * y) ** k @ c / (y * ((y * y) ** k[:-1] @ (2.0 * k[1:] * c[1:])))
    return float(y)


def _x_start_level(a, width, osc, peak, rtol):
    """The x rule's start: the coarsest level but the last whose step h =
    width / n has e^{(|Im v| - 2 pi / h) d - peak} <= 50 rtol / width for a
    row, d = `_pole_distance(a)`: its terms are e^{i x Im v} times a function
    analytic in |Im x| < d, about e^-peak at the poles, and its L1 norm is
    below about the width; 50 was fitted to settle levels at alpha 2.5-51.
    No coarser level is summed, so the first a row can settle at is the next."""
    rate = np.min(np.maximum(math.log(50.0 / (rtol * width)) - peak, 0.0) / _pole_distance(a) + osc)
    return int(np.count_nonzero(width * rate > TWO_PI * np.array(_X_ORDERS[:-2])))


def _settle_rows(n, level, n_levels):
    """The settle policy of both profile row engines, on a batch of n rows.

    `level(k, idx, prev)` returns the level-k values of the active rows idx
    (prev: their level k - 1 values, None at k = 0) and the bound within
    which the two must agree; idx is the slice of all rows while every row
    is active, so the engines index their row arrays by views, not copies.
    A row that agrees keeps that level's value and leaves the batch at
    once, so no row's value or work depends on the others' levels; a row
    whose value is not finite leaves at once, unsettled.  The bound is rtol
    in log I for the inner rule, and rtol times the terms' L1 norm for the
    x rule, but only on a step with h |Im v| <= pi, two nodes to a period
    of e^{i x Im v}: coarser levels can alias it alike and agree on a
    wrong value.  The x rule's unsettled rows go on in halves; the inner
    rule raises on them.
    Returns (values, last-level differences, mask of the unsettled rows).
    """
    active, idx, prev = np.arange(n), slice(None), None
    diffs, settled = np.full(n, np.nan), np.zeros(n, dtype=bool)
    for k in range(n_levels):
        vals, bound = level(k, idx, prev)
        if k == 0:
            out, going = vals.copy(), np.isfinite(vals)
        else:
            out[idx] = vals
            diffs[idx] = diff = np.abs(vals - prev)
            settled[idx] = agree = diff <= bound
            going = ~agree & np.isfinite(vals)
        n_going = np.count_nonzero(going)
        if not n_going:
            break
        if n_going < going.size:
            idx = active = active[going]
            prev = vals[going]
        else:
            prev = vals
    return out, diffs, ~settled


def _nested_nodes(k, n):  # level k's new nodes on [0, n]: all n + 1 at k = 0, then midpoints
    return np.arange(n + 1) if k == 0 else np.arange(1, n, 2)


def _nested_sum(prev, h, terms):
    """A nested trapezoid level's sums of step h, a row each, from the terms
    at its new nodes: half the previous level's, prev, plus h times theirs.
    prev is None at the first level, whose end terms are halved in place."""
    if prev is None:
        terms[:, [0, -1]] *= 0.5
        prev = 0.0
    return 0.5 * prev + h * terms.sum(axis=1)


def _log_inner_batch(spec: WeightSpec, tau, etas, rtol=1e-11):
    """log I(eta, tau) = log J(x) - log(tau) / a, J = I(., 1), x = tau^(1-1/a)
    eta (r = tau^(-1/a) rho), for an array of eta, each row on its own window.

    tau is a scalar or one per eta; the rules run on x, at tau = 1.  The
    exponent 2 (r x - p(r)) is concave in r with peak value 2 p*(x) at
    r = c = sign(x) mu(x); shifted by the peak it is -2 D(r, c), D the
    Bregman divergence of p.  Rows whose terms 2 |x c| round by more than
    rtol / 100 are far: they run in the offset r - c with D from
    `_bregman`, so a narrow peak at a huge c keeps its nodes; the others
    run in r.  Each row's window [c - L_-, c + L_+] ends 1% past where its
    exponent falls to -45 (`_cut_table`), and is checked there once: the
    exponent is concave, so its ends bound its tails.  At even alpha up to
    _WALL_ALPHA the exponent is entire, so one nested trapezoid rule on the
    window converges geometrically (Trefethen & Weideman, SIAM Review 56,
    2014); each row climbs _R_ORDERS until two levels agree to rtol.
    Otherwise the window is split at r = 0, where |r|^a need not be smooth
    (at the peak if it does not hold r = 0), and the Gauss-Legendre order
    climbs _GL_ORDERS until two orders agree to rtol in the log of the
    row's shifted sum; the ladder starts at the order whose rows settle one
    rung up, so the first order serves only as the second's reference.  A
    sum of 0, a window too wide for its peak's nodes, leaves unsettled at
    once.  Below alpha 2 the two panels run from the split in y, r = -+y^2,
    dr = 2 y dy, where |r|^a = y^(2a) is smooth (Davis & Rabinowitz,
    Methods of Numerical Integration, 1984); above it the substitution
    costs more than it saves.  Above _WALL_ALPHA the exponent
    is flat inside |r| < 1 and falls at a wall about 1/p''(1) = 1/(a - 1)
    wide at each |r| = 1, where two orders of a panel that holds a wall can
    agree on a wrong value; there the panels are also cut at the points
    r = -+(1 + k / (a - 1)), k from -32 to 14, graded about each wall and
    clipped to the window, so the row runs 16 panels.  Rows settle under
    `_settle_rows`, and no row's window or panels depend on its batch, so
    neither do its value and work.
    ConvergenceError: a window end above -45; a row unsettled at the last level.
    DomainError: a non-finite eta, or a term the rule forms, |x| mu = mu^a
    = |x|^alpha' or twice it, past e^700.
    """
    a = spec.alpha
    ap = a / (a - 1.0)
    etas = np.asarray(etas, dtype=float).ravel()
    xs = tau ** (1.0 - 1.0 / a) * etas
    abs_x = np.abs(xs)
    x_max = float(abs_x.max(initial=0.0))
    if not (x_max <= 1.0 or ap * math.log(x_max) + math.log(2.0) < 700.0):
        if not np.isfinite(etas).all():
            raise DomainError("eta must be finite")
        raise DomainError("log I(eta, tau) overflows the float range")
    c = np.sign(xs) * abs_x ** (1.0 / (a - 1.0))
    peak = 2.0 * abs_x ** ap / ap
    far, origin, center = None, np.zeros_like(c), c
    if 2.0 * x_max ** ap * EPS > 0.01 * rtol:
        far = peak * (ap * EPS) > 0.01 * rtol
        origin = np.where(far, c, 0.0)
        center = c - origin

    def exponent(d, rows=slice(None)):  # the shifted exponent at d = r - origin, a row per x
        e = d * (2.0 * xs[rows, None])
        e -= peak[rows, None]
        if far is None:
            e -= profile_p(spec, d, 2.0)
        else:  # p(d) of a far row may overflow where D does not
            f = far[rows]
            e[~f] -= profile_p(spec, d[~f], 2.0)
            e[f] = -2.0 * _bregman(spec, d[f], c[rows][f, None])
        return e

    L = _cut_widths(a, xs).T  # each row's (left, right) half-widths
    if not np.all(exponent(center[:, None] + L * _SIDES) <= -_EXP_CUTOFF):
        raise ConvergenceError("inner-integral window failed to close")
    lo, hi = center - L[:, 0], center + L[:, 1]
    n_evals = 0
    if _trapezoid_inner(a):
        def trapezoid(k, idx, prev):
            nonlocal n_evals
            n = _R_ORDERS[k]
            h = (hi[idx] - lo[idx]) / n
            e = exponent(lo[idx, None] + h[:, None] * _nested_nodes(k, n), idx)
            n_evals += e.size
            sums = _nested_sum(prev, h, np.exp(e, out=e))
            return sums, rtol * sums

        sums, _, left = _settle_rows(xs.size, trapezoid, len(_R_ORDERS))
        if left.any():
            raise ConvergenceError("inner-integral rule did not stabilise")
        return peak + np.log(sums) - np.log(tau) / a, n_evals
    mid = np.where((lo < -origin) & (-origin < hi), -origin, center)  # r = 0, else the peak
    edges = np.array([lo, mid, hi])
    if a > _WALL_ALPHA:
        # the walls, 1/p''(1) = 1/(a - 1) wide: ends graded about r = -+1
        g = 1.0 + np.array([-32.0, -8.0, -2.0, 0.0, 2.0, 6.0, 14.0]) / (a - 1.0)
        walls = np.concatenate([-g, g])[:, None] - origin
        edges = np.sort(np.clip(np.vstack([edges, walls]), lo, hi), axis=0)
    squared = 1.0 < a < 2.0  # edges [lo, mid, hi], each panel run from mid in y, r = mid -+ y^2
    starts, stops = (edges[[1, 1]], edges[[0, 2]]) if squared else (edges[:-1], edges[1:])

    def level(k, idx, prev):
        nonlocal n_evals
        q, wq = _unit_rule(_GL_ORDERS[k], squared)
        vals = 0.0
        for start, stop in zip(starts[:, idx], stops[:, idx]):
            width = stop - start
            d = np.multiply.outer(width, q)
            d += start[:, None]
            e = exponent(d, idx)
            # summed a row at a time: a matrix product's rounding depends on the batch
            vals = vals + np.einsum("ij,j->i", np.exp(e, out=e), wq) * np.abs(width)
            n_evals += e.size
        with np.errstate(divide="ignore"):  # a window too wide for its peak's nodes
            return np.log(vals), rtol

    log_vals, _, left = _settle_rows(xs.size, level, len(_GL_ORDERS))
    if left.any():
        raise ConvergenceError("inner-integral rule did not stabilise")
    return peak + log_vals - np.log(tau) / a, n_evals


def _even_log_j(spec, q, h, rtol):
    """(log J at x = q h, n_evals) for a run q of integers of step 1 or 2,
    from one `_log_inner_batch` call at the distinct |q| h: J is even, and
    (-q) h = -(q h) exactly.  The distinct |q| are a run of the same step
    from the least of them, so q maps into it by arithmetic alone."""
    aq = np.abs(q)
    base, step = aq.min(), q[1] - q[0]
    log_j, n_evals = _log_inner_batch(spec, 1.0, h * np.arange(base, aq.max() + 1.0, step), rtol)
    return log_j[((aq - base) / step).astype(np.intp)], n_evals


def _bregman(spec, d, c):
    """D(c + d, c) = p(c + d) - p(c) - p'(c) d >= 0 for p = |x|^a / a, c != 0.

    Its terms are ~|c|^a while D ~ |c|^(a-2) d^2, so for |t| < 1/4, t = d/c,
    and past a = 5 for |t| < 3 / (4 (a - 2)), D is summed as the binomial
    series |c|^a / a sum_{k>=2} binom(a, k) t^k of (1 + t)^a - 1 - a t,
    nested in the ratios r_k = (a - k) t / (k + 1) of its terms, as its
    coefficients overflow at large a.  There every |r_k| < 1/4: no term
    outgrows the first, so the sum, alternating for t < 0, cancels nothing.
    It ends at k = a for integer a < 32 (the Gaussian's is t^2), else after
    30 ratios, which leave under 4^-30 of the first term.
    """
    a = spec.alpha
    near = np.abs(d) < 0.75 / max(3.0, a - 2.0) * np.abs(c)
    t = np.where(near, d, 0.0) / c
    nested = 1.0
    for k in range((int(a) if a.is_integer() and a < 32.0 else 32) - 1, 1, -1):
        nested = 1.0 + (a - k) / (k + 1.0) * t * nested
    series = profile_p(spec, c) * t * t * (0.5 * a * (a - 1.0) * nested)
    direct = profile_p(spec, c + d) - profile_p(spec, c) - profile_dp(spec, c) * d
    return np.where(near, series, direct)


def _log_inner_floor(spec: WeightSpec, x):
    """A closed-form lower bound on log J(x) = log I(x, 1), within 3 of it.

    With c = p'^-1(x) the exponent of J is 2 p*(x) - 2 D(r, c), D the
    Bregman divergence, and D(c + d, c) <= |d| |p'(c + d) - x| since p' is
    increasing.  D is convex in r, so on the stretch between c and c + d
    it is at most its value at c + d, and for either sign of d

        log J(x) >= 2 p*(x) + log |d| - 2 |d| |p'(c + d) - x|.

    The better sign is taken (`_floor_gain`), at |d| = h (`_floor_step`),
    half the peak's width, where D <= ~1/4, but held at 1/2 where it
    diverges.  The rounding of p'(c + d) - x, about |x| eps, costs 2 h |x|
    eps: far below the 3 nats given away, or, at a huge c, below the
    rounding of 2 p*(x) = 2 |x c| / a'.
    """
    a = spec.alpha
    ap = a / (a - 1.0)
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_peak = 2.0 * np.abs(x) ** ap / ap
        # where 2 p*(x) overflows so may h, and the gain is nan
        return np.where(np.isinf(log_peak), log_peak, log_peak + _floor_gain(spec, x))


def _floor_gain(spec, x):
    """`_log_inner_floor` less 2 p*(x): log h - 2 h |p'(c -+ h) - x|, the
    better sign, h = `_floor_step`."""
    a = spec.alpha
    abs_x = np.abs(x)
    h = _floor_step(a, abs_x)
    slope = profile_dp(spec, np.sign(x) * abs_x ** (1.0 / (a - 1.0))
                       + np.multiply.outer(_SIDES, h)) - x
    gain = np.log(h) - 2.0 * h * np.abs(slope)
    return np.fmax(gain[0], gain[1])


def _log_inner(spec, tau, eta, rtol):
    """(log I(eta, tau), its error, n_evals) at rtol: rtol, 32 ulps of log I,
    a' times the rounding of x = tau^(1-1/a) eta and of log |x| for the
    peak term 2 |x|^a' / a', and a ulps for |r|^a at a large a's walls."""
    _require_profile(spec)
    a, tau, eta = spec.alpha, _check_tau(tau), float(eta)
    log_i, n_evals = _log_inner_batch(spec, tau, [eta], rtol)
    x, log_i = abs(tau ** (1.0 - 1.0 / a) * eta), float(log_i[0])
    ulps = 1.0 + 0.5 * (abs(math.log(tau)) + math.log1p(x))
    return log_i, rtol + EPS * (32.0 * abs(log_i) + 2.0 * ulps * x ** (a / (a - 1.0)) + a), n_evals


def inner_integral(spec: WeightSpec, tau, eta, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """I(eta, tau) = int_R exp(2 tau (r eta - p(r))) dr > 0.

    One row of `_log_inner_batch` at rtol = max(1e-13, 0.05 rel_tol); the
    estimate is I times the error of log I from `_log_inner`.  The method
    names the rule that ran: trapezoid at even alpha up to 50.
    """
    log_i, err, n_evals = _log_inner(spec, tau, eta, max(1e-13, 0.05 * cfg.rel_tol))
    try:
        value = math.exp(log_i)
    except OverflowError:
        raise DomainError("I(eta, tau) overflows the float range: log I = %.6g" % log_i) from None
    err *= value
    rule = "trapezoid-batch" if _trapezoid_inner(spec.alpha) else "gauss-legendre-batch"
    return EvalResult(value, err, rule, n_evals)


def effective_conjugate(spec: WeightSpec, tau, eta, cfg: QuadConfig = DEFAULT_CONFIG) -> float:
    """The tau-smoothed conjugate: log I(eta, tau) / (2 tau).

    Squeezed between p*(eta/lam) and p*(lam eta) up to constants for any
    lam > 1, and converging to p*(eta) as tau grows.  log I is one row of
    `_log_inner_batch` at rtol = max(1e-13, 0.05 rel_tol).
    """
    return _log_inner(spec, tau, eta, max(1e-13, 0.05 * cfg.rel_tol))[0] / (2.0 * tau)


def bergman_profile(spec: WeightSpec, tau, z, w, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Bergman kernel as one row of `_kernel_tau_batch`, at inner rtol
    max(1e-13, 0.05 rel_tol); depends on (z, w) through u = z + conj w.
    Its x window is read from a per-alpha table of the closed-form floor
    of log J and its cut, so n_evals counts only the x rule's nodes: the
    inner evaluations of log J at their distinct |x| (J is even), plus one
    per node for its term.

    The estimate is the last level difference plus rtol times the terms'
    L1 norm.  Where the terms cancel (large Im u) that norm can exceed |K|
    by more than rel_tol / rtol: the row is rerun once at an rtol scaled to
    the tolerance, and ConvergenceError is raised if it still misses.
    DomainError where K_tau(u) passes the float range.
    """
    _require_profile(spec)
    tau = _check_tau(tau)
    u = complex(z) + complex(w).conjugate()
    if not cmath.isfinite(u):
        raise DomainError("bergman_profile requires finite z and w")

    def row(rtol):
        with np.errstate(over="ignore", invalid="ignore"):
            (value,), n_evals, (err,) = _kernel_tau_batch(spec, [tau], u, np.zeros(1), rtol)
        if not np.isfinite([value, err]).all():
            raise DomainError("K_tau(u) overflows the float range")
        return complex(value), float(err), n_evals, max(cfg.abs_tol, cfg.rel_tol * abs(value))

    rtol = max(1e-13, 0.05 * cfg.rel_tol)
    value, err, n_evals, tol = row(rtol)
    if err > tol and rtol > 1e-13:
        value, err, more, tol = row(max(1e-13, rtol * 0.5 * tol / err))
        n_evals += more
    if err > tol:
        raise ConvergenceError("bergman_profile estimate %.3g exceeds the tolerance %.3g: "
                               "the x integral cancels" % (err, tol))
    return EvalResult(value, err, "profile-quadrature", n_evals)


# `szego_profile`'s ray: the angles it tries, and the GK15 panels seeding
# it, evenly spaced in s = r^(1/a)
_RAY_ANGLES = 33
_RAY_SEEDS = 8


def _kernel_tau_batch(spec: WeightSpec, taus, u, log_factor, rtol):
    """(K_tau(u) exp(log_factor), n_evals, error estimate) for a vector of
    real or complex tau, on one shared x rule.

    For p = |x|^a / a the kernel is homogeneous, K_tau(u) = tau^(2/a)
    K_1(tau^(1/a) u), so with v = tau^(1/a) u and J = I(., 1)

        K_tau(u) = tau^(2/a) / (2 pi) int_R exp(x v - log J(x)) dx,

    and every tau shares one table of log J on one trapezoid rule.  log J
    is computed only at the rule's nodes, once per |x| (`_even_log_j`):
    the window is snapped outward onto the lattice h0 Z of its level-0
    step h0, each side by less than h0, past ends checked below (x Re v -
    log J is concave, so the terms fall on outward), so the nodes of level
    k are q h0 / 2^k, q an integer, 0 and each pair +-x among them, and J
    is even.  The shift and the window take the closed-form floor F of
    log J (`_log_inner_floor`), F <= log J <= F + 3.
    Row k is shifted by x* Re v - F(x*) at its peak x* = p'(Re v / 2), and
    the shift is folded into log_factor before the final exponential, so
    no row overflows and the term at x* is between e^-3 and 1.  The x
    window spans each row's cut about x* (`_cut_table` at alpha'), where
    2 D*(x, x*), D* the Bregman divergence of p*, reaches 45 plus the fall
    of F - 2 p* = log h - [0, 1] from x*, so that with F for log J its end
    terms are below e^-45 of the term at x*.  p is homogeneous, so the
    cut and F(x*) - 2 p*(x*) depend on alpha and Re v alone: one lookup a
    row reads them from `_x_window_table`, built once per alpha, and
    x* Re v - 2 p*(x*) = 2 p(Re v / 2) is closed.  The window is checked
    once, at the first level, on the log J fetched at its two snapped
    ends: each row's terms there must be below e^-45 of its term at x*
    (Re of the shifted exponent, before its exponential), else
    ConvergenceError.  log J >= F and the snapped ends lie past the cut,
    where the terms fall on, so this passes wherever the check with F at
    the cut would, and bounds the true end terms itself.  There, with
    e^{xv} / J(x) analytic in |Im x| < d (`_pole_distance`), the trapezoid
    rule converges geometrically (Trefethen & Weideman, SIAM Review 56,
    2014), and its levels nest, as do its L1 norms sum |e^expo| h
    (`_nested_sum`); they start, one direct sum, at the level this allows
    (`_x_start_level`), and one inner call takes it and the next level.
    Each row then takes levels until it agrees with the previous one to
    rtol times its L1 norm on a step that resolves its oscillation
    (`_settle_rows`), and keeps the finer level: each term carries the
    inner rule's relative error rtol, and where a complex v makes the
    terms oscillate and cancel, their errors do not cancel with them.
    Rows left unsettled go on in contiguous halves, each with a window
    fitted to its own, nearer x*.  n_evals counts the inner evaluations
    made at the distinct |x| of the rule's nodes plus the tau x x cells of
    the rows still active; the shift, the window and its check cost none.
    A row's error estimate is its last level difference plus rtol times its
    L1 norm.
    """
    taus = np.asarray(taus)
    a = spec.alpha
    v = taus ** (1.0 / a) * u
    vr, osc = v.real, np.abs(v.imag)
    slope = 0.5 * vr
    x_star = profile_dp(spec, slope)
    left, right, gain = _x_window(a, slope)
    lo, hi = (x_star - left).min(), (x_star + right).max()
    peak = profile_p(spec, slope, 2.0) - gain  # x* Re v - F(x*), F = 2 p*(x*) + gain
    log_scale = peak + log_factor + (2.0 / a) * np.log(taus) - math.log(TWO_PI)
    # checked before the x rule, which cannot settle once x* is that large
    if not np.all(np.isfinite(peak) & (log_scale.real < _LOG_FLOAT_MAX)):
        raise DomainError("K_tau(u) overflows the float range")
    h0 = (hi - lo) / (_X_ORDERS[0] - 1)
    j0 = math.ceil(-lo / h0)  # the window snapped to h0 Z: [-j0, n_0 - j0] h0
    start, l1 = _x_start_level(a, _X_ORDERS[0] * h0, osc, peak, rtol), np.zeros(taus.size)
    m = 2 << start  # the first inner call's nodes per level-0 step
    first, n_evals = _even_log_j(spec, np.arange(_X_ORDERS[0] * m + 1.0) - j0 * m, h0 / m, rtol)

    def level(k, idx, prev):
        nonlocal n_evals
        n = _X_ORDERS[start + k]  # the ladder's level k
        h = h0 * _X_ORDERS[0] / n
        q = _nested_nodes(k, n) - j0 * n / _X_ORDERS[0]  # x = q h, on the lattice
        if k < 2:  # level 0's nodes are the first call's even ones, level 1's new ones its odd
            log_j = first[k::2]
        else:
            log_j, ne = _even_log_j(spec, q, h, rtol)
            n_evals += ne
        expo = np.multiply.outer(v[idx], h * q)
        n_evals += expo.size
        expo -= log_j
        expo -= peak[idx, None]
        if k == 0 and not np.all(expo.real[:, [0, -1]] <= -_EXP_CUTOFF):
            raise ConvergenceError("tau-batched kernel window failed to close")
        terms = np.exp(expo, out=expo)
        vals = _nested_sum(prev, h, terms)
        l1[idx] = _nested_sum(l1[idx], h, np.abs(terms))  # the ends are halved at level 0
        return vals, np.where(h * osc[idx] <= math.pi, rtol * l1[idx], -1.0)

    vals, diffs, unsettled = _settle_rows(taus.size, level, len(_X_ORDERS) - start)
    rest = np.flatnonzero(unsettled)
    scale = np.exp(log_scale)
    vals, err = scale * vals, np.abs(scale) * (diffs + rtol * l1)
    if taus.size == 1 and rest.size:
        raise ConvergenceError("tau-batched kernel rule did not stabilise")
    # the window served every row: the unsettled ones go on in contiguous
    # halves, each with a window fitted to its own, nearer x*
    for part in (rest[:rest.size // 2], rest[rest.size // 2:]):
        if part.size:
            vals[part], more, err[part] = _kernel_tau_batch(spec, taus[part], u,
                                                            log_factor[part], rtol)
            n_evals += more
    return vals, n_evals, err


def bergman_gaussian_closed(tau, z, w) -> EvalResult:
    """(tau / 2 pi) e^X, X = (tau/4)(z + conj w)^2, the Gaussian-profile kernel;
    cond = |X|, the size of the exponent whose rounding e^X carries."""
    tau = _check_tau(tau)
    u = complex(z) + complex(w).conjugate()
    if not cmath.isfinite(u):
        raise DomainError("bergman_gaussian_closed requires finite z and w")
    X = 0.25 * tau * u * u
    with np.errstate(over="ignore", invalid="ignore"):
        return closed_result((tau / TWO_PI) * np.exp(X), abs(X))


def _gaussian_boundary_expression(p1: BoundaryPoint, p2: BoundaryPoint) -> complex:
    """E = u^2 / 4 - R, u = z + conj w, R the rate of the Gaussian weight."""
    return 0.25 * (p1.z + p2.z.conjugate()) ** 2 - boundary_rate(gaussian(), p1, p2)


def szego_gaussian_closed(p1: BoundaryPoint, p2: BoundaryPoint) -> EvalResult:
    """Closed Gaussian boundary kernel S = (1/2 pi) E^{-2}; SingularPoint if E = 0.
    cond = 2 scale sqrt(2 pi |S|) = 2 scale / |E|: terms up to scale = 1 + |z|^2
    + |w|^2 + |s - t| cancel in E, and E^-2 doubles its relative rounding."""
    try:
        expr = _gaussian_boundary_expression(p1, p2)
        scale = 1.0 + abs(p1.z) ** 2 + abs(p2.z) ** 2 + abs(p2.t - p1.t)
    except OverflowError:
        raise DomainError("the terms of E = u^2 / 4 - R overflow the float range") from None
    if abs(expr) < 1e-12 * scale:
        raise SingularPoint("boundary diagonal: defining expression vanishes")
    value = (1.0 / TWO_PI) * (1.0 / expr) ** 2  # underflows to 0 where E^2 overflows
    return closed_result(value, 2.0 * scale * math.sqrt(TWO_PI * abs(value)))


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
    nodes share one table of log I(., 1) on one nested x rule
    (`_kernel_tau_batch`), so no node runs a quadrature of its own.
    The integrand grows like e^{tau E}, E = 2 (u/2)^a / a - R, u = z +
    conj w taken with Re u >= 0, and K_1 is entire, so the contour may
    turn onto any ray tau = r omega between the real axis and the
    steepest-descent ray omega = -|E| / E, on which tau E = -r |E| is real
    and the integrand stops oscillating, also at z = w, s != t, where it
    does not decay on the real axis.  The x integral of K_1 cancels where
    Im v is large, so the ray taken is the one whose L1 envelope
    exp(r (2 p(Re(omega^(1/a) u) / 2) - Re(omega R))) decays fastest,
    among _RAY_ANGLES evenly spaced angles, or, where none of them decays,
    among as many in the first step.  With no decaying envelope there the
    configuration is at or near the boundary diagonal, and NearSingular
    is raised; DomainError where R or E overflows.  The ray is cut where
    that envelope has fallen well below the absolute tolerance: it bounds the
    integrand, since |K_1(v)| <= K_1(Re v), where e^{tau E} is the rate
    only while the saddle of the x integral governs it (for a > 2 and
    nearly imaginary u, Re E can be positive on a bounded integrand).  The
    ray is integrated in s = r^(1/a), where the integrand is smooth at 0,
    on GK15 panels seeded evenly in s; at a decaying point each seed panel
    meets the tolerance, so the call settles in one kernel batch.
    The error estimate adds the inner relative tolerance times |S| to the
    tau quadrature's own estimate.
    """
    _require_profile(spec)
    z, w = p1.z, p2.z
    a = spec.alpha
    rate = boundary_rate(spec, p1, p2)
    u = z + w.conjugate()
    try:
        growth = 2.0 * (0.5 * (u if u.real >= 0.0 else -u)) ** a / a - rate
    except OverflowError:
        raise DomainError("the growth rate E overflows the float range") from None
    steepest = cmath.phase(-growth.conjugate())
    for top in (steepest, steepest / (_RAY_ANGLES - 1)):  # the grid, then its first step
        omegas = np.exp(1j * np.linspace(0.0, top, _RAY_ANGLES))
        envelope = 2.0 * profile_p(spec, 0.5 * (omegas ** (1.0 / a) * u).real) - (omegas * rate).real
        k = int(np.argmin(envelope))
        if -envelope[k] >= 1e-8 * (1.0 + abs(rate)):
            break
    else:
        raise NearSingular("the tau integrand decays on no ray: at or near "
                           "the boundary diagonal")
    omega = omegas[k]
    inner_rel_tol = max(min(cfg.rel_tol * 0.1, 1e-6), 1e-12)
    rtol = max(1e-13, 0.05 * inner_rel_tol)
    n_evals = 0

    def g(s):  # the integrand at tau = s^a omega, times dtau / (omega ds)
        nonlocal n_evals
        taus = s ** a * omega
        vals, n, _ = _kernel_tau_batch(spec, taus, u, math.log(a) + (a - 1.0) * np.log(s)
                                       - taus * rate, rtol)
        n_evals += n
        return vals

    floor = max(cfg.abs_tol * 1e-2, 1e-300)
    decay = -envelope[k]
    r_max = (1.3 * math.log(1.0 / floor) + (1.0 + 2.0 / a) * math.log(1.0 + 1.0 / decay)
             + 10.0) / decay
    s_max = r_max ** (1.0 / a)
    edges = np.linspace(0.0, s_max, _RAY_SEEDS + 1)[1:-1]
    res = integrate_interval(g, 0.0, s_max, cfg, breakpoints=edges)
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
_FINAL_TOL = 0.02  # `laplace_asymptotic` converged: |ratio - 1| at the last tau below this


def _end_slopes(xs, gap):
    """Gap trend d(gap)/d|x| at each tail end of the grid."""
    order = np.argsort(xs)
    xs, gap = xs[order], gap[order]
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
    if not 0.0 < lam < math.inf:
        raise DomainError("lam must be positive and finite")
    etas = np.asarray(eta_grid, dtype=float)
    if etas.size < 2:
        raise DomainError("the eta grid needs at least 2 points for its end trends")
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


def laplace_asymptotic(spec: WeightSpec, eta, tau_grid,
                       cfg: QuadConfig = DEFAULT_CONFIG) -> AsymptoticsReport:
    """Ratio of I(eta, tau) to (pi/(tau p''(mu)))^{1/2} exp(2 tau p*(eta)).

    Exact for the Gaussian profile; ratios approach 1 like 1/tau otherwise.
    The reciprocal prefactor orientation (tau p''/2 pi)^{1/2}, which also
    circulates, is evaluated alongside for reference -- it grows like tau
    against the true value and is reported, not asserted.  tau_grid comes back sorted.
    """
    _require_profile(spec)
    eta = float(eta)
    mu = inverse_derivative(spec, eta)
    _, p2d = weight_derivatives(spec, mu)
    if p2d <= 0.0:
        raise DomainError("degenerate maximizer: p'' vanishes at mu(eta)")
    pstar = young_conjugate_closed(spec, eta)
    taus = np.sort([_check_tau(tau) for tau in np.ravel(tau_grid)])  # `converged` reads it ascending
    if not taus.size:
        raise DomainError("the tau grid is empty")
    log_i, _ = _log_inner_batch(spec, taus, np.full(taus.size, eta), max(1e-9, 0.01 * cfg.rel_tol))
    log_i -= 2.0 * taus * pstar
    ratios = np.exp(log_i - 0.5 * (math.log(math.pi / p2d) - np.log(taus)))
    printed = np.exp(log_i - 0.5 * (np.log(taus) + math.log(p2d / TWO_PI)))
    dev = np.abs(ratios - 1.0)
    monotone = bool(np.all(dev[1:] <= dev[:-1] * 1.05 + 1e-12))
    converged = monotone and bool(dev[-1] <= _FINAL_TOL)
    return AsymptoticsReport(taus, ratios, converged, printed)


# Plancherel-type inverse: fixed interior/causal regularisation scales.
# The interior shift keeps the boundary kernel's double pole off the
# integration plane; the causal shift keeps a = p(w) + shift > 0 for the
# Laplace identity of 1/(a - i s).  Both are far below every tolerance in use.
_INTERIOR_SHIFT = 1e-6
_CAUSAL_SHIFT = 1e-6
_PLANCHEREL_NORM = 2.0 * math.pi ** 2
# fixed GK15 panels of the inverse's lambda integral over [0, Lambda], and
# the v nodes per block of its G(v) table
_LAMBDA_PANELS = 8
_V_BLOCK = 512
# the round trip's eps schedule, largest first
_ROUNDTRIP_EPS = (0.1, 0.05, 0.025)


def _causal_deficit_slope(tau, a, base):
    """Leading sqrt(eps) coefficient of the damped double integral.

    Damping 1/(a - i s) with e^{-eps s^2} against the kernel pole at
    v* = -i(base) leaves a relative deficit c1 sqrt(eps) + O(eps) with
    c1 = -(2 sqrt 2/sqrt pi)(a - 1/(2 tau) - base/2); dividing it out
    leaves a plain {eps, eps^{3/2}} series for the extrapolation.
    """
    return -(2.0 * math.sqrt(2.0) / math.sqrt(math.pi)) * (a - 0.5 / tau - 0.5 * base)


def _difference_rule_edges(center, scale, inner_stop, V, width):
    """Panel edges on [-V, V]: geometric refinement toward `center` from
    scale / 4 out to `inner_stop`, uniform panels of `width` beyond."""
    offsets = []
    h = max(scale / 4.0, 1e-12)
    while h < inner_stop:
        offsets.append(h)
        h *= 3.0
    offsets += list(np.arange(inner_stop, V + abs(center), width))
    edges = {center + sgn * d for sgn in (-1.0, 1.0) for d in offsets} | {center}
    return sorted({e for e in edges if -V < e < V} | {-V, V})


def bergman_from_szego_gaussian(tau, z, w, epsilon,
                                cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """One damped evaluation of the inverse double integral (Gaussian only).

    Computes e^{tau(p(z)+p(w))} iint S((z,t),(w,s)) e^{i tau(s-t)}
    / (p(w) - i s) ds dt with the integrand damped by e^{-eps s^2} e^{-eps t^2},
    the boundary kernel pushed an interior shift inside the domain, and the
    causal factor shifted off the contour.  In the difference variable
    v = s - t the kernel factor f(v) = (base - delta - i v)^-2 e^{i tau v}
    is s-independent, and for a = p(w) + shift > 0 the Laplace identity
    1/(a - i s) = int_0^inf e^{-lam (a - i s)} dlam leaves the s integral
    a Gaussian in closed form:

        iint = sqrt(pi / 2 eps) int f(v) e^{-eps v^2 / 2} G(v) dv,
        G(v) = int_0^Lam e^{-lam a - lam^2 / (8 eps) + i lam v / 2} dlam,

    cut where the Gaussians fall to e^-45: |v| <= sqrt(90 / eps) + 2 and
    Lam = sqrt(360 eps).  Both run on fixed composite GK15 rules, lam on
    _LAMBDA_PANELS equal panels, and G is formed over blocks of _V_BLOCK
    v nodes.  The v rule refines geometrically toward Re v* = Im base, the
    real part of the kernel's double pole v* = -i(base - delta), from a
    quarter of its distance delta + |Re base| from the axis out to 2, and
    beyond has panels of width h = min(1, 2/tau), at most 1/pi of the
    period of e^{i tau v}.  The error term is the gap to a rule of width 2h
    with half the lam panels, plus 50 machine epsilons of the terms'
    absolute sum: on the diagonal base = 0, the double pole sits delta off
    the axis and the sum cancels.  `cfg` does not enter the fixed rules.

    The result is normalised by the Plancherel constant 2 pi^2 and by the
    analytically known leading damping deficit, so values extrapolate to
    the closed kernel along eps -> 0 (see `bergman_roundtrip_extrapolated`).
    """
    tau = _check_tau(tau)
    eps = float(epsilon)
    if not 0.0 < eps < math.inf:
        raise DomainError("epsilon must be positive and finite")
    p1, p2 = BoundaryPoint(z, 0.0), BoundaryPoint(w, 0.0)
    pzw = boundary_rate(gaussian(), p1, p2).real  # p(z) + p(w)
    try:
        base = _gaussian_boundary_expression(p1, p2)
        scale = math.exp(tau * pzw) / TWO_PI / _PLANCHEREL_NORM * math.sqrt(0.5 * math.pi / eps)
    except OverflowError:
        raise DomainError("E or e^{tau (p(z) + p(w))} overflows the float range") from None
    delta = _INTERIOR_SHIFT
    a = eval_weight(gaussian(), p2.z) + _CAUSAL_SHIFT
    V = math.sqrt(2.0 * _EXP_CUTOFF / eps) + 2.0
    lam_max = math.sqrt(8.0 * _EXP_CUTOFF * eps)
    h = min(1.0, 2.0 / tau)

    def damped(width, panels):  # the v sum of f(v) e^{-eps v^2/2} G(v), sum |terms|, terms
        edges = _difference_rule_edges(base.imag, delta + abs(base.real), 2.0, V, width)
        v, wv = gk15_composite(edges)
        f = (base - delta - 1j * v) ** -2 * np.exp(1j * tau * v - 0.5 * eps * v * v) * wv
        lam, wl = gk15_composite(np.linspace(0.0, lam_max, panels + 1))
        g = np.exp(-lam * (a + lam / (8.0 * eps))) * wl
        total = 0.0j
        for i in range(0, v.size, _V_BLOCK):
            blk = slice(i, i + _V_BLOCK)
            phase = np.multiply.outer(v[blk], 0.5 * lam)
            total += f[blk] @ (np.cos(phase) @ g + 1j * (np.sin(phase) @ g))
        return total, float(np.abs(f).sum() * g.sum()), v.size * lam.size

    value, mass, n_evals = damped(h, _LAMBDA_PANELS)
    coarse, _, n_coarse = damped(2.0 * h, _LAMBDA_PANELS // 2)
    correction = 1.0 + _causal_deficit_slope(tau, a, base - delta) * math.sqrt(eps)
    err = abs(value - coarse) + 50.0 * EPS * mass
    return EvalResult(scale * value / correction, scale * err / abs(correction),
                      "plancherel-damped", n_evals + n_coarse)


def bergman_roundtrip_extrapolated(tau, z, w, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Extrapolate the damped inverse evaluations at `_ROUNDTRIP_EPS` to eps = 0.

    After the deficit normalisation in `bergman_from_szego_gaussian`, the
    eps expansion is {1, eps, eps^{3/2}}; three evaluations pin the limit.
    The error estimate combines the last extrapolation correction with the
    propagated quadrature errors.
    """
    results = [bergman_from_szego_gaussian(tau, z, w, e, cfg) for e in _ROUNDTRIP_EPS]
    vals = [r.value for r in results]
    limit = _extrapolate_to_zero(_ROUNDTRIP_EPS, vals, (0.0, 1.0, 1.5))
    pair = _extrapolate_to_zero(_ROUNDTRIP_EPS[1:], vals[1:], (0.0, 1.0))
    err = 0.5 * abs(limit - pair) + 8.0 * max(r.abs_err_estimate for r in results)
    n = sum(r.n_evals for r in results)
    return EvalResult(limit, err, "plancherel-extrapolated", n)


def _duality_taus(tau, tau0, tau1):
    tau, tau0, tau1 = float(tau), float(tau0), float(tau1)
    if not (0.0 < tau0 < tau < tau1 < math.inf):
        raise DomainError("require finite 0 < tau0 < tau < tau1")
    return tau, tau0, tau1


def duality_finiteness_criterion(tau, tau0, tau1) -> bool:
    """Negative-definiteness of (tau/2)(x+u)^2 - tau1 x^2 - tau0 u^2.

    Decides finiteness of the (x, u)-marginal of the squared-kernel double
    integral with weights e^{-2 tau1 p(z) - 2 tau0 p(w)} in the Gaussian
    case: true iff tau1 > tau/2 and (tau1 - tau/2)(tau0 - tau/2) > (tau/2)^2.
    """
    tau, tau0, tau1 = _duality_taus(tau, tau0, tau1)
    h = 0.5 * tau
    return tau1 > h and (tau1 - h) * (tau0 - h) > h * h


def duality_marginal_integral(tau, tau0, tau1,
                              cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Numeric (x, u)-marginal (tau/2 pi)^2 iint e^{Q(x,u)} dx du.

    Q(x, u) = (tau/2)(x+u)^2 - tau1 x^2 - tau0 u^2.  Shifted to
    y = x - tau u / (2A), A = tau1 - tau/2 > 0, it is -A y^2 + kappa u^2
    with kappa = tau^2 / (4A) + tau/2 - tau0, so the x integral is one
    integral of e^{-A y^2}, the same for every u, and the u integral is
    that value times e^{kappa u^2}; the inner result's relative error is
    charged to the estimate.  When the quadratic form fails to be negative
    definite (kappa >= 0) the u window doubling finds no decay and
    TruncationError propagates; that divergence is the point of the probe.
    """
    tau, tau0, tau1 = _duality_taus(tau, tau0, tau1)
    A = tau1 - 0.5 * tau
    kappa = tau * tau / (4.0 * A) + 0.5 * tau - tau0
    inner = integrate_real_line(lambda y: np.exp(-A * y * y), cfg)
    gauss = inner.value.real
    res = integrate_real_line(lambda u: gauss * np.exp(kappa * u * u), cfg)
    scale = (tau / TWO_PI) ** 2
    err = res.abs_err_estimate + abs(res.value) * inner.abs_err_estimate / gauss
    return EvalResult(scale * res.value, scale * err, "marginal-nested",
                      inner.n_evals + res.n_evals)


def shifted_maximizer_gap(spec: WeightSpec, tau, lam, eta) -> float:
    """2 tau [eta (mu(eta)+1) - p(mu(eta)+1) - p*(lam eta)] for 0 < lam < 1.

    Bounded below in eta >= 0; the grid minimum stabilises as the grid is
    extended, which is what the lower-bound test asserts.
    """
    _require_profile(spec)
    tau = _check_tau(tau)
    eta, lam = float(eta), float(lam)
    if not math.isfinite(lam):
        raise DomainError("lam must be finite")
    mu = inverse_derivative(spec, eta)
    x = mu + 1.0
    return 2.0 * tau * (eta * x - float(profile_p(spec, x))
                        - young_conjugate_closed(spec, lam * eta))
