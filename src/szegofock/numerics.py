"""Quadrature, series summation, and log-gamma primitives.

Integrands are vectorised: a callable receives a float ndarray and returns
a complex (or float) ndarray of the same shape.  Infinite domains are
truncated by doubling the window until the shells' masses fall and the
geometric tail fitted to the last two is at most a tenth of the target;
that tail is charged to the estimate, and the finite window is then
refined adaptively with a Gauss-Kronrod 7/15 pair, splitting the panel
with the largest error estimate first.  Error estimates are the summed
|K15 - G7| panel differences, a deliberately conservative upper estimate.
A series' estimate is its last two terms' geometric tail plus eps * sum |t_k|.

All routines are pure functions; panels of one integral may be evaluated
concurrently provided the reduction order is kept deterministic.
`log_gamma` is the stdlib's ``math.lgamma`` behind a domain check.
"""
from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, TruncationError

__all__ = [
    "QuadConfig",
    "EvalResult",
    "integrate_interval",
    "integrate_real_line",
    "integrate_half_line",
    "integrate_plane_polar",
    "sum_series",
    "log_gamma",
]

TWO_PI = 2.0 * math.pi
EPS = 2.0 ** -52  # double-precision machine epsilon


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and subdivision limits.

    abs_tol/rel_tol: a routine stops once its error estimate drops below
    max(abs_tol, rel_tol * |value|); infinite domains are truncated on the
    same target.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0) or not (0.0 < self.rel_tol < 1.0):
            raise DomainError("abs_tol and rel_tol must lie in (0, 1)")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadConfig()


@dataclass(frozen=True)
class EvalResult:
    """A computed value with an upper error estimate and a work counter."""

    value: complex
    abs_err_estimate: float
    method: str
    n_evals: int

    def __post_init__(self):
        if self.abs_err_estimate < 0.0:
            raise DomainError("abs_err_estimate must be non-negative")


def closed_result(value, cond) -> EvalResult:
    """A closed form's value, charged (1 + cond) |value| units of relative
    rounding, cond being what the rounding of its inputs and steps is
    amplified by, and two ulps of 0 for roundings below the normal range;
    DomainError where the value is not finite."""
    if not cmath.isfinite(value):
        raise DomainError("the closed form overflows the float range: %r" % (value,))
    return EvalResult(value, 8e-16 * (1.0 + cond) * abs(value) + 1e-323, "closed", 0)


# Gauss-Kronrod 7/15 pair on [-1, 1]; Gauss weights are zero on the
# Kronrod-only nodes.
_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])

_MAX_DOUBLINGS = 60
_MAX_TERMS = 100_000


def _gk15_nodes(lefts, rights):
    """GK15 nodes of a batch of panels, one row per panel, and their half-widths."""
    lefts = np.asarray(lefts, dtype=float)
    rights = np.asarray(rights, dtype=float)
    halfs = 0.5 * (rights - lefts)
    return 0.5 * (lefts + rights)[:, None] + halfs[:, None] * _XK[None, :], halfs


def gk15_composite(edges):
    """Nodes and weights of the fixed composite GK15 rule on the panels between edges."""
    xs, halfs = _gk15_nodes(edges[:-1], edges[1:])
    return xs.ravel(), np.multiply.outer(halfs, _WK).ravel()


def _eval_panels(f, lefts, rights):
    """Evaluate GK15 on a batch of panels with a single integrand call."""
    xs, halfs = _gk15_nodes(lefts, rights)
    with np.errstate(invalid="ignore", over="ignore"):
        ys = np.asarray(f(xs.ravel())).reshape(xs.shape)
        ik = (ys @ _WK) * halfs
        ig = (ys @ _WG) * halfs
        errs = np.abs(ik - ig)
    # overflowing integrands (divergence probes) must sort as worst panels
    errs = np.where(np.isfinite(errs), errs, np.inf)
    return ik, errs, xs.size


class _PanelSet:
    """Adaptive refinement state: one heap of panels (-err, left, right, value)."""

    def __init__(self, f):
        self.f = f
        self.heap = []
        self.total = 0.0 + 0.0j
        self.err = 0.0
        self.n_evals = 0
        self.panels = 0  # evaluated so far, refined ones included

    def add(self, lefts, rights):
        """Evaluate a batch of panels and keep them; returns the batch's
        mass, the sum of |value| + error over its panels."""
        v, e, n = _eval_panels(self.f, lefts, rights)
        self.n_evals += n
        self.panels += len(v)
        mass = 0.0
        for a, b, vi, ei in zip(lefts, rights, v, e.tolist()):
            self.total += vi
            self.err += ei
            mass += abs(vi) + ei
            heapq.heappush(self.heap, (-ei, float(a), float(b), vi))
        return float(mass)

    def target(self, cfg):
        return max(cfg.abs_tol, cfg.rel_tol * abs(self.total))

    def refine(self, cfg):
        while self.err > self.target(cfg):
            if self.panels >= cfg.max_subdivisions:
                raise ConvergenceError(
                    "adaptive quadrature exhausted %d subdivisions "
                    "(err=%.3g, target=%.3g)"
                    % (cfg.max_subdivisions, self.err, self.target(cfg)))
            neg_err, a, b, val = heapq.heappop(self.heap)
            if neg_err == 0.0:
                break  # worst panel already at the estimator floor
            self.total -= val
            self.err += neg_err  # neg_err = -old panel error
            m = 0.5 * (a + b)
            self.add([a, m], [m, b])
        if not (cmath.isfinite(self.total) and math.isfinite(self.err)):
            raise ConvergenceError("adaptive quadrature reached a non-finite value %r +- %r"
                                   % (self.total, self.err))
        return self.total, self.err


def integrate_interval(f, a, b, cfg=DEFAULT_CONFIG, breakpoints=()):
    """Adaptive GK15 integral of f from finite a to b: minus that over [b, a] for b < a.

    Optional breakpoints seed panel edges (poles, ridges, known scales).
    """
    lo, hi = sorted((float(a), float(b)))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("integration ends must be finite")
    pts = sorted({lo, hi, *(float(p) for p in breakpoints if lo < p < hi)})
    ps = _PanelSet(f)
    ps.add(pts[:-1], pts[1:])
    total, err = ps.refine(cfg)
    return EvalResult(total if a <= b else -total, err, "gk15-adaptive", ps.n_evals)


def _grow_window(f, cfg, center, width, two_sided):
    """Integrate f over a window about `center` grown by doubling.

    The window is [center - W, center + W] (two-sided) or [center,
    center + W].  W doubles until the shell just added has a finite mass
    m_k (sum of |value| + error over its panels) below the last one's,
    m_{k-1}, and its tail charge max(m_k, m_k rho / (1 - rho)), rho =
    m_k / m_{k-1}, is at most 0.1 * the target; m_0 is the first window's
    mass.  The charge goes to the estimate: it bounds the part beyond the
    window while the shell masses keep falling at least geometrically, as
    those of t^-p decay, p > 1, do at the ratio 2^(1-p).  Shell panels
    evaluated along the way are kept.  Returns the panel set after
    adaptive refinement.
    """
    c, W = float(center), float(width)
    if not (math.isfinite(c) and 0.0 < W < math.inf):
        raise DomainError("the window needs a finite center and a positive, finite width")
    ps = _PanelSet(f)
    if two_sided:
        prev = ps.add([c - W, c], [c, c + W])
    else:
        prev = ps.add([c, c + 0.5 * W], [c + 0.5 * W, c + W])
    for _ in range(_MAX_DOUBLINGS):
        if two_sided:
            lefts, rights = [c - 2.0 * W, c + W], [c - W, c + 2.0 * W]
        else:
            lefts, rights = [c + W], [c + 2.0 * W]
        W = 2.0 * W
        mass = ps.add(lefts, rights)
        # a divergent integrand overflows the mass to inf
        if mass == 0.0 or math.isfinite(mass) and mass < prev:
            tail = max(mass, mass * (mass / (prev - mass))) if mass else 0.0
            if tail <= 0.1 * ps.target(cfg):
                ps.err += tail
                ps.refine(cfg)
                return ps
        prev = mass
    raise TruncationError("no decay window found within the doubling budget")


def integrate_real_line(f, cfg=DEFAULT_CONFIG, center=0.0, initial_halfwidth=1.0):
    """Integral of f over the whole real line.

    The window [center - W, center + W] is doubled until the outermost
    shells are negligible, then refined adaptively.  `center` and
    `initial_halfwidth` hint where the integrand lives; the doubling search
    is robust as long as the integrand does not hide a bump far outside
    the hinted scale.
    """
    ps = _grow_window(f, cfg, center, initial_halfwidth, two_sided=True)
    return EvalResult(ps.total, ps.err, "real-line-gk15", ps.n_evals)


def integrate_half_line(f, cfg=DEFAULT_CONFIG, initial_width=1.0):
    """Integral of f over [0, infinity) with the same window policy."""
    ps = _grow_window(f, cfg, 0.0, initial_width, two_sided=False)
    return EvalResult(ps.total, ps.err, "half-line-gk15", ps.n_evals)


def integrate_plane_polar(g, cfg=DEFAULT_CONFIG):
    """Integral over the plane in polar form: int_0^inf int_0^2pi g r dtheta dr.

    ``g(r, theta)`` must broadcast over an (n_r, 1) radius array against an
    (n_theta,) angle array.  The angular direction uses an equispaced
    periodic rule (spectrally exact for trigonometric polynomials), doubled
    until stable; the radial direction is `integrate_half_line`.
    """
    evals = {"n": 0}

    def radial(n_theta):  # the half-line integral on n_theta equispaced angles
        theta = np.arange(n_theta) * (2.0 * np.pi / n_theta)

        def h(r):
            r = np.asarray(r, dtype=float)
            vals = np.asarray(g(r.reshape(-1, 1), theta[None, :]))
            evals["n"] += vals.size
            out = vals.mean(axis=1) * (2.0 * np.pi) * r.reshape(-1)
            return out.reshape(r.shape)

        return integrate_half_line(h, cfg)

    res = radial(16)
    for n_theta in (32, 64, 128, 256, 512, 1024):
        prev, res = res, radial(n_theta)
        angular_gap = abs(res.value - prev.value)
        if angular_gap <= 0.3 * max(cfg.abs_tol, cfg.rel_tol * abs(res.value)):
            return EvalResult(res.value, res.abs_err_estimate + angular_gap,
                              "polar-gk15-trig", evals["n"])
    raise ConvergenceError("angular rule did not stabilise below 1024 nodes")


def sum_series(term, cfg=DEFAULT_CONFIG):
    """Sum term(0) + term(1) + ... for eventually geometrically decaying terms.

    Stops at k >= 2 once the geometric tail of the last two terms is within
    the target, or at two zero terms in a row; the estimate adds the
    rounding eps * sum |t_k|.  ConvergenceError if that rounding exceeds the
    target (the terms cancel), if a term overflows, or after _MAX_TERMS.
    """
    total = 0.0 + 0.0j
    abs_sum = 0.0
    prev_mag = math.inf
    for k in range(_MAX_TERMS):
        try:
            t = complex(term(k))
            mag = abs(t)
        except OverflowError:
            mag = math.inf
        abs_sum += mag
        if not math.isfinite(abs_sum):
            raise ConvergenceError("series term %d overflows or is not finite" % k)
        total += t
        tail = math.inf
        if mag == 0.0 == prev_mag:
            tail = 0.0
        elif k >= 2 and 0.0 < mag < prev_mag:
            ratio = mag / prev_mag
            tail = mag * ratio / (1.0 - ratio)
        prev_mag = mag
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if tail <= target:
            rounding = EPS * abs_sum
            if rounding > target:
                raise ConvergenceError("series terms cancel: rounding %.3g exceeds the "
                                       "target %.3g" % (rounding, target))
            return EvalResult(total, tail + rounding, "series-geometric-tail", k + 1)
    raise ConvergenceError("series did not converge within %d terms" % _MAX_TERMS)


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, from the stdlib's ``math.lgamma``."""
    x = float(x)
    if not (x > 0.0):
        raise DomainError("log_gamma requires x > 0")
    return math.lgamma(x)
