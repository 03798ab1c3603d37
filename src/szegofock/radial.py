"""Kernels for the radial weights p(z) = |z|^alpha.

The Bergman kernel of the weighted space is the diagonal power series

    K_tau(z, w) = sum_k c_k(alpha, tau) z^k conj(w)^k,
    c_k = (alpha / 2 pi) (2 tau)^(2(k+1)/alpha) / Gamma(2(k+1)/alpha),

whose normalisation is pinned by the reproducing identity
c_k * m_k = 1 against the moment integrals m_k = int |z|^{2k} e^{-2 tau
|z|^alpha} dlambda (see the `verify` module, which checks this by
quadrature; the often-quoted prefactor 2 pi / alpha fails that identity
and is recorded there, not used).

Integrating K_tau e^{-tau(p(z)+p(w))} e^{-i tau (s-t)} over tau in
(0, inf) termwise gives the boundary kernel in closed form:

    S((z,t),(w,s)) = (1 / 2 pi) A^(-1-2/alpha) (1 - z conj(w) A^(-2/alpha))^-2,
    A = R / 2,   R = |z|^alpha + |w|^alpha + i(s-t) (`boundary.boundary_rate`),

with complex powers on the principal branch.  `szego_radial_via_laplace`
keeps the termwise Laplace-transform route (each term through log-gamma)
as an independent path cross-checked against the closed form.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .boundary import BoundaryPoint, boundary_rate
from .errors import DomainError, NearSingular, SingularPoint
from .numerics import (
    DEFAULT_CONFIG,
    TWO_PI,
    EvalResult,
    QuadConfig,
    closed_result,
    integrate_half_line,
    log_gamma,
    sum_series,
)
from .weights import radial_power

# kernel genuinely blows up on the boundary diagonal; these are the
# float-level guards around it
_GEOMETRIC_TOL = 1e-12
_A_FLOOR = 1e-300
# p(z) + p(w) below which the tau integral of `szego_radial_via_laplace`
# is not absolutely damped
_DAMPING_FLOOR = 1e-8


def series_coefficient(alpha, tau, k) -> float:
    """Coefficient of z^k conj(w)^k in the radial Bergman kernel."""
    alpha = float(alpha)
    tau = float(tau)
    if not (alpha > 0.0 and 0.0 < tau < math.inf):
        raise DomainError("series_coefficient requires alpha > 0 and finite tau > 0")
    if not (k >= 0 and float(k).is_integer()):
        raise DomainError("series index must be a finite integer >= 0")
    x = 2.0 * (k + 1) / alpha
    return (alpha / TWO_PI) * math.exp(x * math.log(2.0 * tau) - log_gamma(x))


def bergman_radial_series(alpha, tau, z, w, cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Sum the kernel series; Hermitian in (z, w), real positive on the diagonal."""
    alpha = float(alpha)
    tau = float(tau)
    if alpha <= 0.0 or not 0.0 < tau < math.inf:
        raise DomainError("bergman_radial_series requires alpha > 0 and finite tau > 0")
    z, w = complex(z), complex(w)
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise DomainError("bergman_radial_series requires finite z and w")
    zw = z * w.conjugate()

    def term(k):
        return series_coefficient(alpha, tau, k) * zw ** k

    res = sum_series(term, cfg)
    return EvalResult(res.value, res.abs_err_estimate, "radial-series", res.n_evals)


def szego_radial_closed(alpha, p1: BoundaryPoint, p2: BoundaryPoint) -> EvalResult:
    """Closed geometric-sum form of the boundary kernel for radial weights; cond
    = (1 + c) g + 2 |q| (1 + c g) / |1 - q|: A carries g = 2 (1 + alpha) + |log A|
    into the powers A^-c, which scale it by c, and 1 - q divides q's by |1 - q|."""
    spec = radial_power(alpha)
    c = 2.0 / spec.alpha
    A = 0.5 * boundary_rate(spec, p1, p2)
    if abs(A) < _A_FLOOR:
        raise SingularPoint("A = 0: coincident boundary point with p = 0")
    try:
        # powers of reciprocals underflow to 0 where those of A overflow to NaN
        inv = 1.0 / A
        q = p1.z * p2.z.conjugate() * inv ** c
        one_minus_q = 1.0 - q
        if abs(one_minus_q) < _GEOMETRIC_TOL:
            raise SingularPoint("boundary diagonal: geometric factor diverges")
        value = (1.0 / TWO_PI) * inv ** (1.0 + c) * (1.0 / one_minus_q) ** 2
    except OverflowError:
        raise DomainError("the powers of A = R / 2 leave the float range") from None
    g = 2.0 * (1.0 + spec.alpha) + abs(cmath.log(A))
    return closed_result(value, (1.0 + c) * g + 2.0 * abs(q) * (1.0 + c * g) / abs(one_minus_q))


def szego_radial_via_laplace(alpha, p1: BoundaryPoint, p2: BoundaryPoint,
                             cfg: QuadConfig = DEFAULT_CONFIG) -> EvalResult:
    """Boundary kernel as the series of termwise Laplace transforms in tau.

    Swapping the tau integral with the kernel series (legitimate when
    p(z) + p(w) > 0) turns each term into Gamma(x+1) (2A)^(-x-1) with
    x = 2(k+1)/alpha; against the coefficient's 1/Gamma(x) that leaves
    Gamma(x+1)/Gamma(x) = x, so terms are assembled in logs without a
    gamma function and summed numerically.  Must agree with
    szego_radial_closed within combined error estimates.
    """
    spec = radial_power(alpha)
    alpha = spec.alpha
    R = boundary_rate(spec, p1, p2)
    if R.real < _DAMPING_FLOOR:
        raise NearSingular(
            "p(z) + p(w) = %.3g below the damping floor %.3g; the tau "
            "integral is not absolutely damped" % (R.real, _DAMPING_FLOOR))
    A = 0.5 * R
    zw = p1.z * p2.z.conjugate()
    log2A = cmath.log(2.0 * A)
    log_zw = cmath.log(zw) if zw != 0.0 else None
    ln2 = math.log(2.0)
    log_pref = math.log(alpha / TWO_PI)

    def term(k):
        if log_zw is None and k > 0:
            return 0.0
        x = 2.0 * (k + 1) / alpha
        log_t = log_pref + math.log(x) + x * ln2 - (x + 1.0) * log2A
        if k > 0:
            log_t += k * log_zw
        return cmath.exp(log_t)

    res = sum_series(term, cfg)
    return EvalResult(res.value, res.abs_err_estimate, "laplace-termwise", res.n_evals)


def gamma_step_identity_check(alpha, k, A) -> float:
    """Relative gap between int_0^inf tau^x e^{-2 A tau} dtau (numeric) and
    Gamma(x+1) (2A)^(-x-1) (closed), x = 2(k+1)/alpha, for a complex A
    with Re A > 0."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise DomainError("gamma_step_identity_check requires finite alpha > 0")
    A = complex(A)
    if not (A.real > 0.0 and cmath.isfinite(A)):
        raise DomainError("gamma step check requires a finite A with Re A > 0")
    x = 2.0 * (k + 1) / alpha
    closed = cmath.exp(log_gamma(x + 1.0) - (x + 1.0) * cmath.log(2.0 * A))

    def f(tau):
        return tau ** x * np.exp(-2.0 * A * tau)

    cfg = QuadConfig(abs_tol=1e-13, rel_tol=1e-11, max_subdivisions=4000)
    peak = max(1.0, x / (2.0 * A.real))
    res = integrate_half_line(f, cfg, initial_width=4.0 * peak)
    return abs(res.value - closed) / abs(closed)
