"""Weight families, their derivatives, Young conjugates, and mu = (p')^{-1}.

Two families are supported:

* ``radial:alpha=a``  -- p(z) = |z|^a, a > 0 (rotation invariant),
* ``profile:alpha=a`` -- p(z) = |Re z|^a / a, a > 1 (depends on Re z only).

The Gaussian p(z) = (Re z)^2 / 2 is the profile with a = 2: ``gaussian()``
and the weight string ``gaussian`` name it, and ``format_weight`` prints it
so.  This module is the one place a weight formula is written; the
boundary kernels see the weight only through `boundary.boundary_rate`.

Everything in this module is a pure function of its arguments; WeightSpec
instances are immutable and safe to share across threads.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConvergenceError, DomainError, UnsupportedWeight
from .numerics import EPS

# alpha' -> infinity as alpha -> 1+, which destabilises every conjugate
# formula downstream, so profile exponents this close to 1 are rejected.
MIN_PROFILE_ALPHA = 1.0 + 1e-6


class WeightFamily(Enum):
    RADIAL_POWER = "radial"
    PROFILE_POWER = "profile"


@dataclass(frozen=True)
class WeightSpec:
    """A weight family together with its exponent."""

    family: WeightFamily
    alpha: float

    def __post_init__(self):
        if not isinstance(self.family, WeightFamily):
            raise DomainError("weight family must be a WeightFamily")
        a = float(self.alpha)
        object.__setattr__(self, "alpha", a)
        if not math.isfinite(a):
            raise DomainError("weight exponent alpha must be finite")
        if self.family is WeightFamily.RADIAL_POWER and a <= 0.0:
            raise DomainError("radial weight requires alpha > 0")
        if self.is_profile and a < MIN_PROFILE_ALPHA:
            raise DomainError("profile weight requires alpha >= %g" % MIN_PROFILE_ALPHA)

    @property
    def is_profile(self) -> bool:
        return self.family is WeightFamily.PROFILE_POWER

    @property
    def conjugate_alpha(self) -> float:
        """alpha' with 1/alpha + 1/alpha' = 1 (profile families only)."""
        _require_profile(self)
        return self.alpha / (self.alpha - 1.0)


def radial_power(alpha) -> WeightSpec:
    return WeightSpec(WeightFamily.RADIAL_POWER, float(alpha))


def profile_power(alpha) -> WeightSpec:
    return WeightSpec(WeightFamily.PROFILE_POWER, float(alpha))


def gaussian() -> WeightSpec:
    """p(z) = (Re z)^2 / 2: the profile weight with alpha = 2."""
    return profile_power(2.0)


def _require_profile(spec: WeightSpec):
    if not spec.is_profile:
        raise UnsupportedWeight("operation requires a profile weight family")


# |x|^alpha and |x|^(alpha-1) at alpha 1.5, 2, 3 and 4 by products and sqrt:
# within 2 ulps of numpy's pow, which costs two to three times as much
_POWERS = {1.5: (lambda t: t * np.sqrt(t), np.sqrt), 2.0: (np.square, lambda t: t),
           3.0: (lambda t: t * t * t, np.square),
           4.0: (lambda t: np.square(t * t), lambda t: t * t * t)}


def profile_p(spec: WeightSpec, x, scale=1.0):
    """scale p(x), p(x) = |x|^alpha / alpha of a profile family, on scalars or arrays.

    No family check: this runs inside the inner-integral loops.
    """
    a = spec.alpha
    return (_POWERS[a][0](np.abs(x)) if a in _POWERS else np.abs(x) ** a) / (a / scale)


def profile_dp(spec: WeightSpec, x):
    """p'(x) = sign(x) |x|^(alpha-1) of a profile family, on scalars or arrays."""
    a = spec.alpha
    return np.sign(x) * (_POWERS[a][1](np.abs(x)) if a in _POWERS else np.abs(x) ** (a - 1.0))


def eval_weight(spec: WeightSpec, z) -> float:
    """Evaluate p(z); DomainError where z or p(z) is not finite.  Profile
    families depend on Re z only."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    try:
        if spec.family is WeightFamily.RADIAL_POWER:
            return abs(z) ** spec.alpha
        with np.errstate(over="ignore"):
            p = float(profile_p(spec, z.real))
        if math.isfinite(p):
            return p
    except OverflowError:
        pass
    raise DomainError("p(z) overflows the float range")


def weight_derivatives(spec: WeightSpec, x: float) -> tuple[float, float]:
    """Return (p'(x), p''(x)) of the profile.

    For profile powers p'(x) = sign(x)|x|^(alpha-1) and
    p''(x) = (alpha-1)|x|^(alpha-2); the second derivative is singular at
    x = 0 when alpha < 2, which raises DomainError.
    """
    _require_profile(spec)
    if not math.isfinite(x):
        raise DomainError("x must be finite")
    a = spec.alpha
    if x == 0.0 and a < 2.0:
        raise DomainError("p'' is singular at x = 0 for alpha < 2")
    return float(profile_dp(spec, x)), (a - 1.0) * abs(x) ** (a - 2.0)


def _eta_power(eta, exponent, name) -> float:
    """|eta|^exponent; DomainError where eta is not finite or the power overflows."""
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError("eta must be finite")
    try:
        return abs(eta) ** exponent
    except OverflowError:
        raise DomainError("%s overflows the float range" % name) from None


def young_conjugate_closed(spec: WeightSpec, eta: float) -> float:
    """p*(eta) = sup_{x>=0} [x|eta| - p(x)] = |eta|^alpha'/alpha'."""
    ap = spec.conjugate_alpha
    return _eta_power(eta, ap, "p*(eta)") / ap


def inverse_derivative(spec: WeightSpec, eta: float) -> float:
    """mu(eta) = (p')^{-1}(|eta|) = |eta|^(1/(alpha-1)).

    Returned as a magnitude; the supremum defining p* is attained at
    x = mu(eta), and p'(mu(eta)) = |eta|.
    """
    _require_profile(spec)
    return _eta_power(eta, 1.0 / (spec.alpha - 1.0), "mu(eta)")


def young_conjugate_numeric(spec: WeightSpec, eta: float, tol: float) -> float:
    """sup_{x>=0} [x|eta| - p(x)] at the root of p'(x) = |eta|, found by bisection.

    p' increases, so the bracket [0, max(1, 2 mu(eta))] holds the root, and
    it is halved until its ends are adjacent floats; the value is taken at
    the better end.  The rounding in forming x|eta| - p(x) is then what is
    left, about 4 eps (x|eta| + p(x)); ConvergenceError where that floor
    exceeds tol, so a returned value is within tol of young_conjugate_closed.
    DomainError where x|eta| = |eta|^alpha' at the root overflows, as there.
    """
    _require_profile(spec)
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    e = abs(eta)
    mu = inverse_derivative(spec, e)
    if not math.isfinite(mu * e):
        raise DomainError("p*(eta) overflows the float range")
    lo, hi = 0.0, max(1.0, 2.0 * mu)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if profile_dp(spec, mid) < e:
            lo = mid
        else:
            hi = mid
    value, x = max((x * e - float(profile_p(spec, x)), x) for x in (lo, hi))
    floor = 4.0 * EPS * (x * e + float(profile_p(spec, x)))
    if not floor <= tol:
        raise ConvergenceError("p*(eta) = %.17g carries rounding %.3g above tol %.3g"
                               % (value, floor, tol))
    return value


def conjugate_spec(spec: WeightSpec) -> WeightSpec:
    """The weight whose profile is p*: profile(alpha) -> profile(alpha')."""
    return profile_power(spec.conjugate_alpha)


WEIGHT_GRAMMAR = "radial:alpha=<float> | profile:alpha=<float> | gaussian"


def parse_weight(text: str) -> WeightSpec:
    """Parse a weight string: radial:alpha=<f>, profile:alpha=<f>, gaussian.

    Anything else raises ValueError (a usage error in CLI contexts).
    """
    t = text.strip()
    if t == "gaussian":
        return gaussian()
    for prefix, ctor in (("radial:alpha=", radial_power), ("profile:alpha=", profile_power)):
        if t.startswith(prefix):
            try:
                a = float(t[len(prefix):])
            except ValueError:
                raise ValueError("malformed weight string %r; expected %s" % (text, WEIGHT_GRAMMAR))
            try:
                return ctor(a)
            except DomainError as exc:
                raise ValueError("invalid weight parameter in %r: %s" % (text, exc))
    raise ValueError("malformed weight string %r; expected %s" % (text, WEIGHT_GRAMMAR))


def format_weight(spec: WeightSpec) -> str:
    """The weight string parse_weight reads back as spec: the alpha = 2
    profile is ``gaussian``, and alpha the shortest repr that round-trips."""
    if spec == gaussian():
        return "gaussian"
    return "%s:alpha=%s" % (spec.family.value, repr(float(spec.alpha)).removesuffix(".0"))
