"""Weight families, their derivatives, Young conjugates, and mu = (p')^{-1}.

Three families are supported:

* ``radial:alpha=a``  -- p(z) = |z|^a, a > 0 (rotation invariant),
* ``profile:alpha=a`` -- p(z) = |Re z|^a / a, a > 1 (depends on Re z only),
* ``gaussian``        -- p(z) = (Re z)^2 / 2, identical to profile with a = 2.

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

# alpha' -> infinity as alpha -> 1+, which destabilises every conjugate
# formula downstream, so profile exponents this close to 1 are rejected.
MIN_PROFILE_ALPHA = 1.0 + 1e-6

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class WeightFamily(Enum):
    RADIAL_POWER = "radial"
    PROFILE_POWER = "profile"
    GAUSSIAN_PROFILE = "gaussian"


@dataclass(frozen=True)
class WeightSpec:
    """A weight family together with its exponent.

    For GAUSSIAN_PROFILE the exponent is fixed at 2; the family evaluates
    identically to PROFILE_POWER with alpha = 2.
    """

    family: WeightFamily
    alpha: float = 2.0

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a):
            raise DomainError("weight exponent must be finite")
        if self.family is WeightFamily.RADIAL_POWER:
            if a <= 0.0:
                raise DomainError("radial weight requires alpha > 0")
        elif self.family is WeightFamily.PROFILE_POWER:
            if a < MIN_PROFILE_ALPHA:
                raise DomainError(
                    "profile weight requires alpha >= %g" % MIN_PROFILE_ALPHA
                )
        elif self.family is WeightFamily.GAUSSIAN_PROFILE:
            object.__setattr__(self, "alpha", 2.0)

    @property
    def is_profile(self) -> bool:
        return self.family in (WeightFamily.PROFILE_POWER, WeightFamily.GAUSSIAN_PROFILE)

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
    return WeightSpec(WeightFamily.GAUSSIAN_PROFILE)


def _require_profile(spec: WeightSpec):
    if not spec.is_profile:
        raise UnsupportedWeight("operation requires a profile weight family")


# |x|^alpha and |x|^(alpha-1) at alpha 1.5, 2, 3 and 4 by products and sqrt:
# within 2 ulps of numpy's pow, which costs two to three times as much
_POWERS = {1.5: (lambda t: t * np.sqrt(t), np.sqrt), 2.0: (np.square, lambda t: t),
           3.0: (lambda t: t * t * t, np.square),
           4.0: (lambda t: np.square(t * t), lambda t: t * t * t)}


def profile_p(spec: WeightSpec, x):
    """p(x) = |x|^alpha / alpha of a profile family, on scalars or arrays.

    No family check: this runs inside the inner-integral loops, and the
    Gaussian's alpha is pinned to 2 by WeightSpec.
    """
    a = spec.alpha
    return (_POWERS[a][0](np.abs(x)) if a in _POWERS else np.abs(x) ** a) / a


def profile_dp(spec: WeightSpec, x):
    """p'(x) = sign(x) |x|^(alpha-1) of a profile family, on scalars or arrays."""
    a = spec.alpha
    return np.sign(x) * (_POWERS[a][1](np.abs(x)) if a in _POWERS else np.abs(x) ** (a - 1.0))


def eval_weight(spec: WeightSpec, z) -> float:
    """Evaluate p(z).  Profile families depend on Re z only."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError("z must be finite")
    if spec.family is WeightFamily.RADIAL_POWER:
        return abs(z) ** spec.alpha
    return float(profile_p(spec, z.real))


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
    ax = abs(x)
    if ax == 0.0:
        if a < 2.0:
            raise DomainError("p'' is singular at x = 0 for alpha < 2")
        p2 = 1.0 if a == 2.0 else 0.0
        return 0.0, p2
    return float(profile_dp(spec, x)), (a - 1.0) * ax ** (a - 2.0)


def young_conjugate_closed(spec: WeightSpec, eta: float) -> float:
    """p*(eta) = sup_{x>=0} [x|eta| - p(x)] = |eta|^alpha'/alpha'."""
    _require_profile(spec)
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError("eta must be finite")
    ap = spec.conjugate_alpha
    try:
        return abs(eta) ** ap / ap
    except OverflowError:
        raise DomainError("p*(eta) overflows the float range") from None


def inverse_derivative(spec: WeightSpec, eta: float) -> float:
    """mu(eta) = (p')^{-1}(|eta|) = |eta|^(1/(alpha-1)).

    Returned as a magnitude; the supremum defining p* is attained at
    x = mu(eta), and p'(mu(eta)) = |eta|.
    """
    _require_profile(spec)
    eta = float(eta)
    if not math.isfinite(eta):
        raise DomainError("eta must be finite")
    try:
        return abs(eta) ** (1.0 / (spec.alpha - 1.0))
    except OverflowError:
        raise DomainError("mu(eta) overflows the float range") from None


def young_conjugate_numeric(spec: WeightSpec, eta: float, tol: float) -> float:
    """Locate sup_{x>=0} [x|eta| - p(x)] by bracketing and golden-section.

    The bracket [0, max(1, 2 mu(eta))] always contains the unique
    stationary point since p is strictly convex on these families.
    Agrees with young_conjugate_closed to within tol.
    """
    _require_profile(spec)
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    e = abs(eta)
    mu = inverse_derivative(spec, e)

    def g(x):
        return x * e - float(profile_p(spec, x))

    lo, hi = 0.0, max(1.0, 2.0 * mu)
    # value error ~ |g''| * width^2 / 8; g'' = -p'' is bounded on the bracket
    p2_cap = max(1.0, (spec.alpha - 1.0) * max(1.0, hi) ** max(spec.alpha - 2.0, 0.0))
    xtol = max(1e-13, math.sqrt(8.0 * tol / p2_cap) / 4.0)

    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    gc, gd = g(c), g(d)
    for _ in range(300):
        if hi - lo <= xtol:
            break
        if gc >= gd:
            hi, d, gd = d, c, gc
            c = hi - _GOLDEN * (hi - lo)
            gc = g(c)
        else:
            lo, c, gc = c, d, gd
            d = lo + _GOLDEN * (hi - lo)
            gd = g(d)
    else:
        raise ConvergenceError("golden-section bracket did not reach tolerance")
    best = max(gc, gd, g(0.5 * (lo + hi)), 0.0)
    return best


def conjugate_spec(spec: WeightSpec) -> WeightSpec:
    """The weight whose profile is p*: profile(alpha) -> profile(alpha')."""
    _require_profile(spec)
    if spec.family is WeightFamily.GAUSSIAN_PROFILE:
        return spec
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
    if spec.family is WeightFamily.GAUSSIAN_PROFILE:
        return "gaussian"
    return "%s:alpha=%g" % (spec.family.value, spec.alpha)
