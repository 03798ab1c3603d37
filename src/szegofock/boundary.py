"""Boundary points of the model domain Omega_p = {Im z2 > p(z1)}.

The boundary is identified with C x R: a point is a pair (z, t) with z the
first complex coordinate and t = Re z2.  Every boundary kernel sees the
weight only through the rate R = p(z) + p(w) + i(s - t) of two boundary
points (z, t) and (w, s), which `boundary_rate` forms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .weights import WeightSpec, eval_weight


@dataclass(frozen=True)
class BoundaryPoint:
    z: complex
    t: float

    def __post_init__(self):
        z = complex(self.z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)
                and math.isfinite(float(self.t))):
            raise DomainError("boundary point components must be finite")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "t", float(self.t))


def boundary_rate(spec: WeightSpec, p1: BoundaryPoint, p2: BoundaryPoint) -> complex:
    """R = p(z) + p(w) + i(s - t) for p1 = (z, t) and p2 = (w, s)."""
    return eval_weight(spec, p1.z) + eval_weight(spec, p2.z) + 1j * (p2.t - p1.t)
