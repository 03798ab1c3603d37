"""Tour of the Gaussian profile weight p(z) = (Re z)^2 / 2.

Everything has a closed form here, which makes the quadrature machinery
fully checkable: the inner Laplace-type integral, the kernel as a nested
quadrature, the boundary kernel as a triple integral, and the regularized
inverse that reconstructs the kernel from boundary data.

Run:  python demos/gaussian_profile_tour.py
"""
import math

from szegofock import (
    BoundaryPoint,
    NearSingular,
    QuadConfig,
    bergman_gaussian_closed,
    bergman_profile,
    bergman_roundtrip_extrapolated,
    gaussian,
    inner_integral,
    szego_gaussian_closed,
    szego_profile,
)

g = gaussian()
cfg = QuadConfig()
loose = QuadConfig(abs_tol=1e-9, rel_tol=1e-6)

print("=== inner integral I(eta, tau) = int exp(2 tau (r eta - r^2/2)) dr ===")
print("Closed form sqrt(pi/tau) exp(tau eta^2):\n")
for tau, eta in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, -1.5)):
    got = inner_integral(g, tau, eta, cfg).value.real
    exact = math.sqrt(math.pi / tau) * math.exp(tau * eta * eta)
    print(f"  tau={tau} eta={eta:+.1f}:  quadrature {got:.10f}   closed {exact:.10f}")

print("\n=== kernel by homogeneity-reduced trapezoid rule vs closed form ===")
print("K_tau(z, w) = (tau/2pi) exp((tau/4)(z + conj w)^2):\n")
for tau, z, w in ((1.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2.0, 1 + 1j, 1 - 1j)):
    got = bergman_profile(g, tau, z, w, cfg).value
    exact = bergman_gaussian_closed(tau, z, w).value
    print(f"  tau={tau} z={z} w={w}:")
    print(f"    quadrature {got:.10f}")
    print(f"    closed     {exact:.10f}")

print("\n=== boundary kernel: triple integral vs closed form ===")
p1, p2 = BoundaryPoint(1.0, 0.0), BoundaryPoint(0.0, 0.0)
trip = szego_profile(g, p1, p2, loose)
print(f"  damped point   : triple {trip.value:.8f} [{trip.method}]")
print(f"                   closed {szego_gaussian_closed(p1, p2).value:.8f}  (= 8/pi)")
p1, p2 = BoundaryPoint(0.0, 0.0), BoundaryPoint(0.0, 1.0)
trip = szego_profile(g, p1, p2, loose)
print(f"  rotating point : triple {trip.value:.6f} [{trip.method}]")
print(f"                   closed {szego_gaussian_closed(p1, p2).value:.6f}  (= -1/2pi)")
try:
    szego_profile(g, BoundaryPoint(1.0, 0.0), BoundaryPoint(1.0, 0.0), loose)
except NearSingular as exc:
    print(f"  boundary diagonal -> NearSingular: {exc}")

print("\n=== regularized inverse: kernel from boundary data ===")
print("The damped double integral over boundary times, extrapolated in the")
print("damper strength, reconstructs the kernel:")
for z, w in ((0.0, 0.0), (1.0, 1.0)):
    got = bergman_roundtrip_extrapolated(1.0, z, w)
    exact = bergman_gaussian_closed(1.0, z, w).value
    rel = abs(got.value - exact) / abs(exact)
    print(f"  z=w={z}: reconstructed {got.value.real:.7f}   closed {exact.real:.7f}"
          f"   rel gap {rel:.1e}")
