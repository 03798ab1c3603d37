"""Seeded workload decks, warm-up calls and accuracy judging.

A workload is drawn as a sequence of decks.  A deck holds a fixed number
of calls of every kind the workload mixes, so its composition, and the
share of each kind in every metric, is the same on every seed; the inputs
inside a kind are drawn from the seed.  Where one input sets a call's
cost (the tau-oscillation rate and |z - w| of a boundary-kernel point, Re z
of an inverse round trip) it is Latin-hypercube stratified across the
deck's calls of that kind, so each deck spans the range evenly and the
deck's cost does not hinge on a few lucky draws.

Every draw stays inside the region where the library meets its tolerance,
so a failed call in a workload is a regression.  The known defects outside
those regions are reproduced by `defect_calls`, one fixed input each.

This module imports szegofock lazily, through `Ctx`, so that the set-up
probe times the library's own import.
"""
import cmath
import math
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("profile-bergman", "szego-triple", "radial-inverse")

# Criterion 04's configurations and acceptance, criterion 05's and 09's
# acceptances (tests/test_acceptance.py).
TIGHT = dict(abs_tol=1e-14, rel_tol=1e-11, max_subdivisions=4000)
LOOSE = dict(abs_tol=1e-9, rel_tol=1e-6)
SZEGO_REL_ACCEPT = 1e-4
ROUNDTRIP_REL_ACCEPT = 1e-3
MOMENT_REL_ACCEPT = 1e-7
REPRODUCING_ACCEPT = 1e-6

# A returned double cannot beat half an ulp of the reference; true errors
# are floored there so ratios against them stay finite.
_ULP_FLOOR = 1.2e-16
MARGIN_CAP = 16.0


class Ctx:
    """The library objects a deck needs, bound after `import szegofock`."""

    def __init__(self):
        import szegofock
        from szegofock import profile, radial, verify

        self.sf = szegofock
        self.modules = {"profile": profile, "radial": radial, "verify": verify}
        self.default = szegofock.QuadConfig()
        self.tight = szegofock.QuadConfig(**TIGHT)
        self.loose = szegofock.QuadConfig(**LOOSE)

    def resolve(self, entry):
        """Look the entry point up at call time, so installed trace
        wrappers are the ones called."""
        module, name = entry.split(".")
        return getattr(self.modules[module], name)


@dataclass
class Call:
    """One call of an entry point, with what is needed to judge it.

    `ref` computes (reference value, tolerance) from the oracle; it is
    None for calls with no cheap oracle, which count only raises.
    """

    entry: str
    args: tuple
    kind: str
    ref: object = None


def _uniform_box(rng, half):
    return complex(rng.uniform(-half, half), rng.uniform(-half, half))


def _uniform_disc(rng, radius):
    r = radius * math.sqrt(rng.uniform())
    a = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(a), r * math.sin(a))


def _lhs(rng, n, lo, hi):
    """n values in [lo, hi], one per equal bin, in random order."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * u


def _cfg_tol(cfg, ref):
    return max(cfg.abs_tol, cfg.rel_tol * abs(ref))


# --- profile-bergman -------------------------------------------------------

PB_WEIGHTS = ("gaussian", "profile:alpha=1.5", "profile:alpha=3", "profile:alpha=4")
PB_PER_CLASS = 6


def profile_bergman_deck(ctx, rng):
    """bergman_profile at the default config.  Criterion 04's tight config
    asks for errors at the float floor and raises (see defect_calls)."""
    from oracle import gaussian_bergman

    cfg = ctx.default
    calls = []
    for wname in PB_WEIGHTS:
        spec = ctx.sf.parse_weight(wname)
        for _ in range(PB_PER_CLASS):
            tau = float(rng.uniform(0.4, 2.0))
            z, w = _uniform_box(rng, 1.5), _uniform_box(rng, 1.5)
            ref = None
            if wname == "gaussian":
                def ref(tau=tau, z=z, w=w):
                    v = gaussian_bergman(tau, z, w)
                    return v, _cfg_tol(cfg, v)
            calls.append(Call("profile.bergman_profile", (spec, tau, z, w, cfg), wname, ref))
    return [calls[i] for i in rng.permutation(len(calls))]


# --- szego-triple ----------------------------------------------------------

def _boundary_pair(ctx, rng, dmag, dim, osc, spec_alpha):
    """Boundary points with z - w of modulus dmag and imaginary part dim,
    and s - t set so that the tau integrand rotates at rate `osc`.

    The Gaussian tau integrand has modulus ~ tau exp(-tau |z-w|^2 / 4) and
    phase rate osc = (s - t) - p'(Re(z + w) / 2) Im(z - w); |z - w| picks
    the decaying or the Abel branch and osc sets the panel count.
    """
    dre = math.sqrt(max(dmag * dmag - dim * dim, 0.0)) * (1 if rng.uniform() < 0.5 else -1)
    d = complex(dre, dim)
    mid = complex(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
    z, w = mid + d / 2, mid - d / 2
    x = (z.real + w.real) / 2
    slope = math.copysign(abs(x) ** (spec_alpha - 1.0), x) if x else 0.0
    sign = 1.0 if rng.uniform() < 0.5 else -1.0
    t = float(rng.uniform(-0.5, 0.5))
    s = t + sign * osc + slope * dim
    return ctx.sf.BoundaryPoint(z, t), ctx.sf.BoundaryPoint(w, s)


# Per-point cost falls with |z-w| and grows with the oscillation rate and
# |Im(z-w)|; narrow ranges keep a run's few calls alike in cost.
SZ_OSC = (0.1, 0.15)
SZ_DECAY_D = (1.4, 2.0)
SZ_DECAY_A3_D = (1.5, 2.0)
SZ_IM_HALF = 0.3
SZ_DECAY_GAUSS = 8
SZ_DECAY_A3 = 2


def szego_triple_deck(ctx, rng):
    """szego_profile on the decaying branch (|z-w| >= 0.76, |Im(z-w)| < 0.5).

    The Abel branch misses its tolerance and |Im(z-w)| >= 1 raises at the
    float floor (defect_calls), so neither is drawn here.
    """
    from oracle import gaussian_szego

    g = ctx.sf.gaussian()
    a3 = ctx.sf.profile_power(3.0)
    calls = []
    n_decay = SZ_DECAY_GAUSS + SZ_DECAY_A3
    dmags = np.concatenate([_lhs(rng, SZ_DECAY_GAUSS, *SZ_DECAY_D),
                            _lhs(rng, SZ_DECAY_A3, *SZ_DECAY_A3_D)])
    oscs = np.concatenate([_lhs(rng, n, *SZ_OSC) for n in (SZ_DECAY_GAUSS, SZ_DECAY_A3)])
    dims = np.concatenate([_lhs(rng, n, -SZ_IM_HALF, SZ_IM_HALF)
                           for n in (SZ_DECAY_GAUSS, SZ_DECAY_A3)])
    for i in range(n_decay):
        dim = float(dims[i])
        if i < SZ_DECAY_GAUSS:
            p1, p2 = _boundary_pair(ctx, rng, dmags[i], dim, oscs[i], 2.0)

            def ref(p1=p1, p2=p2):
                v = gaussian_szego(p1.z, p1.t, p2.z, p2.t)
                return v, SZEGO_REL_ACCEPT * abs(v)
            calls.append(Call("profile.szego_profile", (g, p1, p2, ctx.loose),
                              "decay/gaussian", ref))
        else:
            p1, p2 = _boundary_pair(ctx, rng, dmags[i], dim, oscs[i], 3.0)
            calls.append(Call("profile.szego_profile", (a3, p1, p2, ctx.loose),
                              "decay/profile:alpha=3"))
    return [calls[i] for i in rng.permutation(len(calls))]


# --- radial-inverse --------------------------------------------------------

RI_ALPHAS = (1.0, 2.0, 3.0)
RI_SERIES_PER_ALPHA = 4
# The series loses digits to cancellation once 2 tau |z w|^(alpha/2) passes
# about 10; a disc of radius 2^(1/alpha) with tau <= 2 keeps it below 8.
RI_SERIES_SIZE = 8.0
RI_LAPLACE_PER_ALPHA = 24
# Criterion 03 excludes |q| > 0.999; the Laplace tail estimate misses for
# |q| >= 0.997, so this workload stops at 0.99.
RI_Q_MAX = 0.99
RI_ROUNDTRIPS = 1
RI_MOMENTS = 2
RI_REPRODUCING = 2


def _criterion03_pair(ctx, rng, alpha, q_max=0.999):
    """Criterion 03's draw, with its two exclusions: p(z) + p(w) < 0.2 and
    the boundary-diagonal neighbourhood |q| > q_max."""
    while True:
        z, w = _uniform_box(rng, 1.5), _uniform_box(rng, 1.5)
        t, s = (float(v) for v in rng.uniform(-1.5, 1.5, size=2))
        if abs(z) ** alpha + abs(w) ** alpha < 0.2:
            continue
        A = 0.5 * (abs(z) ** alpha + abs(w) ** alpha + 1j * (s - t))
        if abs(z * w.conjugate() * A ** (-2.0 / alpha)) > q_max:
            continue
        return ctx.sf.BoundaryPoint(z, t), ctx.sf.BoundaryPoint(w, s)


def radial_inverse_deck(ctx, rng):
    from oracle import gaussian_bergman, moment, radial_series, szego_radial

    cfg = ctx.default
    calls = []
    for alpha in RI_ALPHAS:
        radius = (RI_SERIES_SIZE / 4.0) ** (1.0 / alpha)
        for _ in range(RI_SERIES_PER_ALPHA):
            tau = float(rng.uniform(0.4, 2.0))
            z, w = _uniform_disc(rng, radius), _uniform_disc(rng, radius)

            def ref(alpha=alpha, tau=tau, z=z, w=w):
                v = radial_series(alpha, tau, z, w)[0]
                return v, _cfg_tol(cfg, v)
            calls.append(Call("radial.bergman_radial_series", (alpha, tau, z, w, cfg),
                              "series/alpha=%g" % alpha, ref))
        for _ in range(RI_LAPLACE_PER_ALPHA):
            p1, p2 = _criterion03_pair(ctx, rng, alpha, RI_Q_MAX)

            def ref(alpha=alpha, p1=p1, p2=p2):
                v = szego_radial(alpha, p1.z, p1.t, p2.z, p2.t)
                return v, _cfg_tol(cfg, v)
            calls.append(Call("radial.szego_radial_via_laplace", (alpha, p1, p2, cfg),
                              "laplace/alpha=%g" % alpha, ref))
    # Round trips on the diagonal z = w, where criterion 05 checks them;
    # off it they miss 1e-3 (defect_calls).
    re_z = _lhs(rng, RI_ROUNDTRIPS, 0.0, 1.0)
    for i in range(RI_ROUNDTRIPS):
        tau = float(rng.uniform(0.8, 1.2))
        z = complex(re_z[i] * (1 if rng.uniform() < 0.5 else -1), rng.uniform(-1.0, 1.0))

        def ref(tau=tau, z=z):
            v = gaussian_bergman(tau, z, z)
            return v, ROUNDTRIP_REL_ACCEPT * abs(v)
        calls.append(Call("profile.bergman_roundtrip_extrapolated", (tau, z, z, cfg),
                          "roundtrip/gaussian", ref))
    for _ in range(RI_MOMENTS):
        alpha = float(rng.choice(RI_ALPHAS))
        tau = float(rng.uniform(0.5, 2.0))
        k = int(rng.integers(0, 3))

        def ref(alpha=alpha, tau=tau, k=k):
            v = moment(alpha, tau, k)
            return v, MOMENT_REL_ACCEPT * abs(v)
        calls.append(Call("verify.moment_oracle", (alpha, tau, k, cfg),
                          "moment/alpha=%g" % alpha, ref))
    for _ in range(RI_REPRODUCING):
        alpha = float(rng.choice(RI_ALPHAS))
        tau = float(rng.uniform(0.5, 1.5))
        j = int(rng.integers(0, 5))
        z = _uniform_disc(rng, 1.0)
        # the residual |int K(z, .) w^j dmu - z^j| is exactly 0
        calls.append(Call("verify.reproducing_check", (alpha, tau, j, z, cfg),
                          "reproducing/alpha=%g" % alpha,
                          lambda: (0.0, REPRODUCING_ACCEPT)))
    return [calls[i] for i in rng.permutation(len(calls))]


DECKS = {
    "profile-bergman": profile_bergman_deck,
    "szego-triple": szego_triple_deck,
    "radial-inverse": radial_inverse_deck,
}


def warmup_calls(ctx, workload):
    """One cheap call per (entry point, weight) the workload uses."""
    sf = ctx.sf
    if workload == "profile-bergman":
        return [("profile.bergman_profile", (sf.parse_weight(w), 1.0, 0.3 + 0.1j, -0.2 + 0.4j, ctx.default))
                for w in PB_WEIGHTS]
    if workload == "szego-triple":
        p1, p2 = sf.BoundaryPoint(1.5 + 0j, 0.0), sf.BoundaryPoint(-1.5 + 0j, 0.0)
        return [("profile.szego_profile", (spec, p1, p2, ctx.loose))
                for spec in (sf.gaussian(), sf.profile_power(3.0))]
    p1, p2 = sf.BoundaryPoint(0.5 + 0.2j, 0.1), sf.BoundaryPoint(-0.3 + 0.4j, -0.2)
    out = []
    for a in RI_ALPHAS:
        out += [("radial.bergman_radial_series", (a, 1.0, 0.5 + 0.2j, -0.3 + 0.4j, ctx.default)),
                ("radial.szego_radial_via_laplace", (a, p1, p2, ctx.default)),
                ("verify.moment_oracle", (a, 1.0, 1, ctx.default)),
                ("verify.reproducing_check", (a, 1.0, 1, 0.5 + 0.1j, ctx.default))]
    out.append(("profile.bergman_roundtrip_extrapolated", (1.0, 0.3 + 0.1j, 0.3 + 0.1j, ctx.default)))
    return out


def warm_up(ctx, workload):
    for entry, args in warmup_calls(ctx, workload):
        try:
            ctx.resolve(entry)(*args)
        except ctx.sf.SzegofockError:
            pass  # the call still exercised, and warmed, its path


@dataclass
class Outcome:
    """What one call did, and how it was judged."""

    kind: str
    entry: str
    args: str
    seconds: float
    raised: BaseException = None
    value: complex = None
    estimate: float = None
    n_evals: int = None
    method: str = None
    checked: bool = False
    true_err: float = None
    ref_abs: float = None
    tol: float = None
    failed: bool = False
    norm_seconds: float = None

    @property
    def margin_digits(self):
        if not math.isfinite(self.true_err):
            return -MARGIN_CAP
        if self.true_err == 0.0:
            return MARGIN_CAP
        return min(MARGIN_CAP, math.log10(self.tol / self.true_err))

    def describe_failure(self):
        if self.raised is not None:
            return repr(self.raised)
        if self.true_err is None:
            return "non-finite value %r" % self.value
        return "err %.3g > tol %.3g" % (self.true_err, self.tol)


def unpack(result):
    """(value, estimate, n_evals, method) of an EvalResult or a float."""
    if hasattr(result, "n_evals"):
        return complex(result.value), float(result.abs_err_estimate), int(result.n_evals), result.method
    return complex(result), None, None, None


def judge(call, out):
    """Fill in accuracy and failure fields of `out` for `call`: a call fails
    if it raised, returned a non-finite value, or missed its tolerance."""
    from oracle import abs_error

    if out.raised is not None:
        out.failed = True
        return out
    if call.ref is None:
        # no oracle, but a silent inf or nan is wrong whatever the reference
        out.failed = not cmath.isfinite(out.value)
        return out
    ref, tol = call.ref()
    out.checked = True
    out.tol = tol
    out.true_err = abs_error(out.value, ref)
    out.ref_abs = abs(ref)
    out.failed = not out.true_err <= tol  # a nan error fails too
    return out


def err_floor(out):
    return max(out.true_err, _ULP_FLOOR * out.ref_abs, 1e-300)


def defect_calls(ctx):
    """(defect id, call) for one fixed input of each known defect that an
    input reproduces (notes.json lists them all).  A defect reproduces when
    its call fails, or returns an error estimate below its true error."""
    from oracle import gaussian_bergman, gaussian_szego, radial_series, szego_radial

    sf, cfg, BP = ctx.sf, ctx.default, ctx.sf.BoundaryPoint

    def ref(oracle, accept):
        """accept: a QuadConfig (its tolerance) or a relative acceptance."""
        def judged():
            v = oracle()
            return v, accept * abs(v) if isinstance(accept, float) else _cfg_tol(accept, v)
        return judged

    a15, a4 = sf.profile_power(1.5), sf.profile_power(4.0)
    floor = (BP(0.18343226883801267 - 0.33150979398458535j, 0.09029098228971466),
             BP(-0.1454480961812442 + 0.9280045276882244j, 0.18975668840137316))
    abel = (BP(-0.17120345235059753 + 0.3673585963815835j, -0.15931382414349093),
            BP(-0.21577118468206113 + 0.3979232233211636j, -0.3657294302107026))
    tail = (BP(1.2586963292605642 + 0.2770203802947886j, 0.3256170062422039),
            BP(-1.2127028257221546 - 0.6972098784788424j, 0.32436501784149874))
    rows = [
        ("profile-alpha1.5-tight-raise", "profile.bergman_profile",
         (a15, 1.2919433100044269, 0.24258609613926585 - 0.5472879414911842j,
          0.15733949247373125 - 0.8577096966811935j, ctx.tight), None),
        ("profile-tight-floor-raise", "profile.bergman_profile",
         (a4, 1.817900551825164, -1.4549416693483073 + 1.4643827353646168j,
          -1.4694100102620753 - 0.6660783543816066j, ctx.tight), None),
        ("szego-floor-raise", "profile.szego_profile", (sf.gaussian(), *floor, ctx.loose),
         ref(lambda: gaussian_szego(floor[0].z, floor[0].t, floor[1].z, floor[1].t),
             SZEGO_REL_ACCEPT)),
        ("szego-abel-miss", "profile.szego_profile", (sf.gaussian(), *abel, ctx.loose),
         ref(lambda: gaussian_szego(abel[0].z, abel[0].t, abel[1].z, abel[1].t),
             SZEGO_REL_ACCEPT)),
        ("radial-series-cancellation", "radial.bergman_radial_series",
         (2.0, 1.0, 2.7 + 0j, -2.7 + 0j, cfg),
         ref(lambda: radial_series(2.0, 1.0, 2.7, -2.7)[0], cfg)),
        ("radial-series-growth-raise", "radial.bergman_radial_series",
         (3.0, 2.0, 3.0 + 0j, 3.0 + 0j, cfg), None),
        ("laplace-tail-miss", "radial.szego_radial_via_laplace", (1.0, *tail, cfg),
         ref(lambda: szego_radial(1.0, tail[0].z, tail[0].t, tail[1].z, tail[1].t), cfg)),
        ("roundtrip-miss", "profile.bergman_roundtrip_extrapolated",
         (0.94, -0.6 + 0.31j, -0.54 + 0.36j, cfg),
         ref(lambda: gaussian_bergman(0.94, -0.6 + 0.31j, -0.54 + 0.36j), ROUNDTRIP_REL_ACCEPT)),
        ("roundtrip-estimate-low", "profile.bergman_roundtrip_extrapolated",
         (1.0, 0j, 0j, cfg), ref(lambda: gaussian_bergman(1.0, 0j, 0j), ROUNDTRIP_REL_ACCEPT)),
    ]
    return [(name, Call(entry, args, name, judged)) for name, entry, args, judged in rows]
