"""Scan log I(eta, tau) from `_log_inner` against an mpmath reference.

    PYTHONPATH=src python tests/scan_log_inner.py

runs one row per (alpha, tau, eta, rtol) of the grid below, 2,070 rows, at
alpha 1.001-3, at the even alpha 52-1000 past the trapezoid rule's range,
and at the conjugate exponents alpha' = alpha / (alpha - 1) of alpha
1.0005-1.3, whose walls at |r| = 1 are 1/(alpha' - 1) wide.  A row
is wrong where its error passes rtol max(1, |log I|), or the error that
`_log_inner` gives it, which `inner_integral` charges to I.  The script
prints each wrong value or short estimate, each raise other than the
float-range DomainError, and each RuntimeWarning, and exits non-zero if
there is any.  It also prints the engine's evaluation total at each rtol,
summed from `_log_inner`'s n_evals, so a change to the rule's ladder shows
its cost in the log.  It takes about a minute, mostly in the reference;
pytest does not collect it, and `test_log_inner_wall_slice_against_mpmath`
runs a slice of it.
"""
import collections
import itertools
import sys
import warnings

from szegofock import DomainError, profile_power
from szegofock.profile import _log_inner
from szegofock.weights import conjugate_spec

ALPHAS = (1.001, 1.005, 1.01, 1.05, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0, 2.5, 3.0,
          52.0, 100.0, 400.0, 1000.0)
DUALS = (1.0005, 1.001, 1.005, 1.01, 1.05, 1.1, 1.3)  # scanned at alpha / (alpha - 1)
TAUS = (0.05, 0.3, 1.0, 5.0, 60.0)
ETAS = (0.0, 0.001, 0.3, 1.0, 30.0, 1e3)
RTOLS = (1e-8, 5e-10, 1e-13)


def mpmath_log_inner(mpmath, alpha, tau, eta, dps=30):
    """log I(eta, tau) for p = |x|^alpha / alpha by mpmath.quad at dps digits.

    The integrand is taken in the offset d = r - c from the peak c =
    sign(eta) mu(eta), as exp(-2 tau D(c + d, c)) with D the Bregman
    divergence of p written out, so dps must cover the cancellation of its
    terms of size |c|^alpha.  The integrand is log-concave with its peak 1
    at d = 0, so once it is below 1e-40 at -+H the tails beyond hold less
    than 1e-40 H; H doubles from the eta = 0 decay length until that holds.
    The quadrature is split at -+H, -+H/8, 0 and r = 0, and above alpha 4
    also at the walls r = -+1 and at points graded about each on the scale
    1/p''(1) = 1/(alpha - 1), where a tanh-sinh panel holding a wall would
    miss it.
    """
    with mpmath.workdps(dps):
        a, tau, eta = mpmath.mpf(alpha), mpmath.mpf(tau), mpmath.mpf(eta)
        ap = a / (a - 1)
        c = mpmath.sign(eta) * abs(eta) ** (1 / (a - 1))
        pc, dpc = abs(c) ** a / a, mpmath.sign(c) * abs(c) ** (a - 1)

        def f(d):
            return mpmath.exp(-2 * tau * (abs(c + d) ** a / a - pc - dpc * d))

        H = (45 * a / (2 * tau)) ** (1 / a)
        while f(-H) > 1e-40 or f(H) > 1e-40:
            H *= 2
        pts = {-H, -H / 8, 0, H / 8, H, -c}
        if alpha > 4.0:
            pts.update(side * (1 + k / (a - 1)) - c
                       for side in (-1, 1) for k in (-32, -8, -2, 0, 2, 8, 32))
        pts = sorted(d for d in pts if -H <= d <= H)
        return float(2 * tau * abs(eta) ** ap / ap + mpmath.log(mpmath.quad(f, pts)))


def scan(mpmath, alphas, taus, etas, rtols, evals=None):
    """The rows of the grid that fail, one line each: a wrong value, a short
    estimate, a raise other than the float-range DomainError, or a
    RuntimeWarning.  evals, a Counter if given, gains each rtol's n_evals."""
    failures = []
    for alpha, tau, eta in itertools.product(alphas, taus, etas):
        spec, ref = profile_power(alpha), None
        for rtol in rtols:
            row = "alpha %.6g tau %g eta %g rtol %g" % (alpha, tau, eta, rtol)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    got, est, n_evals = _log_inner(spec, tau, eta, rtol)
            except DomainError as exc:
                if "float range" not in str(exc):
                    failures.append("%s: DomainError: %s" % (row, exc))
                continue
            except Exception as exc:  # a RuntimeWarning raises here too
                failures.append("%s: %s: %s" % (row, type(exc).__name__, exc))
                continue
            if evals is not None:
                evals[rtol] += n_evals
            if ref is None:
                ref = mpmath_log_inner(mpmath, alpha, tau, eta, 80 if alpha < 1.05 else 30)
            miss = abs(got - ref) / (rtol * max(1.0, abs(ref)))
            short = abs(got - ref) / est
            if not (miss <= 1.0 and short <= 1.0):
                failures.append("%s: %.16g against %.16g, %.3g rtol, %.3g estimates"
                                % (row, got, ref, miss, short))
    return failures


def main():
    import mpmath

    alphas = ALPHAS + tuple(conjugate_spec(profile_power(a)).alpha for a in DUALS)
    evals = collections.Counter()
    failures = scan(mpmath, alphas, TAUS, ETAS, RTOLS, evals)
    for line in failures:
        print(line)
    for rtol in RTOLS:
        print("rtol %g: %d evaluations" % (rtol, evals[rtol]))
    n_rows = len(alphas) * len(TAUS) * len(ETAS) * len(RTOLS)
    print("%d of %d rows fail" % (len(failures), n_rows))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
