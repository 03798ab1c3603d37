"""Independent high-precision references, computed with mpmath at 30 digits.

Nothing here imports szegofock: every formula is written out again from
its mathematical statement, so a reference can only agree with the library
by being right.  The benchmark evaluates references outside the timed
region.
"""
import mpmath as mp

mp.mp.dps = 30

_TWO_PI = 2 * mp.pi


def _c(z):
    return mp.mpc(complex(z).real, complex(z).imag)


def radial_series(alpha, tau, z, w):
    """The radial kernel series to 30 significant digits of its value.

    Cancellation between terms costs digits; the working precision is
    raised until the value keeps 30 of them.  Returns (value, largest term
    magnitude), whose ratio measures that cancellation.
    """
    dps = mp.mp.dps
    while True:
        with mp.workdps(dps):
            value, top = _radial_series(alpha, tau, z, w)
            lost = float(mp.log10(top / max(abs(value), mp.mpf(10) ** -(dps + 10))))
        if lost <= dps - 30:
            return complex(value), float(top)
        dps = int(lost) + 40


def _radial_series(alpha, tau, z, w):
    """sum_k c_k (z conj w)^k, c_k = (alpha/2pi) (2tau)^x / Gamma(x), x = 2(k+1)/alpha.

    When x_{k+L} - x_k = 2L/alpha is a whole number n for some lag L <= 8,
    c_{k+L} follows from c_k by Gamma(x + n) = x (x+1) ... (x+n-1) Gamma(x).
    """
    alpha = mp.mpf(alpha)
    zw = _c(z) * mp.conj(_c(w))
    two_tau = 2 * mp.mpf(tau)
    lag = next((L for L in range(1, 9) if mp.almosteq(2 * L / alpha, mp.nint(2 * L / alpha), 1e-25)), None)
    if lag is not None:
        steps = int(mp.nint(2 * lag / alpha))
        lag_factor = mp.power(two_tau, 2 * lag / alpha)
    cutoff = mp.mpf(10) ** -(mp.mp.dps + 2)
    coefs = []
    total = mp.mpc(0)
    top = mp.mpf(0)
    prev = None
    power = mp.mpc(1)
    k = 0
    while True:
        x = 2 * (k + 1) / alpha
        if lag is not None and k >= lag:
            c = coefs[k - lag] * lag_factor
            xp = x - steps
            for j in range(steps):
                c /= xp + j
        else:
            c = alpha / _TWO_PI * mp.exp(x * mp.log(two_tau) - mp.loggamma(x))
        coefs.append(c)
        term = c * power
        total += term
        mag = abs(term)
        top = max(top, mag)
        if k > 8 and mag < prev and mag <= cutoff * top:
            return total, top
        prev = mag
        power *= zw
        k += 1


def szego_radial(alpha, z, t, w, s):
    """(1/2pi) A^(-1-2/alpha) (1 - z conj w A^(-2/alpha))^-2, principal branch,
    A = (|z|^alpha + |w|^alpha + i(s - t)) / 2."""
    alpha = mp.mpf(alpha)
    z, w = _c(z), _c(w)
    A = (abs(z) ** alpha + abs(w) ** alpha + 1j * (mp.mpf(s) - mp.mpf(t))) / 2
    q = z * mp.conj(w) * mp.power(A, -2 / alpha)
    return complex(mp.power(A, -1 - 2 / alpha) * (1 - q) ** -2 / _TWO_PI)


def gaussian_bergman(tau, z, w):
    """(tau / 2pi) exp(tau (z + conj w)^2 / 4)."""
    u = _c(z) + mp.conj(_c(w))
    return complex(mp.mpf(tau) / _TWO_PI * mp.exp(mp.mpf(tau) * u * u / 4))


def gaussian_szego(z, t, w, s):
    """(1/2pi) E^-2 with E = (z + conj w)^2/4 - (Re z)^2/2 - (Re w)^2/2 - i(s - t)."""
    z, w = _c(z), _c(w)
    E = ((z + mp.conj(w)) ** 2 / 4 - mp.re(z) ** 2 / 2 - mp.re(w) ** 2 / 2
         - 1j * (mp.mpf(s) - mp.mpf(t)))
    return complex(E ** -2 / _TWO_PI)


def moment(alpha, tau, k):
    """int_C |z|^2k e^{-2 tau |z|^alpha} = (2pi/alpha) (2tau)^-x Gamma(x), x = 2(k+1)/alpha."""
    alpha = mp.mpf(alpha)
    x = 2 * (k + 1) / alpha
    return float(_TWO_PI / alpha * mp.power(2 * mp.mpf(tau), -x) * mp.gamma(x))


def abs_error(value, reference):
    """|value - reference| evaluated in extended precision."""
    return float(abs(_c(value) - _c(reference)))
