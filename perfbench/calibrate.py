"""Machine-speed reference for times taken on a shared host.

On a host shared with other tenants the same work runs up to about 1.7
times slower for tens of seconds at a time, longer than a run, so no
statistic over one run's calls removes it.  A fixed probe load, timed in
short bursts between calls, slows down with the library's own work.  Over
2.5-second windows on a 2-vCPU host, a bergman_profile loop spread 39%
(interquartile range over median) and its ratio to this probe 5%, with the
loop's time going as the probe's to the power 1.0; a probe of 15-element
arrays tracked it worse (13%, power 0.74), as it speeds up more than the
library when the host is idle.

A call's normalised time is its wall time times REF_PROBE_S over the median
probe time of the bursts around it, that is, its time on a host where one
probe takes REF_PROBE_S.  The probe never calls szegofock, so a change to
the library cannot move it.  It does not track the inverse round trip's
larger arrays or the import; see notes.json.
"""
import statistics
import time

import numpy as np

# A nominal probe time, near the median on the host the bounds were set on
# (2 vCPUs, Python 3.11, numpy 2.4).
REF_PROBE_S = 3.5e-4
BURST = 8

_GRID = np.linspace(-3.0, 3.0, 22 * 330).reshape(22, 330)


def probe():
    """About 0.35 ms of elementwise numpy work on a 22 x 330 grid, the size
    of the library's batched inner rule (about 20 etas by 320 nodes)."""
    acc = 0.0
    for i in range(4):
        y = np.exp(-(_GRID * (1.0 + 0.01 * i)) ** 2) * np.cos(_GRID * i)
        acc += float(y.sum(axis=1) @ y[:, 0])
    return acc


def burst():
    """Times of BURST back-to-back probes."""
    out = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        probe()
        out.append(time.perf_counter() - t0)
    return out


def factor(samples):
    """Normalising factor for work done among these probe times."""
    return REF_PROBE_S / statistics.median(samples)
