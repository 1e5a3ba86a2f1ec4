"""Speed probe: what is one second worth on this machine right now?

On the sandbox this benchmark was written on, identical single-threaded
work runs at 1.0–1.8× its best time depending on what the host is doing,
and the slow state lasts from a second to several minutes — longer than
a whole benchmark run, so no statistic over replayed passes alone can
strip it (the per-op minimum over five passes still spread 7 % IQR / 21 %
range over an hour of same-seed runs).

The probe is a fixed ≈1.4 ms kernel of interpreter-bound scalar work
over small numpy arrays plus a few small matrix products — the same
kind of instructions the system under test spends its time on.  The
drivers run it between ops, and a latency is reported in *reference
seconds*: ``wall × NOMINAL_S / probe`` with ``probe`` the mean of the
probes on either side of the timed section.  The slope of
log(op latency) on log(adjacent probe) over 60 passes × 120 ops was
0.89, i.e. the probe slows down by about as much as the ops do.

The kernel must never call into ``src/``: an optimisation of the system
must not speed its own yardstick up.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: The kernel's time in the machine's fast state (minimum over 7 000
#: probes on the reference box).  Only fixes the unit: with it, reference
#: seconds equal wall seconds when the machine runs undisturbed.
NOMINAL_S = 0.00135

_rng = np.random.default_rng(0)
_STEPS = 3000
_INDEX = _rng.integers(0, 512, _STEPS)
_WEIGHT = _rng.random(512)
_BIAS = _rng.random(512) - 0.5
_STATE = _rng.random(256) - 0.5
_MATRIX = _rng.random((64, 64))
_VECTOR = _rng.random(64)
del _rng


def _kernel() -> float:
    acc = 0.0
    seen = {}
    for step in range(_STEPS):
        slot = _INDEX[step]
        x = _WEIGHT[slot] * _STATE[step & 255] + _BIAS[slot]
        if x > 0:
            acc += math.exp(-x)
        else:
            acc -= x
        seen[step & 63] = acc
    for _ in range(10):
        acc += float((_VECTOR @ _MATRIX).sum())
    return acc


def probe() -> float:
    """Seconds one kernel run takes right now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def reference_seconds(wall: float, before: float, after: float) -> float:
    """``wall`` seconds measured between two probes, in reference seconds."""
    return wall * NOMINAL_S / ((before + after) / 2.0)
