"""Helpers shared by the benchmark's driver and its in-process worker (stdlib only)."""

from __future__ import annotations

import math
import os
import time
from collections import deque

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


# Duration of `_calibration_loop` at the reference speed.  A 2-core x86-64
# VM with CPython 3.11 ran it in 0.42-0.66 ms as its host's load shifted.
CAL_REFERENCE_S = 5e-4


def _calibration_loop() -> float:
    acc = 0.0
    counts: dict[int, int] = {}
    for i in range(4000):
        k = i & 255
        acc += i * 0.5
        counts[k] = counts.get(k, 0) + 1
    return acc


def speed_scale() -> float:
    """Factor that converts a time measured now to the reference speed.

    On a shared host the speed of the same code drifts by up to 1.6x for
    tens of seconds at a time.  Timing a fixed interpreter loop right
    before each sample and scaling the sample by reference / measured
    removes most of that drift; the program under test never runs inside
    the loop, so a change to the program does not move the factor.
    """
    t0 = time.perf_counter()
    _calibration_loop()
    return CAL_REFERENCE_S / (time.perf_counter() - t0)


class SpeedTracker:
    """`speed_scale` read before each sample, smoothed by a running median
    of the last few readings: the loop itself is timed over half a
    millisecond, so single readings carry the host's short bursts."""

    def __init__(self, window: int = 5):
        self._recent: deque[float] = deque(maxlen=window)

    def scale(self) -> float:
        self._recent.append(speed_scale())
        return median(self._recent)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty list")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def source_env() -> dict[str, str]:
    """Environment that imports `lsd_wfst` from the source tree.

    Bytecode writing is forced on so that the caches fill on the first
    import and later processes are timed warm.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env
