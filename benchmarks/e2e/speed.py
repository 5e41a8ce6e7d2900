"""Measuring how fast the machine is, moment by moment, and calibrating
the benchmark's timings with it.

Shared 2-core sandboxes do not run at one speed: each core switches
between a fast and a 10-40 % slower state every few seconds, for seconds
at a time, independently of the other core.  A 10-second run lands in an
arbitrary mix, and raw timings of identical code differ by 10-20 %
between runs — wider than any bound worth gating on.  The benchmark
therefore reports **calibrated** times: every wall-clock interval is
divided by the machine's slowdown during that interval.

The slowdown is measured by a probe: one fixed piece of interpreter work
(8 000 loop iterations, ~0.3 ms), executed *inline* by the thread that
runs the statements, between statements, at most every 20 ms, timed in
thread CPU time (so waiting for the GIL or a core does not read as a
slow machine).  Inline, because the noise is per core: a probe in a
sidecar process tracked its own core, not the workload's.  Bytecode,
because that is what this program spends its time on: against a fixed
query a bytecode probe removed four fifths of the run-to-run variation,
a numpy sort half, a memory-bound gather a third.

``slowdown(t)`` is the median-of-5 smoothed probe time around ``t`` over
``REFERENCE_SECONDS``, a constant — not this run's best, which drifts by
5 % when a whole run never sees the fast state.  A calibrated time is
therefore "seconds on a machine whose interpreter runs the probe in
``REFERENCE_SECONDS``"; ``bench.calib_ms`` reports what the probe takes
on the machine at hand, so results from other machines can be compared.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: The probe's duration on a quiet core of the sandbox this benchmark
#: was defined on.  Only a unit: parent and change use the same one.
REFERENCE_SECONDS = 0.00029
INTERVAL_SECONDS = 0.02
#: Fewer samples than this and times are reported uncalibrated.
_MIN_SAMPLES = 20


def probe_seconds() -> float:
    """Run the fixed piece of work once; thread CPU seconds it took."""
    started = time.thread_time()
    total = 0
    for i in range(8000):
        total += i & 7
    return time.thread_time() - started


def calibration_ms(samples: int = 51) -> float:
    """Median probe duration right now (``bench.calib_ms``): divide by
    ``REFERENCE_SECONDS`` to compare results from another machine."""
    return float(np.median([probe_seconds() for _ in range(samples)]) * 1e3)


class SpeedProbe:
    """Collects probe samples; call :meth:`tick` between statements."""

    def __init__(self) -> None:
        # (perf_counter at start, probe CPU seconds, probe wall seconds)
        self._samples: List[Tuple[float, float, float]] = []
        self._due = 0.0
        self._times = np.zeros(0)
        self._slowdown = np.zeros(0)

    def tick(self) -> None:
        """Run the probe if one is due (a clock read otherwise).

        Safe to call from several threads: appends are atomic and a
        doubled sample is harmless.
        """
        started = time.perf_counter()
        if started < self._due:
            return
        spent = probe_seconds()
        ended = time.perf_counter()
        self._samples.append((started, spent, ended - started))
        self._due = ended + INTERVAL_SECONDS

    def freeze(self) -> None:
        """Turn the samples taken so far into the slowdown curve."""
        if len(self._samples) < _MIN_SAMPLES:
            return
        samples = np.array(sorted(self._samples), dtype=np.float64)
        padded = np.pad(samples[:, 1], 2, mode="edge")
        smooth = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, 5), axis=1
        )
        self._times = samples[:, 0]
        self._slowdown = smooth / REFERENCE_SECONDS

    def slowdown(self, at) -> np.ndarray:
        """Machine slowdown at ``perf_counter`` time(s) ``at``."""
        at = np.asarray(at, dtype=np.float64)
        if not len(self._times):
            return np.ones_like(at)
        return np.interp(at, self._times, self._slowdown)

    def calibrated(self, started, seconds) -> np.ndarray:
        """Durations beginning at ``started``, at reference speed."""
        started = np.asarray(started, dtype=np.float64)
        seconds = np.asarray(seconds, dtype=np.float64)
        return seconds / self.slowdown(started + seconds / 2)

    def reference_seconds(self, start: float, end: float) -> float:
        """A long interval at reference speed: the probes' own wall time
        inside it is taken out, the rest is integrated on a 10 ms grid."""
        probing = sum(
            wall for at, _, wall in self._samples if start <= at < end
        )
        grid = np.arange(start, end, 0.01) + 0.005
        if not len(grid):
            return end - start
        return float((end - start - probing) * np.mean(1.0 / self.slowdown(grid)))
