"""Speed normalisation: timings in seconds at a fixed machine speed.

The benchmark was defined on a shared 2-CPU machine whose speed for
pure-Python code moves between states 40-60% apart every few seconds to
a minute, for reasons outside the benchmark's processes.  The raw wall
time of one 10-25 s pass then spreads by 14-31% (quartile distance
over median) from run to run, wider than any regression bound worth
having.

A timing is therefore taken together with samples of a fixed reference
loop, run from a SIGALRM handler every SAMPLE_INTERVAL_S while the work
runs.  The work's time, less the time the samples took, is scaled by
NOMINAL_REF_S over the mean sample time: the seconds the work would take
on a machine where the reference loop takes NOMINAL_REF_S.  On repeated
passes over the stream-mixed graphs this cut the spread from 0.31 to
0.03 (and to 0.05 with the interpreter half of the loop alone); on
repeated ``fanfree enumerate --n 8`` passes the interpreter half alone
cut it from 0.29 to 0.04.  The samples cost about 1.5% of the work's
time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.2
NOMINAL_REF_S = 0.002


def reference_loop() -> float:
    """Run the fixed reference loop once; return its duration in seconds.

    Half of it is interpreter work (integer bit operations, dict updates,
    builtin calls), half small-array numpy calls like those of a Jacobi
    rotation; the two halves track the speed of fanfree's generation and
    of its eigensolves.
    """
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    x = 0
    for i in range(2_000):
        x = (x * 31 + i) & 0xFFFF
        counts[x & 255] = counts.get(x & 255, 0) + bin(x).count("1")
    row = np.arange(16.0)
    idx = np.arange(16)
    for i in range(150):
        sel = (idx != i % 16) & (idx != (i + 3) % 16)
        part = row[sel].copy()
        row[sel] = 0.8 * part + 0.2 * part
    return time.perf_counter() - t0


class Sampler:
    """Samples the reference loop on a timer while it is started.

    ``spent`` is the total time the samples took, so that a caller can
    take it out of the work it times.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples.clear()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> float:
        """Stop sampling; return the mean sample time, with one sample taken
        here so that work shorter than the interval still has one."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.samples.append(reference_loop())
        return statistics.fmean(self.samples)


def normalise(seconds: float, ref_s: float) -> float:
    return seconds * NOMINAL_REF_S / ref_s
