"""Host speed reference for the benchmark's time metrics.

The benchmark shares a host whose speed moves by up to 1.9x under other
load, in spells from under a second to minutes; the same round's time moves
with it. While a round runs, a timer signal therefore interrupts it every
``INTERVAL_S`` and times one small fixed computation, made of the same kinds
of work as the program (a Python loop of small-vector numpy steps, batched
steps over a thousand points, and CSV formatting). The round's own time
excludes these samples. A run's speed factor is the median sample time over
``SAMPLE_S``, the fastest time of the sample run back to back on the host the
benchmark was sized on (an Intel Xeon vCPU at 2.1 GHz); a time divided by
that factor reads in seconds at that speed. Sampling during the rounds
themselves, rather than between them, sees the same spells of load as the
program does.
"""

from __future__ import annotations

import csv
import io
import signal
import time

import numpy as np

INTERVAL_S = 0.04
SAMPLE_S = 0.00075

_M = np.array([[0.0, -1.0, 0.2], [1.0, 0.0, -0.1], [0.05, 0.1, -0.3]])
_B = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
_PTS = np.linspace(0.0, 1.0, 3_000).reshape(-1, 3)


def reference_sample():
    """Run the fixed reference work once; return its seconds."""
    t0 = time.perf_counter()
    # scalar path: RK2 steps of a 3-vector, with a wrap and a norm test
    x, h = np.array([0.3, 0.1, 0.2]), 0.01
    for _ in range(40):
        k1 = _M @ x
        k2 = _M @ (x + h * k1)
        x = x + 0.5 * h * (k1 + k2)
        if float(np.linalg.norm(x)) > 2.0:
            x = x - np.floor(x)
    # batched path: wrapped linear steps over 1k points, distances, a mask
    pts = _PTS
    for _ in range(3):
        pts = pts @ _B.T
        pts = pts - np.round(pts)
        live = np.linalg.norm(pts, axis=1) < 0.6
        pts = np.where(live[:, None], pts, 0.5 * pts)
    # output: format rows as CSV text
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in pts[:40].tolist():
        writer.writerow([f"{v:.12g}" for v in row] + [int(row[0] > 0)])
    return time.perf_counter() - t0


class Sampler:
    """Reference samples taken every ``INTERVAL_S`` inside a ``with`` block.

    ``samples`` keeps every sample's seconds over all blocks; ``spent`` is
    the time the samples took in the last block, which the caller takes off
    that block's time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _take(self, signum, frame):
        dt = reference_sample()
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self):
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
