"""Rescaling measured times to a fixed reference speed of the host.

On a shared virtual machine the same single-threaded work can take 1.8
times as long in one minute as in the next, in thread CPU time as well as
in wall time, because other tenants share the physical cores and caches.
No statistic over one run removes a slowdown that lasts the whole run.

So a timed pass runs a fixed piece of reference work right before and
after the pass and every ``INTERVAL_S`` seconds in between, wherever the
program is at that moment; a reference run inside a timed interval is
left out of it.  The reference runs cut the pass into segments.  A time
measured in a segment is multiplied by its ``REFERENCE_S`` over the median
duration of the reference runs around that segment, which gives the time
the program would have taken on the host running at the speed it had when
``REFERENCE_S`` was measured.  The reference work never changes with the
package, so a change to the package moves the rescaled times as much as it
moves the raw ones.

A slowdown hits code with a large footprint harder than a tight loop, so
the reference work should look like the workload's hot loop: ``qp_work``
for the closed-loop workloads, whose steps are small-array QP solves, and
``scalar_work`` for interpreter-bound scalar loops such as the RK4 oracle.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# Seconds of program time between two reference runs.
INTERVAL_S = 0.03
# Reference runs on either side of a segment whose durations set its scale.
WINDOW = 3

_rng = np.random.default_rng(0)
_H = np.diag([2.0, 1.0, 0.02, 4.0])
_F = np.array([0.3, -0.2, 0.1, 0.0])
_A = _rng.standard_normal((8, 4))
_bA = np.abs(_rng.standard_normal(8))


@dataclass(frozen=True)
class _Iterate:
    z: np.ndarray
    lam: np.ndarray
    blocking: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=float).ravel())


def scalar_work() -> float:
    """Interpreter-bound reference work: a short RK4 loop of scalar powers."""
    def rhs(v: float) -> float:
        vp = v if v > 0.0 else 0.0
        return -math.pow(vp, 1.2) - math.pow(vp, 0.8) + 0.1 * vp

    v, dt, kept = 1.0, 1e-3, [1.0]
    for step in range(1, 641):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * dt * k1)
        k3 = rhs(v + 0.5 * dt * k2)
        k4 = rhs(v + dt * k3)
        v = v + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % 8 == 0:
            kept.append(v)
    return v + len(kept)


def qp_work() -> float:
    """Small-array reference work shaped like active-set QP iterations:
    a Cholesky solve, then QR, triangular solves and a ratio test."""
    s = 0.0
    z = -cho_solve(cho_factor(_H), _F)
    for it in range(10):
        active = [i for i in range(8) if (it + i) % 3 == 0]
        k = len(active)
        Q, R = np.linalg.qr(_A[active].T, mode="complete")
        lam = np.linalg.solve(R[:k, :k], Q[:, :k].T @ (_H @ z + _F))
        resid = _bA - _A @ z
        Ap = _A @ Q[:, k:].sum(axis=1)
        increasing = Ap > 1e-12
        ratios = np.where(increasing, np.maximum(resid, 0.0) / np.where(increasing, Ap, 1.0),
                          np.inf)
        blocking = np.nonzero(increasing & (ratios <= float(np.min(ratios)) + 1e-12))[0]
        step = _Iterate(z, lam, tuple(int(i) for i in blocking))
        s += float(np.max(np.abs(step.z), initial=0.0)) + len(step.blocking)
    return s


# Duration of each reference work on the reference host, seconds: near the
# fastest 1 s medians seen over two 40 s samples on a shared 2-vCPU virtual
# machine (Intel Xeon, 2.1 GHz) with Python 3.11.7, numpy 2.4 and scipy
# 1.17, where those medians ranged from 0.54 to 1.42 ms (scalar_work) and
# from 0.62 to 1.19 ms (qp_work).
REFERENCE_S = {scalar_work: 0.58e-3, qp_work: 0.65e-3}


class HostSpeed:
    """Reference runs of one pass and the scale they give each segment."""

    def __init__(self, work=scalar_work):
        self.work = work
        self.marks: list[tuple[float, float]] = []   # (start, end) of each reference run
        self._sampling = False

    def mark(self) -> None:
        """Run the reference work once and record when it ran."""
        t0 = perf_counter()
        self.work()
        self.marks.append((t0, perf_counter()))

    @contextmanager
    def sampling(self, periodic: bool = True):
        """Mark right before and right after the block (three times each
        when not ``periodic``) and, when ``periodic``, every ``INTERVAL_S``
        seconds in between.

        The periodic marks come from a SIGALRM timer, so they land wherever
        the program is, also inside a long call; Python runs the handler
        between bytecodes of the main thread.
        """
        def on_alarm(signum, frame):
            if self._sampling:
                self.mark()
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        # Without periodic runs the scale rests on the runs at the edges
        # alone, and the first run after other work reads slow: take three.
        edge = 1 if periodic else 3
        previous = signal.signal(signal.SIGALRM, on_alarm) if periodic else None
        for _ in range(edge):
            self.mark()
        self._sampling = periodic
        if periodic:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            self._sampling = False
            if periodic:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            for _ in range(edge):
                self.mark()

    def scales(self) -> list[float]:
        """Scale of each segment, the segment between mark k and mark k + 1."""
        durations = [t1 - t0 for t0, t1 in self.marks]
        ref = REFERENCE_S[self.work]
        return [ref / statistics.median(durations[max(0, k + 1 - WINDOW):k + 1 + WINDOW])
                for k in range(len(durations) - 1)]

    def rescale(self, intervals: list[tuple[float, float]]) -> list[float]:
        """Rescaled durations of intervals between the first and the last mark.

        Each part of an interval is multiplied by the scale of the segment it
        lies in; the reference runs inside the interval are left out.
        """
        starts = [t0 for t0, _ in self.marks]
        ends = [t1 for _, t1 in self.marks]
        scales = self.scales()
        out = []
        for a, b in intervals:
            k = max(bisect.bisect_right(ends, a) - 1, 0)
            total = 0.0
            while k < len(scales):
                total += max(0.0, min(b, starts[k + 1]) - max(a, ends[k])) * scales[k]
                if b <= starts[k + 1]:
                    break
                k += 1
            out.append(total)
        return out

    def rescaled_span(self) -> float:
        """Rescaled time from the first mark's end to the last mark's start,
        the reference runs in between left out."""
        return self.rescale([(self.marks[0][1], self.marks[-1][0])])[0]

    def median_scale(self) -> float:
        return statistics.median(self.scales())
