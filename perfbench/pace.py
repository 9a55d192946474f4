"""Probes of how fast the host runs, for drift-corrected times.

The vCPUs of a shared host change speed by up to 1.5x within seconds (its
other tenants come and go), and the interpreter and numpy slow down with
them.  ``probe()`` times a fixed piece of work of the same kind as
``rieszlab``'s hot loops: numpy operations on short rows dispatched from a
Python loop, a pass over a larger array, and a pure-Python loop.  It touches
nothing in ``rieszlab``.  ``REFERENCE_PROBE_S / probe()`` is the host's speed
at that moment relative to the reference.

``Sampler`` probes every ``PERIOD_S`` seconds of wall time from a SIGALRM
handler, which runs between bytecodes of the main thread, so the program is
paused while the probe runs and the probe's time is left out.  A stretch of
``t`` seconds is reported as ``t * mean(speed)`` over the probes taken in it:
the seconds it would have taken at the reference speed.  Probes come evenly
in time, so the mean speed is the time average the stretch ran at, and a
probe caught by a momentary burst moves it by at most ``1 / n``.  The
reference is a constant, so a change to the program moves the corrected
time by the same share as the raw one, while the host's drift cancels.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# a typical probe time on a 2-vCPU Intel Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6
REFERENCE_PROBE_S = 0.006
PERIOD_S = 0.25

_ROWS = np.random.default_rng(12345).random((400, 1))
_BIG = np.random.default_rng(6789).random(40_000) + 0.5


def probe() -> float:
    """Seconds taken by the fixed work."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(_ROWS.shape[0] - 1):
        diff = _ROWS[i + 1:] - _ROWS[i]
        r2 = np.einsum("ij,ij->i", diff, diff)
        total += float(np.log(r2 + 1e-12).sum())
    total += float(np.log(_BIG).sum() + np.sqrt(_BIG).sum())
    acc: dict[int, int] = {}
    for i in range(15_000):
        acc[i % 97] = acc.get(i % 97, 0) + i * 3 // 7
    return time.perf_counter() - t0


def speed(probes: list[float]) -> float:
    """Mean speed relative to the reference, from probe times."""
    return statistics.fmean(REFERENCE_PROBE_S / p for p in probes)


class Sampler:
    """Context manager that probes every ``PERIOD_S`` seconds while active.

    ``ticks`` holds ``(start, end, probe seconds)`` per probe, in
    ``perf_counter`` time.
    """

    def __init__(self) -> None:
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        p = probe()
        self.ticks.append((start, time.perf_counter(), p))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, t_first: float, t_last: float,
                  fallback: list[float]) -> tuple[float, float]:
        """Raw and drift-corrected seconds of ``[t_first, t_last]``, probes
        left out; a stretch too short for a probe uses the ``fallback``
        probe times."""
        inside = [(s, e, p) for s, e, p in self.ticks if t_first <= s and e <= t_last]
        raw = (t_last - t_first) - sum(e - s for s, e, _ in inside)
        return raw, raw * speed([p for _, _, p in inside] or fallback)
