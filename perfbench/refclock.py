"""Reference clock: express wall time in seconds of a fixed host speed.

The host this benchmark runs on changes speed by tens of percent over
tens of seconds to minutes (see README.md), and both vCPUs slow
together, so raw wall time of identical code drifts between runs.  A SIGALRM interval timer
in the measured process runs a frozen pure-Python loop every
``TIMER_INTERVAL_S`` seconds and records how long it took.  A run's
normalized time is its raw time minus the time spent in the handler,
scaled by ``NOMINAL_PERIOD_S * mean(1 / loop period)``: the seconds
the run would have taken on a host where the loop takes exactly
``NOMINAL_PERIOD_S``.  The mean of the speeds, not the median period,
because the samples are evenly spaced in time, so their mean speed is
the host's speed averaged over the run; a stalled sample only lowers
one term.

The loop allocates and frees small objects, dicts and tuples: of the
loops tried (README.md) it tracks the campaign's speed best, because
the campaign's Python code is dominated by the same object churn.
``REFERENCE_ITERATIONS``, the body of :func:`reference_loop` and
``NOMINAL_PERIOD_S`` are frozen with the baseline: changing any of
them rescales every normalized figure.  The loop touches only objects
it allocates itself, and runs with the garbage collector paused, so it
cannot perturb the measured program.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Sequence

REFERENCE_ITERATIONS = 5_000
NOMINAL_PERIOD_S = 0.002
TIMER_INTERVAL_S = 0.1


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next: "_Cell | None") -> None:
        self.value = value
        self.next = next


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """The frozen reference work: about 2 ms of object churn on the baseline host."""
    head = None
    acc = 0
    for i in range(iterations):
        head = _Cell(i, head if i & 15 else None)
        record = {"value": i, "cell": head}
        acc += record["cell"].value + len((i, acc))
    return acc


def timed_reference() -> tuple[float, float]:
    """``(start, period)`` of one reference loop, with the collector paused.

    Every object the loop allocates is freed before it returns, so the
    collector's allocation count ends where it started and the measured
    program's collections happen exactly when they would have.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_loop()
        return started, time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def time_slices(count: int) -> list[float]:
    """Run the reference loop ``count`` times in a row; return each period."""
    return [timed_reference()[1] for _ in range(count)]


class Sampler:
    """SIGALRM-driven reference samples taken inside the measured process.

    ``samples`` holds ``(start, period)`` pairs on the ``perf_counter``
    clock, which on Linux is CLOCK_MONOTONIC and so comparable across
    processes.  The handler's whole duration is ``period``: it is the
    time the program lost to the sampler.
    """

    def __init__(self, interval: float = TIMER_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(timed_reference())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)


def scale(periods: Sequence[float]) -> float:
    """Factor from raw to normalized seconds: nominal period times mean speed."""
    if not periods:
        raise ValueError("no reference samples: cannot normalize")
    return NOMINAL_PERIOD_S * statistics.fmean(1 / period for period in periods)


def normalize(raw_seconds: float, handler_seconds: float, periods: Sequence[float]) -> float:
    """Raw wall time minus sampler time, in seconds at the nominal speed."""
    if handler_seconds > raw_seconds:
        raise ValueError(
            f"handler time {handler_seconds:.4f}s exceeds raw time {raw_seconds:.4f}s"
        )
    return (raw_seconds - handler_seconds) * scale(periods)
