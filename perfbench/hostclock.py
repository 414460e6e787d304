"""Host time of the measured call, rescaled to a reference CPU speed.

The benchmark runs on shared virtual machines.  There the same Python
code runs at two speeds about 1.9x apart (another tenant on the
sibling hardware thread), switching every second or so and sometimes
staying slow for more than 20 s.  A run's raw host time mostly records
how long the slow phases lasted: over six 20 s runs of
``baseline-write-4m`` the median repeat time spread by 26% (IQR over
median).

So :class:`HostClock` advances simulated time in short slices, and
after each slice times a fixed piece of interpreter-bound work
(:meth:`HostClock.calibrate`).  Each slice's host seconds are rescaled
by ``CAL_REF_S / (that calibration time)``: the seconds the slice
would have taken at the speed where the calibration takes
:data:`CAL_REF_S`.  Over four 15 s runs of ``qos-mixed-64k`` at one
seed, the raw median repeat time spread by 33% (max - min over median)
and the rescaled one by 4.5%.  The calibration first walks its whole
working set untimed, so its time does not depend on what the slice
left in the caches: its fast-phase time was 0.545 ms after slices of
``qos-mixed-64k`` and of ``baseline-write-4m`` alike.  It follows
set-up code (mostly object allocation) less closely: under load from
a second simulator process it slowed 1.97x, a set-up only 1.62x.
Pausing the
event loop at a time horizon schedules nothing, so slicing leaves the
simulated outcome unchanged.
"""

from __future__ import annotations

import gc
import heapq
import random
from time import perf_counter
from typing import Any

#: Simulated seconds per slice.
SLICE_S = 0.1
#: Loop rounds of one calibration.
CAL_ROUNDS = 1000
#: Cells of the calibration's pointer-chasing ring (under 1 MB).
CAL_RING = 1 << 14
#: Host seconds one calibration takes at the reference speed: its
#: fast-phase time on the 2-vCPU Intel Xeon KVM guest (Python 3.11)
#: this benchmark was tuned on.
CAL_REF_S = 0.55e-3


class _Cell:
    __slots__ = ("nxt",)

    def __init__(self) -> None:
        self.nxt: Any = None


def _ticker(n: int) -> Any:
    i = 0
    while True:
        i += 1
        yield (i * 7919) % n


class HostClock:
    """Drives a measured call's event loop and accounts its host time.

    ``calibrated=False`` skips the calibration (for the profiled
    repeat, whose profile should show only the simulator); host times
    are then raw seconds.
    """

    def __init__(self, calibrated: bool = True) -> None:
        self.calibrated = calibrated
        #: Host seconds accounted since :meth:`reset`, at the
        #: reference speed.
        self.host_s = 0.0
        self._cell = None
        if calibrated:
            cells = [_Cell() for _ in range(CAL_RING)]
            order = list(range(CAL_RING))
            random.Random(1).shuffle(order)
            for a, b in zip(order, order[1:] + order[:1]):
                cells[a].nxt = cells[b]
            self._cell = cells[0]

    def calibrate(self) -> float:
        """Host seconds of a fixed loop: generator resumes, heap and
        dict updates, and a walk along a shuffled ring of cells."""
        heap: list[tuple[int, int]] = []
        gens = [_ticker(97 + k) for k in range(16)]
        table: dict[int, int] = {}
        cell = self._cell
        for _ in range(CAL_RING // 4):  # untimed: warm the ring
            cell = cell.nxt.nxt.nxt.nxt
        t0 = perf_counter()
        for r in range(CAL_ROUNDS):
            v = next(gens[r & 15])
            heapq.heappush(heap, (v, r))
            table[v] = table.get(v, 0) + 1
            if len(heap) > 32:
                heapq.heappop(heap)
            cell = cell.nxt.nxt.nxt.nxt
        elapsed = perf_counter() - t0
        self._cell = cell
        return elapsed

    def scale(self) -> float:
        """Reference seconds per raw host second, measured now."""
        if not self.calibrated:
            return 1.0
        return CAL_REF_S / self.calibrate()

    def _scaled(self, host: float) -> float:
        return host * self.scale()

    def reset(self) -> None:
        self.host_s = 0.0

    def run_to(self, env: Any, until: float) -> None:
        """Run to simulated time ``until``, in :data:`SLICE_S` slices.

        The cyclic collector stays off across the slices, as it does
        inside one ``Environment.run`` call."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            while env.now < until:
                t0 = perf_counter()
                env.run(until=min(until, env.now + SLICE_S))
                self.host_s += self._scaled(perf_counter() - t0)
        finally:
            if was_enabled:
                gc.enable()

    def run_until(self, env: Any, event: Any) -> None:
        """Run until ``event`` (a process) has been processed."""
        if event.processed:
            return
        t0 = perf_counter()
        env.run(until=event)
        self.host_s += self._scaled(perf_counter() - t0)
