"""What every workload returns, the host-normalized clock it times
with, and the statistics run.py reports."""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class PassResult:
    """One pass of a workload: an XDP leg, a load-corpus round or a
    rollout cycle, each on freshly built state."""

    #: units of work done: packets, cold loads or fleet nodes
    units: int
    #: time of each timed operation (host-normalized seconds)
    op_samples: List[float]
    #: operations attempted and failed (for ``failed_frac``)
    attempted: int
    failed: int
    #: digest of the pass's observable outcome; equal across the
    #: passes of one seed, traced or not
    signature: str
    #: correctness failures found by the pass's own checks
    problems: List[str] = field(default_factory=list)
    #: deterministic counts read from the program (not the tracer)
    counts: Dict[str, int] = field(default_factory=dict)
    #: extra figures for the human-readable report
    info: Dict[str, object] = field(default_factory=dict)
    #: time of the timed work when it is more than the operations
    #: (the fleet's whole rollout); None means the sum of the
    #: operations
    busy_s: Optional[float] = None

    @property
    def ms_per_unit(self) -> float:
        """Milliseconds (host-normalized) per unit of work."""
        busy = sum(self.op_samples) if self.busy_s is None \
            else self.busy_s
        return 1000.0 * busy / self.units


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation between
    order statistics (``statistics.quantiles``' inclusive method)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The median (0.0 for no values)."""
    return statistics.median(values) if values else 0.0


class _Probe:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def step(self, x: int) -> int:
        return (self.a * x + self.b) & 0xFFFF


#: a working set of a few megabytes, like the simulated kernel's
#: (a bytearray: the garbage collector does not track it)
_ARENA = bytearray(1 << 22)
_OBJS = [_Probe(i, i >> 1) for i in range(64)]
_TABLE: Dict[int, int] = {}


def probe() -> float:
    """Seconds one fixed piece of interpreter work takes right now.

    The work mixes what the simulated kernel spends its time on —
    attribute access, method calls, dict updates and integer
    arithmetic, plus loads and stores scattered over a few megabytes —
    so that host contention for the CPU and its caches slows it
    roughly as much as it slows the workload.  It allocates no object
    the garbage collector tracks, so probing never shifts the
    program's collections."""
    start = time.perf_counter()
    arena = _ARENA
    objs = _OBJS
    table = _TABLE
    index = 1
    acc = 0
    for __ in range(500):
        index = (index * 1103515245 + 12345) & 0x3FFFFF
        obj = objs[index & 63]
        acc = (acc + obj.step(index) + arena[index]) & 0xFFFFFFFF
        arena[index ^ 64] = acc & 0xFF
        table[index & 1023] = acc
    return time.perf_counter() - start


class HostClock:
    """Times operations in host-normalized seconds.

    On a shared host, neighbours can slow every Python workload by up
    to half, in phases of a tenth of a second to tens of seconds.  So
    the host's current speed is sampled with :func:`probe`: three
    times (median) at the end of every operation, and every
    ``PERIOD_S`` during it from an interval timer.  An operation's
    time is its wall time, less the time the probes took, scaled by
    ``REFERENCE_S`` over the mean probe time of the probes taken
    during it and at its two ends.  That is the time it would take on
    a host where the probe takes exactly ``REFERENCE_S``.  A change to
    the program moves the operation's time and not the probes', so it
    shows in full.

    Use it as a context manager around the timed work (it owns
    ``SIGALRM`` meanwhile); operations may nest.
    """

    #: probe time that defines the reference host
    REFERENCE_S = 0.0002
    #: interval between probes inside long operations
    PERIOD_S = 0.005

    def __init__(self) -> None:
        self._probes: List[float] = []
        #: wall time spent probing so far (subtracted from operations,
        #: and from traced spans)
        self.stolen = 0.0
        self._probing = False
        self._previous = None
        self._edge = self._calibrate()

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S,
                         self.PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum: int, frame: object) -> None:
        if not self._probing:
            self._calibrate(runs=1)

    def _calibrate(self, runs: int = 3) -> float:
        """Probe ``runs`` times, record the median, return it."""
        self._probing = True
        start = time.perf_counter()
        try:
            value = sorted(probe() for __ in range(runs))[runs // 2]
            self._probes.append(value)
            return value
        finally:
            self.stolen += time.perf_counter() - start
            self._probing = False

    def start(self) -> Tuple[float, float, int, float]:
        """Open an operation; pass the result to :meth:`stop`."""
        return (time.perf_counter(), self.stolen, len(self._probes),
                self._edge)

    def stop(self, mark: Tuple[float, float, int, float]) -> float:
        """Close the operation opened by ``mark``; returns its time in
        host-normalized seconds."""
        begin, stolen, first, edge = mark
        wall = time.perf_counter() - begin - (self.stolen - stolen)
        self._edge = self._calibrate()
        probes = [edge] + self._probes[first:]
        return wall * self.REFERENCE_S * len(probes) / sum(probes)
