"""What every workload hands back to the runner."""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Phase:
    """One measured phase: its operations, their latencies and the state the
    correctness checks read afterwards."""

    latencies_s: List[float] = field(default_factory=list)
    work: float = 0.0          # units of work done (samples, requests, cells)
    wall_s: float = 0.0        # time the work took
    #: (work, seconds) per window of the phase: a round, a time slice, a
    #: pass.  throughput_per_s is their median, so a stall that hits a few
    #: windows moves it little.
    windows: List[Tuple[float, float]] = field(default_factory=list)
    #: Latencies grouped by window, when the tail is taken per window.
    latency_windows: List[List[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cpu_s: float = 0.0         # process CPU time over the phase
    steal_s: float = 0.0       # CPU time the hypervisor took meanwhile
    state: Dict[str, object] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Median of the per-window rates (all work over all time when
        there are no windows)."""
        rates = [w / s for w, s in self.windows if s > 0]
        if rates:
            return statistics.median(rates)
        return self.work / self.wall_s if self.wall_s > 0 else 0.0


def steal_seconds() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (0 where the
    kernel does not report it)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def cpu_seconds() -> float:
    """User + system CPU time of this process, all threads."""
    times = os.times()
    return times.user + times.system


class Clock:
    """Wall and CPU time of a phase, started on construction."""

    def __init__(self) -> None:
        self.wall0 = time.perf_counter()
        self.cpu0 = cpu_seconds()
        self.steal0 = steal_seconds()

    def elapsed(self) -> float:
        return time.perf_counter() - self.wall0

    def finish(self, phase: Phase) -> Phase:
        """Stamp the phase with the CPU and stolen time since the start."""
        phase.cpu_s = cpu_seconds() - self.cpu0
        phase.steal_s = steal_seconds() - self.steal0
        return phase


def traced(tracer, name: str, fn, *args, **kwargs):
    """Run ``fn`` inside a benchmark-level span when tracing."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.span(name, fn, args, kwargs)
