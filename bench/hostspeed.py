"""Host-speed sampling, so that timings survive a host whose speed drifts.

On a shared virtual machine the same pure-Python loop can take twice as long
from one second to the next, and CPU time tracks wall time, so the vCPU
itself is slower, not descheduled. A `Sampler` therefore interrupts the
process every `INTERVAL_S` (an interval timer; the handler runs in the main
thread between bytecodes) and times a fixed pure-Python `kernel`, with the
garbage collector held off so that a collection the program owes is not
charged to the kernel. Callers subtract the sampler's own time (`spent`)
from what they time, and multiply by `NOMINAL_S / median(samples)` over the
same stretch: a time in seconds at the nominal host speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
# median kernel time on an idle 2-vCPU Xeon at 2.1 GHz under CPython 3.11;
# a fixed constant, so that scaled figures stay comparable across runs
NOMINAL_S = 0.0023

_N = 200
_ADJ = [[(v * 7 + k * 13) % _N for k in range(6)] for v in range(_N)]


def kernel() -> int:
    """Fixed work in the style of the program: dict counting, list walks."""
    total = 0
    for _ in range(8):
        deg: dict[int, int] = {}
        for v in range(_N):
            for w in _ADJ[v]:
                deg[w] = deg.get(w, 0) + 1
        total += sum(1 for v in range(_N) for w in _ADJ[v] if deg[v] != deg.get(w, 0))
    return total


class Sampler:
    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        kernel()
        dt = perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append(dt)
        self.spent += dt

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int, end: int | None = None) -> float:
        """NOMINAL_S over the median kernel time of samples[start:end]."""
        window = self.samples[start:end] or self.samples[-1:]
        return NOMINAL_S / statistics.median(window)
