"""Host-speed probes, used to take the shared host's speed out of the
benchmark's times.

On a shared host the same command runs at very different speeds from one
minute to the next: other tenants slow down every instruction, so process
CPU time drifts with wall time and longer runs do not average it away.  A
probe is a fixed piece of work whose duration tracks that speed.  The worker
runs one probe every few milliseconds while the command runs (from a SIGALRM
handler, so on the same core and in step with it), and rescales the
command's wall time to the probe's reference duration:

    solve_s = (wall - time spent in probes) * reference / mean(probe durations)

The mean, not the median, because the probes are spread evenly over wall
time, so their mean is the command's average slowdown.  A command that does
less work reads faster whatever the host's speed; the probe code is the
benchmark's own and does not change with torusfp.

There are two probes, because interpreter-bound and memory-bound code slow
down by different amounts: the interpreter probe is small numpy operations
driven from a Python loop and pure-Python arithmetic, like the FV Newton
residuals and the Picard march; the memory probe streams two 4 MiB arrays,
like the dense kernel ladders.  ``setup_s`` is rescaled by the same probes.
Each workload names the probe whose slowdown matches its own
(perfbench/README.md has the measurements).
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 64)
_BIG = np.linspace(0.0, 1.0, 1 << 19)
_BIG_OUT = np.empty_like(_BIG)


def interpreter_probe() -> float:
    """Seconds of 200 small numpy operations driven from a Python loop, then
    3000 iterations of pure-Python arithmetic."""
    t0 = perf_counter()
    b, s = _SMALL, 0.0
    for i in range(200):
        b = _SMALL * b + 0.5
        s += float(b[3]) * 0.5 + i
    for i in range(3000):
        s += (i % 7) * 0.5 - s * 1e-3
    return perf_counter() - t0


def memory_probe() -> float:
    """Seconds of one streaming pass over two 4 MiB arrays."""
    t0 = perf_counter()
    np.multiply(_BIG, 0.5, out=_BIG_OUT)
    np.add(_BIG_OUT, _BIG, out=_BIG_OUT)
    return perf_counter() - t0


# probe -> (function, sampling interval in s, reference duration in s).  A
# probe runs slower inside a command, which evicts its data from the caches,
# than back to back; the references are the probes' mean durations inside
# the benchmark's commands on the baseline machine (perfbench/README.md), so
# rescaled times read close to the wall times seen there.
PROBES = {
    "interpreter": (interpreter_probe, 0.025, 8.0e-4),
    "memory": (memory_probe, 0.04, 1.46e-3),
}
def warm_up() -> None:
    for _ in range(20):
        for probe, _, _ in PROBES.values():
            probe()


def rescale(seconds: float, durations: list[float], reference: float) -> float:
    """``seconds`` at the speed at which the probe takes ``reference``
    seconds, given its durations measured over the same period."""
    return seconds * reference / (sum(durations) / len(durations))


class Sampler:
    """Runs probe ``kind`` every sampling interval of wall time, from a
    SIGALRM handler, and keeps its durations.

    The handler runs between Python bytecodes, so during one long C call
    the pending probe waits for the call to return."""

    def __init__(self, kind: str):
        self.kind = kind
        self.probe, self.interval, _ = PROBES[kind]
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        self.durations.append(self.probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
