"""Machine-speed probe: times measured against the speed the machine runs at.

The benchmark runs on shared hosts whose cores change speed for seconds at
a time: on the 2-CPU machine it was tuned on, a fixed pure-Python loop took
7.5 ms or 11-12 ms per run depending on what else shared the core, with the
two CPUs switching independently.  A cold batch's run-to-run spread was
mostly that, not the program.

:class:`SpeedProbe` samples the speed of the core the batch runs on while
the batch runs: every ``PROBE_INTERVAL_S`` of wall time a ``SIGALRM``
handler, in the batch's own (only) thread, times a fixed piece of work
(:func:`probe_work`).  The handler runs between two bytecodes of the
program and changes none of its state, so the artefact bytes are
unaffected (the correctness gate checks it).  Its own time is taken off
the batch's clock (:meth:`SpeedProbe.now`), so the timed region and its
segments hold only the program's time.

:func:`nominal_seconds` then turns the program's seconds into nominal
seconds: an interval counts as its length times the speed
(``NOMINAL_PROBE_S`` / probe time) of the probes near it.  A nominal second
is a second on a core on which :func:`probe_work` takes
``NOMINAL_PROBE_S``.  Over five or six runs of each gated workload on the
tuning machine this took the run-to-run spread of ``replays_per_s`` from
0.10-0.20 to 0.03-0.05 (reactive_thermal) and from 0.15 to 0.07
(fleet_mixed).  Probes of a larger working set (scattered lookups in a
128K-entry dict, object allocation) tracked the program's speed worse.
The shard journal's appends, fsync included, are scaled like the rest,
though the disk does not change speed with the core; they are about a
quarter of a reactive_thermal session (``checkpoint.append_shard.self_s``).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Wall time between two probes.
PROBE_INTERVAL_S = 0.02
#: Loop turns of one probe: about 0.3 ms on the tuning machine.
PROBE_TURNS = 2_000
#: A nominal probe: a round figure between the fast (0.28 ms) and the
#: usual (0.31-0.33 ms) probe times on the tuning machine.
NOMINAL_PROBE_S = 3.0e-4
#: An interval's speed is read from the probes up to this far outside it:
#: the core changes speed over seconds, a single probe's time by ~5%.
SPEED_WINDOW_S = 0.1


def probe_work() -> None:
    """A fixed piece of interpreter work: integer arithmetic and dict stores."""
    total = 0
    table = {}
    for turn in range(PROBE_TURNS):
        total += turn * turn % 7
        table[turn & 255] = total


class SpeedProbe:
    """Times :func:`probe_work` every ``PROBE_INTERVAL_S`` of wall time."""

    def __init__(self) -> None:
        #: ``(clock time, seconds)`` of every probe, on the :meth:`now` clock.
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0

    def now(self) -> float:
        """``perf_counter`` less the time spent in probes."""
        return time.perf_counter() - self.paused

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_work()
        took = time.perf_counter() - start
        self.samples.append((start - self.paused, took))
        self.paused += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def nominal_seconds(bounds: list[float], samples: list[tuple[float, float]]) -> list[float]:
    """Nominal length of each interval between consecutive ``bounds``.

    ``samples`` are a batch's probes, ``(clock time, seconds)`` on the same
    clock as ``bounds``, in time order.  An interval's speed is the mean
    speed of the probes within ``SPEED_WINDOW_S`` of it, or of the nearest
    probe when there are none.
    """
    times = [at for at, _ in samples]
    speeds = [NOMINAL_PROBE_S / took for _, took in samples]
    lengths = []
    for start, end in zip(bounds, bounds[1:]):
        first = bisect.bisect_left(times, start - SPEED_WINDOW_S)
        last = bisect.bisect_right(times, end + SPEED_WINDOW_S)
        if first < last:
            speed = statistics.fmean(speeds[first:last])
        else:
            middle = (start + end) / 2.0
            nearest = min(
                (i for i in (first - 1, first) if 0 <= i < len(times)),
                key=lambda i: abs(times[i] - middle),
            )
            speed = speeds[nearest]
        lengths.append((end - start) * speed)
    return lengths
