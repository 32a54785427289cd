"""A fixed pure-Python task that measures how fast the host runs Python.

The benchmark runs on shared machines whose speed drifts within a
second: another tenant's load can halve the speed of every instruction
for a few hundred milliseconds at a time, and in a virtual machine the
process CPU clock slows with the wall clock.  While a workload instance
runs, :class:`SpeedProbe` interrupts it every ``PERIOD_S`` seconds to time
a short burst of this task, so the instance's host time can be reported
at a reference speed: a drift in machine speed largely cancels, while a
change to the simulator does not, since the task imports nothing from the
program and never changes with it.

The task mimics the simulator's own mix of work: a binary-heap event
queue, small objects with attribute access and method calls, dict
updates and float arithmetic.  It runs from the core's caches and
allocates little, so it does not depend on the garbage collector's
state.  A burst that also read at random from a 20,000-object pool
tracked ``parallel_fetch`` better (quartile spread 0.028 against 0.055
over ten runs whose seconds as measured spread 0.24) but
``frontdoor_brownout``, the solver-bound workload, worse (0.080 over
seeds 901-910 against 0.047 over 701-710), so the burst stays
cache-resident.
"""

import heapq
import signal
import time

__all__ = ["REFERENCE_RATE", "SpeedProbe"]

#: The reference speed, in task events per second: a round figure, where
#: a 2-core Xeon under CPython 3.11 ran 0.5-1.1e6 as its load changed.
#: Host seconds times (measured rate / REFERENCE_RATE) are seconds at
#: reference speed.
REFERENCE_RATE = 1e6
#: Events per burst: about 3 ms at the reference speed.
BURST_EVENTS = 3000
#: Wall seconds between bursts, so the probe costs about 6% of a run.
PERIOD_S = 0.05


class _Link:
    __slots__ = ("capacity", "load")

    def __init__(self, capacity):
        self.capacity = capacity
        self.load = 0.0

    def share(self, flows):
        return self.capacity / (1.0 + flows + self.load)


def _task(events):
    links = [_Link(1.0 + (index % 7) * 0.5) for index in range(64)]
    flows = dict.fromkeys(range(64), 0)
    queue = [(0.0, index) for index in range(64)]
    heapq.heapify(queue)
    total = 0.0
    state = 12345
    for _ in range(events):
        now, key = heapq.heappop(queue)
        link = links[key]
        rate = link.share(flows[key])
        link.load = 0.9 * link.load + 0.1 * rate
        flows[key] = (flows[key] + 1) % 5
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(queue, (now + 1.0 / rate + (state & 255) * 1e-3,
                               state & 63))
        total += rate
    return total


class SpeedProbe:
    """Times a burst of the task every ``PERIOD_S`` wall seconds.

    Bursts run from a ``SIGALRM`` handler, between two bytecodes of
    whatever the process is doing, so they sample the machine's speed
    evenly over the span being measured.  They touch none of the
    program's state.
    """

    def __init__(self):
        #: Per burst: perf_counter at its start, wall and CPU seconds.
        self.starts = []
        self.wall = []
        self.cpu = []
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _burst(self, signum, frame):
        wall, cpu = time.perf_counter(), time.process_time()
        _task(BURST_EVENTS)
        self.cpu.append(time.process_time() - cpu)
        self.wall.append(time.perf_counter() - wall)
        self.starts.append(wall)

    def _within(self, low, high):
        return [i for i, t in enumerate(self.starts) if low <= t < high]

    def at_reference_speed(self, start, end, cpu_s=None, margin=0.0):
        """Seconds from ``start`` to ``end`` (perf_counter readings) at
        reference speed: the bursts in the span are taken out and the
        rest is scaled by their mean rate.  ``cpu_s``, the process CPU
        seconds over the span, is scaled by the bursts' CPU rate.  The
        rate comes from the bursts within ``margin`` seconds of the span
        as well, for spans too short to hold enough of them.

        Returns ``(wall, cpu)``; ``cpu`` is None without ``cpu_s``.
        """
        inside = self._within(start, end)
        near = self._within(start - margin, end + margin)
        if not near:
            raise ValueError("the probe took no sample near the span")
        scaled = []
        for seconds, times in ((end - start, self.wall), (cpu_s, self.cpu)):
            if seconds is None:
                scaled.append(None)
                continue
            rate = sum(BURST_EVENTS / times[i] for i in near) / len(near)
            own = seconds - sum(times[i] for i in inside)
            scaled.append(own * rate / REFERENCE_RATE)
        return tuple(scaled)
