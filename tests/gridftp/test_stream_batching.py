"""A parallel transfer's streams start and stop as one batch.

An ``n``-stream :func:`run_data_transfer` must cost one fair-share solve
when its streams start, one when they finish together, and one when an
interrupt tears them down — not one per stream.  A counting solver
records the simulated time of every :meth:`rates` call.
"""

from repro.gridftp.datachannel import run_data_transfer
from repro.gridftp.modes import ExtendedBlockMode
from repro.network import FlowNetwork
from repro.network.solver import IncrementalMaxMinSolver
from repro.sim import Interrupt
from repro.units import megabytes

from tests.conftest import build_two_host_grid, run_process

STREAMS = 8


class CountingSolver(IncrementalMaxMinSolver):
    """Incremental solver that logs when each full solve was asked for."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.calls = []

    def rates(self, link_capacity):
        self.calls.append(self.sim.now)
        return super().rates(link_capacity)


def counted_grid():
    grid = build_two_host_grid(latency=0.002)
    solver = CountingSolver(grid.sim)
    grid.network = FlowNetwork(grid.sim, grid.topology, grid.router,
                               solver=solver)
    return grid, solver


def transfer(grid):
    return run_data_transfer(grid, "src", "dst", megabytes(8),
                             mode=ExtendedBlockMode(), streams=STREAMS)


def test_parallel_transfer_solves_once_at_start_and_once_at_finish():
    grid, solver = counted_grid()
    result = run_process(grid, transfer(grid))
    # The run started at t=0, so the data phase began at the startup
    # time; the streams finish together, before the last byte's latency.
    started, finished = solver.calls
    assert started == result.startup_seconds
    assert started < finished < grid.sim.now
    assert grid.network.active_flows == []


def test_interrupted_transfer_solves_once_for_teardown():
    grid, solver = counted_grid()
    sim = grid.sim
    caught = []

    def victim():
        try:
            yield from transfer(grid)
        except Interrupt as interrupt:
            caught.append(interrupt.cause)

    proc = sim.process(victim())

    def cancel():
        yield sim.timeout(0.05)
        assert len(grid.network.active_flows) == STREAMS
        before = len(solver.calls)
        proc.interrupt("cancel")
        yield proc
        teardown = solver.calls[before:]
        assert teardown == [sim.now]

    run_process(grid, cancel())
    assert caught == ["cancel"]
    assert len(solver.calls) == 2
    assert grid.network.active_flows == []
