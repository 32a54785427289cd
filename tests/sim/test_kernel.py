"""Tests for the simulator core: clock, queue, run modes."""

import math

import pytest

from repro.sim import Simulator, SimulationError
from repro.sim.errors import EmptySchedule
from repro.sim.events import PRIORITY_NORMAL, PRIORITY_URGENT


def test_clock_starts_at_initial_time():
    assert Simulator().now == 0.0
    assert Simulator(initial_time=42.5).now == 42.5


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(3.0)
    sim.run()
    assert sim.now == 3.0


def test_events_processed_in_time_order():
    sim = Simulator()
    seen = []

    def waiter(delay, tag):
        yield sim.timeout(delay)
        seen.append(tag)

    sim.process(waiter(5.0, "late"))
    sim.process(waiter(1.0, "early"))
    sim.process(waiter(3.0, "middle"))
    sim.run()
    assert seen == ["early", "middle", "late"]


def test_ties_processed_in_fifo_order():
    sim = Simulator()
    seen = []

    def waiter(tag):
        yield sim.timeout(2.0)
        seen.append(tag)

    for tag in "abc":
        sim.process(waiter(tag))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_urgent_before_normal_at_same_time():
    sim = Simulator()
    seen = []
    for tag, priority in (("normal", PRIORITY_NORMAL),
                          ("urgent", PRIORITY_URGENT)):
        event = sim.event()
        event._ok = True
        event._value = tag
        event.callbacks.append(lambda ev: seen.append(ev.value))
        sim.schedule(event, delay=1.0, priority=priority)
    sim.run()
    assert seen == ["urgent", "normal"]


def test_infinite_timeout_pops_last_and_holds_nothing_open():
    """An inf-horizon timer is legal, pops after every finite event,
    and neither ``run(until=...)`` nor ``peek()`` waits on it."""
    sim = Simulator()
    seen = []
    horizon = sim.timeout(math.inf, "horizon")
    near = sim.timeout(3.0, "near")
    for event in (horizon, near):
        event.callbacks.append(lambda ev: seen.append(ev.value))
    assert sim.peek() == 3.0
    sim.run(until=10.0)
    assert seen == ["near"]
    assert sim.now == 10.0
    assert sim.peek() == math.inf
    assert sim.queue_depth == 1
    sim.step()
    assert seen == ["near", "horizon"]
    assert sim.queue_depth == 0


def test_run_until_time_advances_clock_exactly():
    sim = Simulator()
    sim.timeout(100.0)
    sim.run(until=7.0)
    assert sim.now == 7.0
    assert sim.peek() == 100.0


def test_run_until_past_time_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        sim.run(until=1.0)


def test_run_until_event_returns_its_value():
    sim = Simulator()

    def producer():
        yield sim.timeout(2.0)
        return "result"

    proc = sim.process(producer())
    assert sim.run(until=proc) == "result"
    assert sim.now == 2.0


def test_run_until_never_triggered_event_raises():
    sim = Simulator()
    orphan = sim.event()
    sim.timeout(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=orphan)


def test_step_on_empty_queue_raises():
    sim = Simulator()
    with pytest.raises(EmptySchedule):
        sim.step()


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)
    with pytest.raises(ValueError):
        sim.schedule(sim.event(), delay=-0.5)


def test_events_processed_counter():
    sim = Simulator()
    sim.timeout(1.0)
    sim.timeout(2.0)
    sim.run()
    assert sim.events_processed == 2


def test_peek_empty_queue_is_infinite():
    assert Simulator().peek() == float("inf")


def test_streams_attached_to_simulator_are_deterministic():
    a = Simulator(seed=7)
    b = Simulator(seed=7)
    assert a.streams.get("x").random() == b.streams.get("x").random()
