"""Bit-exact differential: batched flow starts and aborts vs one-by-one.

:meth:`FlowNetwork.start_flows` starts ``n`` flows with one settle, one
fair-share solve and one wakeup; ``n`` back-to-back
:meth:`FlowNetwork.start_flow` calls at the same instant do the same
work ``n`` times, but no process runs in between, so only the last
solve's rates are ever used.  Likewise :meth:`FlowNetwork.abort_flows`
against a loop of :meth:`FlowNetwork.abort_flow`.  Both arms must end
in the same state *bit for bit* (``struct.pack("d", ...)``): every
flow's rate and completion time, every link's ``bytes_carried`` and
``allocated``, and the completion log order.  The batch processes
exactly ``n - 1`` fewer events — the superseded wakeups — and nothing
else differs.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hosts.reslink import ResourceChannel
from repro.network import FlowNetwork, Topology
from repro.network.routing import NoRouteError
from repro.sim import Simulator

HOSTS = ["a", "b", "c", "d"]


def _bits(value):
    return None if value is None else struct.pack("d", value)


def _build(capacity=100.0, disk_capacity=80.0):
    """Hosts around one hub, plus a shared disk channel and an island."""
    sim = Simulator(seed=5)
    topo = Topology()
    for name in HOSTS + ["hub", "island"]:
        topo.add_node(name)
    for name in HOSTS:
        topo.add_duplex_link(name, "hub", capacity)
    net = FlowNetwork(sim, topo)
    disk = ResourceChannel("disk/shared", lambda: disk_capacity)
    return sim, topo, net, disk


def _state(topo, net, disk, flows):
    """Everything the two arms must agree on, as exact bit patterns."""
    index = {flow.id: i for i, flow in enumerate(flows)}
    return {
        "flows": [
            (_bits(flow.rate), _bits(flow.completed_at),
             _bits(flow.remaining), flow.aborted)
            for flow in flows
        ],
        "links": [
            (link.key, _bits(link.bytes_carried), _bits(link.allocated))
            for link in topo.links() + [disk]
        ],
        "completed": [index[flow.id] for flow in net.completed],
    }


def _start_background(sim, net, background, at):
    flows = [
        net.start_flow(src, dst, size, cap=cap)
        for src, dst, size, cap in background
    ]
    if at > 0.0:
        sim.run(until=at)
    return flows


def _run_starts(batched, case):
    """Background traffic, then a batch of ``count`` flows at ``at``."""
    sim, topo, net, disk = _build(case["capacity"], case["disk_capacity"])
    flows = _start_background(sim, net, case["background"], case["at"])
    src, dst = case["pair"]
    args = (src, dst, case["nbytes"])
    kwargs = {"cap": case["cap"],
              "extra_links": (disk,) if case["disk"] else ()}
    if batched:
        batch = net.start_flows(*args, case["count"], **kwargs)
    else:
        batch = [net.start_flow(*args, **kwargs)
                 for _ in range(case["count"])]
    flows += batch
    at_start = _state(topo, net, disk, flows)
    sim.run()
    return at_start, _state(topo, net, disk, flows), sim.events_processed


def _run_aborts(batched, case, victims, abort_at):
    """Start a batch, then abort ``victims`` (indices) at ``abort_at``."""
    sim, topo, net, disk = _build(case["capacity"], case["disk_capacity"])
    flows = _start_background(sim, net, case["background"], case["at"])
    src, dst = case["pair"]
    flows += net.start_flows(
        src, dst, case["nbytes"], case["count"], cap=case["cap"],
        extra_links=(disk,) if case["disk"] else (),
    )
    sim.run(until=sim.now + abort_at)
    targets = [flows[i % len(flows)] for i in victims]
    aborted = len({flow.id for flow in targets if flow.is_active})
    if batched:
        net.abort_flows(targets, cause="batch")
    else:
        for flow in targets:
            net.abort_flow(flow, cause="batch")
    for flow in targets:
        if flow.aborted:
            flow.done.defused = True
    at_abort = _state(topo, net, disk, flows)
    sim.run()
    return (at_abort, _state(topo, net, disk, flows), sim.events_processed,
            aborted)


def _assert_starts_match(case):
    one_by_one = _run_starts(False, case)
    batched = _run_starts(True, case)
    assert batched[0] == one_by_one[0]
    assert batched[1] == one_by_one[1]
    # Each one-by-one start but the last left a superseded wakeup
    # behind; a zero-byte start never schedules one.
    stale = case["count"] - 1 if case["nbytes"] > 0 else 0
    assert batched[2] == one_by_one[2] - stale


def _assert_aborts_match(case, victims, abort_at):
    one_by_one = _run_aborts(False, case, victims, abort_at)
    batched = _run_aborts(True, case, victims, abort_at)
    assert batched[0] == one_by_one[0]
    assert batched[1] == one_by_one[1]
    aborted = batched[3]
    assert aborted == one_by_one[3]
    assert batched[2] == one_by_one[2] - max(0, aborted - 1)


def _case(**overrides):
    case = {
        "capacity": 100.0, "disk_capacity": 80.0, "background": [],
        "at": 0.0, "pair": ("a", "b"), "nbytes": 1000.0, "count": 4,
        "cap": math.inf, "disk": False,
    }
    case.update(overrides)
    return case


# -- named cases ---------------------------------------------------------


def test_zero_byte_batch_completes_at_once():
    sim, topo, net, disk = _build()
    sim.run(until=3.0)
    flows = net.start_flows("a", "b", 0.0, 5)
    assert [flow.completed_at for flow in flows] == [3.0] * 5
    assert net.completed == flows
    assert net.active_flows == []
    assert all(flow.done.triggered for flow in flows)
    _assert_starts_match(_case(nbytes=0.0, count=5))


@pytest.mark.parametrize("count", [0, -1])
def test_count_below_one_is_rejected(count):
    _, _, net, _ = _build()
    with pytest.raises(ValueError):
        net.start_flows("a", "b", 1000.0, count)


@pytest.mark.parametrize("bad_call", [
    ("a", "b", -1.0),
    ("a", "island", 1000.0),
], ids=["negative_size", "unroutable"])
def test_rejected_batch_consumes_no_flow_id(bad_call):
    _, _, net, _ = _build()
    before = net.start_flow("a", "b", 1000.0).id
    with pytest.raises((ValueError, NoRouteError)):
        net.start_flows(*bad_call, 3)
    assert net.start_flow("a", "b", 1000.0).id == before + 1
    assert len(net.active_flows) == 2


def test_batch_joins_a_busy_component():
    background = [("a", "c", 5e4, math.inf), ("c", "b", 2e4, 30.0),
                  ("d", "b", 8e3, math.inf)]
    case = _case(background=background, at=7.5, count=6, cap=25.0,
                 disk=True)
    _assert_starts_match(case)
    _assert_aborts_match(case, victims=[3, 5, 4, 0], abort_at=2.0)


def test_single_flow_batch_is_start_flow():
    _assert_starts_match(_case(count=1))


def test_abort_skips_inactive_and_repeated_flows():
    sim, _, net, _ = _build()
    short, long_ = net.start_flow("a", "b", 10.0), net.start_flow(
        "a", "b", 1e6)
    sim.run(until=5.0)
    assert short.completed_at is not None
    net.abort_flows([short, long_, long_], cause="test")
    long_.done.defused = True
    assert not short.aborted and long_.aborted
    assert long_.rate == 0.0
    assert net.active_flows == []
    scheduled = sim.events_scheduled
    net.abort_flows([short, long_])
    net.abort_flows([])
    assert sim.events_scheduled == scheduled
    sim.run()


def test_abort_flow_delegates_to_the_batch():
    _assert_aborts_match(_case(count=3), victims=[1], abort_at=1.0)


# -- hypothesis battery --------------------------------------------------

_pairs = st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS)).filter(
    lambda pair: pair[0] != pair[1]
)
_caps = st.one_of(st.just(math.inf), st.floats(1.0, 1e4))

_cases = st.fixed_dictionaries({
    "capacity": st.floats(10.0, 1e5),
    "disk_capacity": st.floats(10.0, 1e5),
    "background": st.lists(
        st.tuples(st.sampled_from(HOSTS), st.sampled_from(HOSTS),
                  st.floats(1.0, 1e6), _caps).filter(
            lambda flow: flow[0] != flow[1]
        ),
        max_size=5,
    ),
    "at": st.one_of(st.just(0.0), st.floats(0.0, 50.0)),
    "pair": _pairs,
    "nbytes": st.one_of(st.just(0.0), st.floats(1.0, 1e6)),
    "count": st.integers(1, 8),
    "cap": _caps,
    "disk": st.booleans(),
})


@given(case=_cases)
@settings(max_examples=60, deadline=None)
def test_start_flows_matches_back_to_back_starts(case):
    _assert_starts_match(case)


@given(
    case=_cases.filter(lambda case: case["nbytes"] > 0),
    victims=st.lists(st.integers(0, 20), max_size=8),
    abort_at=st.floats(0.0, 100.0),
)
@settings(max_examples=60, deadline=None)
def test_abort_flows_matches_sequential_aborts(case, victims,
                                               abort_at):
    _assert_aborts_match(case, victims, abort_at)


def test_flow_ids_are_consecutive_within_a_batch():
    _, _, net, _ = _build()
    flows = net.start_flows("a", "b", 1000.0, 4)
    assert [flow.id for flow in flows] == list(
        range(flows[0].id, flows[0].id + 4)
    )
