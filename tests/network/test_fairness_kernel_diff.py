"""Bit-exact differential: the water-fill kernel vs the plain loop.

:func:`repro.network.fairness._fill_component` keeps live-user counts
per link, one shared fill level and the capped flows sorted once; the
reference in ``_reference_fill.py`` re-counts every link's users against
the active set each round.  Both must perform the same float operations
in the same order, so every rate must match *bit for bit* — compared as
``struct.pack("d", ...)`` bytes, which also tells ``0.0`` from ``-0.0``
— and the result dicts must list their keys in the same order.

The incremental-solver battery (``test_fairness_incremental.py``) cannot
catch a kernel error, because the solver and the oracle share the
kernel; this file is the kernel's own check.
"""

import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.fairness import (
    FlowDemand,
    _fill_component,
    flow_components,
    max_min_allocation,
)
from tests.network._reference_fill import reference_fill_component

_LINKS = ["a", "b", "c", "d", "e"]

#: Zero, negative zero, sub-_EPS and exactly-_EPS values sit next to
#: ordinary ones so the freeze tests and signed-zero ties get exercised.
_SMALL = [0.0, -0.0, 1e-10, 5e-10, 1e-9, 2e-9]


def _bits(rates):
    """Key order and exact bit patterns of a rate dict."""
    return [(fid, struct.pack("d", rate)) for fid, rate in rates.items()]


def _assert_bit_identical(demands, capacities):
    try:
        expected = reference_fill_component(demands, capacities)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _fill_component(demands, capacities)
        assert str(raised.value) == str(exc)
        return
    assert _bits(_fill_component(demands, capacities)) == _bits(expected)


def _flow_id(index, as_str):
    """Mixed int/str ids; ``1`` and ``"1"`` are distinct flows."""
    return str(index) if as_str else index


# -- named cases ---------------------------------------------------------

_CASES = {
    "zero_cap": (
        [(["a"], 0.0), (["a"], 5.0), (["a", "b"], math.inf)],
        {"a": 10.0, "b": 3.0},
    ),
    "negative_zero_cap_ties_zero_cap": (
        [(["a"], -0.0), (["a"], 0.0), (["a"], math.inf)],
        {"a": 10.0},
    ),
    "zero_cap_ties_negative_zero_cap": (
        [(["a"], 0.0), (["a"], -0.0), (["a"], math.inf)],
        {"a": 10.0},
    ),
    "zero_capacity": (
        [(["a"], math.inf), (["a", "b"], math.inf), (["b"], 4.0)],
        {"a": 0.0, "b": 9.0},
    ),
    "negative_zero_capacity": (
        [(["a", "b"], math.inf), (["b"], math.inf)],
        {"a": -0.0, "b": 1.0},
    ),
    "sub_eps_capacity": (
        [(["a"], math.inf), (["a", "b"], 1e-10), (["b"], math.inf)],
        {"a": 5e-10, "b": 1e-10},
    ),
    "all_inf_caps": (
        [(["a", "b"], math.inf), (["b", "c"], math.inf), (["c"], math.inf)],
        {"a": 7.0, "b": 11.0, "c": 3.0},
    ),
    "duplicate_links_in_flow": (
        [(["a", "a", "b"], math.inf), (["b", "a", "b"], 2.0), (["a"], 9.0)],
        {"a": 10.0, "b": 6.0},
    ),
    "equal_caps_freeze_together": (
        [(["a"], 2.0), (["a", "b"], 2.0), (["b"], 2.0), (["b"], 8.0)],
        {"a": 100.0, "b": 100.0},
    ),
    "cap_and_link_saturate_in_one_round": (
        [(["a"], 5.0), (["a"], math.inf)],
        {"a": 10.0},
    ),
    # C/3*3 rounds 9.5e-7 short of C, so the saturating round freezes
    # no one and the zero-progress guard picks the tightest flow.
    "tight_guard": (
        [(["a"], math.inf), (["a"], 4e9), (["a", "b"], math.inf)],
        {"a": 6907841460.7, "b": 1e10},
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
@pytest.mark.parametrize("str_ids", [False, True, None])
def test_named_case_is_bit_identical(name, str_ids):
    flows, capacities = _CASES[name]
    demands = [
        FlowDemand(
            _flow_id(i, (i % 2 == 0) if str_ids is None else str_ids),
            links, cap,
        )
        for i, (links, cap) in enumerate(flows)
    ]
    _assert_bit_identical(demands, capacities)


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_bad_capacity_raises_the_same_error(bad):
    demands = [FlowDemand(0, ["a"]), FlowDemand("1", ["b", "a"], 3.0)]
    _assert_bit_identical(demands, {"a": 10.0, "b": bad})


def test_probe_id_mixes_with_int_ids():
    """The solver's probe appends ``"__probe__"`` after int flow ids."""
    demands = [
        FlowDemand(0, ["a"], 4.0),
        FlowDemand(1, ["a", "b"]),
        FlowDemand("__probe__", ["b"], 4.0),
    ]
    _assert_bit_identical(demands, {"a": 10.0, "b": 10.0})


# -- hypothesis battery --------------------------------------------------

_capacity = st.one_of(
    st.sampled_from(_SMALL),
    st.sampled_from([1.0, 3.0, 10.0, 100.0, 1.25e7]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)

_cap = st.one_of(
    st.just(math.inf),
    st.sampled_from(_SMALL),
    st.sampled_from([1.0, 2.5, 10.0, 1.25e7]),
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
)

_flows = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_LINKS), min_size=1, max_size=4),
        _cap,
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=400, deadline=None)
@given(_flows, st.fixed_dictionaries({link: _capacity for link in _LINKS}))
def test_kernel_is_bit_identical_to_reference(flows, capacities):
    demands = [
        FlowDemand(_flow_id(i, as_str), links, cap)
        for i, (links, cap, as_str) in enumerate(flows)
    ]
    _assert_bit_identical(demands, capacities)


@settings(max_examples=150, deadline=None)
@given(_flows, st.fixed_dictionaries({link: _capacity for link in _LINKS}))
def test_oracle_is_bit_identical_to_reference_per_component(
    flows, capacities
):
    """``max_min_allocation`` = the reference applied per component."""
    demands = [
        FlowDemand(_flow_id(i, as_str), links, cap)
        for i, (links, cap, as_str) in enumerate(flows)
    ]
    expected = {demand.flow_id: None for demand in demands}
    for component in flow_components(demands):
        expected.update(reference_fill_component(component, capacities))
    assert _bits(max_min_allocation(demands, capacities)) == _bits(expected)


# -- seeded random sweep -------------------------------------------------

_SWEEP_COMPONENTS = 3200


def _random_component(rng):
    """One random demand set plus capacities for its links.

    Every 50th component is large (up to 60 flows over 30 links).  Most
    are small enough that ties and sub-_EPS values are frequent; a third
    are drawn at bytes-per-second magnitudes, where a saturating round
    can leave more than _EPS behind and the zero-progress guard fires.
    """
    large = rng.random() < 0.02
    wide = rng.random() < 0.3
    n_links = rng.randint(1, 30 if large else 8)
    n_flows = rng.randint(1, 60 if large else 16)
    links = [f"l{k}" for k in range(n_links)]
    capacities = {}
    for link in links:
        roll = rng.random()
        if wide:
            capacities[link] = rng.uniform(1e8, 1e10)
        elif roll < 0.1:
            capacities[link] = rng.choice(_SMALL)
        elif roll < 0.4:
            capacities[link] = rng.choice([1.0, 3.0, 10.0, 12.5e6])
        else:
            capacities[link] = rng.uniform(0.0, 1e8)
    demands = []
    for index in range(n_flows):
        # Sampled with replacement, so a flow may list a link twice.
        path = [rng.choice(links) for _ in range(rng.randint(1, 4))]
        roll = rng.random()
        if roll < 0.3:
            cap = math.inf
        elif wide:
            cap = rng.uniform(1e6, 3e9)
        elif roll < 0.4:
            cap = rng.choice(_SMALL)
        elif roll < 0.6:
            cap = rng.choice([1.0, 2.5, 10.0, 1.25e6])
        else:
            cap = rng.uniform(0.0, 1e7)
        demands.append(
            FlowDemand(_flow_id(index, rng.random() < 0.5), path, cap)
        )
    return demands, capacities


def test_seeded_sweep_is_bit_identical():
    rng = random.Random(20260817)
    for case in range(_SWEEP_COMPONENTS):
        demands, capacities = _random_component(rng)
        expected = _bits(reference_fill_component(demands, capacities))
        actual = _bits(_fill_component(demands, capacities))
        assert actual == expected, f"component {case} differs"
