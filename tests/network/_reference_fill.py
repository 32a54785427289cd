"""The plain progressive-filling loop, kept as a test-only reference.

This is the water-filling loop :func:`repro.network.fairness._fill_component`
used before it kept live-user counts, a shared fill level and sorted
caps.  Every round it re-counts each link's users against the active
set, so it is quadratic per round — too slow for the simulator, but
obviously correct, which makes it the oracle the kernel is diffed
against bit for bit in ``test_fairness_kernel_diff.py``.  Do not
optimise it.
"""

import math

from repro.network.fairness import _EPS

__all__ = ["reference_fill_component"]


def reference_fill_component(demands, link_capacity):
    """Water-fill ``demands``; returns ``flow_id -> rate`` in demand order."""
    active = {}
    for demand in demands:
        active[demand.flow_id] = demand

    remaining = {}
    users = {}
    for demand in demands:
        for link in demand.links:
            if link not in remaining:
                capacity = float(link_capacity[link])
                if not 0.0 <= capacity < math.inf:
                    raise ValueError(
                        f"negative, NaN or infinite capacity "
                        f"{capacity} on {link!r}"
                    )
                remaining[link] = capacity
                users[link] = set()
            users[link].add(demand.flow_id)

    allocation = {fid: 0.0 for fid in active}
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = math.inf
        for link, flow_ids in users.items():
            live = [fid for fid in flow_ids if fid in active]
            if live:
                increment = min(increment, remaining[link] / len(live))
        for fid, demand in active.items():
            increment = min(increment, demand.cap - allocation[fid])
        if math.isinf(increment):
            for fid in active:
                allocation[fid] = math.inf
            break
        increment = max(increment, 0.0)

        # Apply the increment and drain link budgets.
        for fid in active:
            allocation[fid] += increment
        for link, flow_ids in users.items():
            live = sum(1 for fid in flow_ids if fid in active)
            if live:
                remaining[link] -= increment * live

        # Freeze flows on saturated links and flows at their caps.
        frozen = set()
        for link, flow_ids in users.items():
            if remaining[link] <= _EPS:
                frozen.update(fid for fid in flow_ids if fid in active)
        for fid, demand in active.items():
            if allocation[fid] >= demand.cap - _EPS:
                frozen.add(fid)
        if not frozen:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow to guarantee termination.
            tight = min(
                active,
                key=lambda f: min(
                    [remaining[link] for link in active[f].links] +
                    [active[f].cap - allocation[f]]
                ),
            )
            frozen.add(tight)
        for fid in [f for f in active if f in frozen]:
            del active[fid]

    return allocation
