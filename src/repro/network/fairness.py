"""Max-min fair bandwidth allocation with per-flow rate caps.

This is the classic progressive-filling (water-filling) algorithm: all
flows' rates rise together; whenever a link saturates, every flow through
it freezes at its current rate; whenever a flow hits its own cap (TCP
window limit, disk ceiling, ...), that flow freezes.  The result is the
unique max-min fair allocation subject to the caps.

Flows that share no link (directly or transitively) cannot influence each
other's rates, so the solver first splits the demand set into connected
components over shared links and water-fills each component on its own.
This is what makes the *incremental* solver (:mod:`repro.network.solver`)
exact: it re-solves only dirty components and reuses the others' cached
rates, which equal a fresh solve bit-for-bit because each component's
arithmetic is independent.

Within a component the filling loop keeps a live-user count per link,
one fill level shared by every active flow, and the capped flows sorted
once by cap (see :func:`_fill_component`).  A round then costs
O(live links), freezing a flow costs O(its links) once, and applying an
increment costs O(1) however many flows are active.

The function is pure — it is the analytical heart of the network model
and is tested exhaustively (including with hypothesis) in
``tests/network/test_fairness.py``,
``tests/network/test_fairness_incremental.py`` and, bit for bit against
the plain re-counting loop, ``tests/network/test_fairness_kernel_diff.py``.
"""

import math

__all__ = ["FlowDemand", "flow_components", "max_min_allocation"]

_EPS = 1e-9


class FlowDemand:
    """Input record for the allocator: a flow id, its links, and a cap."""

    __slots__ = ("flow_id", "links", "cap")

    def __init__(self, flow_id, links, cap=float("inf")):
        if not cap >= 0:
            # `not >=` rather than `<` so NaN caps are rejected too.
            raise ValueError(f"negative or NaN cap {cap}")
        self.flow_id = flow_id
        self.links = tuple(links)
        self.cap = float(cap)

    def __repr__(self):
        return f"<FlowDemand {self.flow_id} over {len(self.links)} links>"


def flow_components(demands):
    """Group demands into connected components over shared links.

    Two demands are connected when they share a link key, directly or
    through a chain of other demands.  Returns a list of demand lists;
    both the components and the demands within each preserve the input
    order, so downstream arithmetic (and its float rounding) is a pure
    function of the input sequence.
    """
    demands = list(demands)
    parent = list(range(len(demands)))

    def find(index):
        root = index
        while parent[root] != root:
            root = parent[root]
        while parent[index] != root:
            parent[index], index = root, parent[index]
        return root

    link_owner = {}
    for index, demand in enumerate(demands):
        for link in demand.links:
            owner = link_owner.get(link)
            if owner is None:
                link_owner[link] = index
            else:
                root_a, root_b = find(owner), find(index)
                if root_a != root_b:
                    # Attach the younger root under the older one so
                    # roots stay deterministic in input order.
                    if root_a < root_b:
                        parent[root_b] = root_a
                    else:
                        parent[root_a] = root_b

    groups = {}
    for index, demand in enumerate(demands):
        groups.setdefault(find(index), []).append(demand)
    return list(groups.values())


def _fill_component(demands, link_capacity):
    """Water-fill one connected component; returns ``flow_id -> rate``.

    Progressive filling scoped to a single component.  Each round finds
    the smallest increment that saturates a live link or reaches the
    lowest live cap, raises the shared fill level by it, drains the live
    links and freezes what saturated or capped out.  Three invariants
    keep a round's work proportional to the live links, with O(1) work
    per active flow:

    * ``live[link]`` holds the link's remaining capacity and the count
      of its active users; the count drops once per *distinct* link of
      each flow as it freezes, and a link leaves ``live`` at zero.  A
      saturated link freezes all its users, so it drops out of the scan
      on its own.  ``live`` keeps the links' first-use order, so the
      ``min`` scan meets values in that order.
    * Every active flow has received every increment since round one,
      so all active allocations are one float, ``level``; a flow's rate
      is the level at which it froze.
    * Capped flows are sorted once by ``(cap, input index)`` — never by
      flow id, since ids mix ints and strings.  Float subtraction
      rounds monotonically, so ``min(cap - level)`` over the active
      flows is ``min(cap) - level`` (the head of the sorted list), and
      the flows at their caps form a prefix of it.

    The float operations and their order are those of the plain loop
    that re-counts every link's users each round, so rates are
    bit-identical to it (``tests/network/test_fairness_kernel_diff.py``
    checks this against that loop kept as a reference).  The arithmetic
    depends only on the component's demand order, caps and link
    capacities — the exactness contract the incremental solver's cache
    relies on.
    """
    active = {}
    for demand in demands:
        active[demand.flow_id] = demand

    users = {}
    live = {}
    for demand in demands:
        fid = demand.flow_id
        for link in demand.links:
            flow_ids = users.get(link)
            if flow_ids is None:
                capacity = float(link_capacity[link])
                if not 0.0 <= capacity < math.inf:
                    # Rejects negative, NaN and infinite capacities: a
                    # NaN would silently poison every rate in the
                    # component, an infinite link would spin the
                    # filling loop forever for capless flows.
                    raise ValueError(
                        f"negative, NaN or infinite capacity "
                        f"{capacity} on {link!r}"
                    )
                users[link] = {fid: None}
                live[link] = [capacity, 0]
            else:
                flow_ids[fid] = None
    for link, flow_ids in users.items():
        live[link][1] = len(flow_ids)

    capped = sorted(
        (demand.cap, index)
        for index, demand in enumerate(demands)
        if demand.cap < math.inf
    )
    cap_values = [cap for cap, _ in capped]
    cap_fids = [demands[index].flow_id for _, index in capped]
    n_capped = len(capped)
    head = 0  # cap_fids[:head] are all frozen

    allocation = {fid: 0.0 for fid in active}
    level = 0.0
    while active:
        # Smallest increment that saturates a link or exhausts a cap.
        increment = math.inf
        for remaining, count in live.values():
            share = remaining / count
            if share < increment:
                increment = share
        while head < n_capped and cap_fids[head] not in active:
            head += 1
        if head < n_capped:
            headroom = cap_values[head] - level
            if headroom < increment:
                increment = headroom
        if increment == math.inf:
            # Only capless flows without links remain (the callers never
            # pass such a flow); freeze them at infinity rather than
            # loop forever.
            for fid in active:
                allocation[fid] = math.inf
            break
        if increment < 0.0:
            increment = 0.0

        # Apply the increment and drain link budgets.
        level += increment
        saturated = []
        for link, entry in live.items():
            left = entry[0] - increment * entry[1]
            entry[0] = left
            if left <= _EPS:
                saturated.append(link)

        # Freeze flows on saturated links and flows at their caps.
        frozen = {}
        for link in saturated:
            for fid in users[link]:
                if fid in active:
                    frozen[fid] = None
        while head < n_capped and level >= cap_values[head] - _EPS:
            fid = cap_fids[head]
            if fid in active:
                frozen[fid] = None
            head += 1
        if not frozen:
            # Numerical guard: increment was ~0 without freezing anyone;
            # freeze the tightest flow to guarantee termination.
            tight = min(
                active,
                key=lambda f: min(
                    [live[link][0] for link in active[f].links] +
                    [active[f].cap - level]
                ),
            )
            frozen[tight] = None
        for fid in frozen:
            allocation[fid] = level
            for link in dict.fromkeys(active.pop(fid).links):
                entry = live[link]
                if entry[1] == 1:
                    del live[link]
                else:
                    entry[1] -= 1

    return allocation


def max_min_allocation(demands, link_capacity):
    """Compute max-min fair rates.

    Parameters
    ----------
    demands:
        Iterable of :class:`FlowDemand`.  A demand whose ``links`` tuple
        is empty (loopback) simply receives its cap.
    link_capacity:
        Mapping from link key to available capacity in bytes/s.
        Capacities must be finite and non-negative.

    Returns
    -------
    dict
        ``flow_id -> rate`` in bytes/s.
    """
    demands = list(demands)
    rates = {}
    routed = []
    for demand in demands:
        if demand.flow_id in rates:
            raise ValueError(f"duplicate flow id {demand.flow_id!r}")
        if not demand.links:
            rates[demand.flow_id] = demand.cap
        else:
            rates[demand.flow_id] = 0.0  # placeholder, keeps dup check
            routed.append(demand)

    for component in flow_components(routed):
        rates.update(_fill_component(component, link_capacity))
    return rates
