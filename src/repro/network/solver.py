"""Incremental max-min fair-share solver.

:func:`repro.network.fairness.max_min_allocation` is a pure oracle: give
it every demand and every capacity, get every rate.  The flow network
needs fresh rates on *every* flow arrival, departure and capacity
change, and the NWS bandwidth sensors need one more for every probe —
on a busy grid, calling the oracle each time would water-fill the whole
topology many times per simulated second, even though most changes
touch one corner of it.

:class:`IncrementalMaxMinSolver` exploits the oracle's component
structure (see :func:`repro.network.fairness.flow_components`): flows
that share no link, directly or transitively, are solved independently,
so a change can only affect the rates of its own connected component.
The solver keeps the live demand set, groups it into components per
solve, and caches each component's rates keyed by its exact membership
and link capacities.  A component whose membership and capacities are
unchanged is a cache hit — its rates are returned verbatim, and they are
*bit-identical* to a fresh oracle solve because component arithmetic is
a pure function of (demand order, demand caps, link capacities), all of
which the cache key pins:

* membership is a frozenset of flow ids, and flow ids are never reused,
  so an equal key implies the same demand objects in the same relative
  (insertion) order;
* demand caps and links are immutable (:class:`FlowDemand` fields are
  set once);
* capacities are compared for exact float equality (NaN is rejected by
  the oracle, so equality is well-behaved).

Chaos actions that rewrite capacities therefore invalidate exactly the
components they touch — the "full solve fallback" degenerates naturally
to re-solving every component when everything changed.

The oracle is kept as the test reference:
``tests/network/test_fairness_incremental.py`` drives random churn
sequences through the solver and the oracle and asserts exact equality.
"""

import math

from repro.network.fairness import (
    FlowDemand,
    _fill_component,
    flow_components,
)

__all__ = ["IncrementalMaxMinSolver"]


class IncrementalMaxMinSolver:
    """Connected-component-cached max-min fair-share solver.

    The owner (:class:`repro.network.flow.FlowNetwork`) mirrors its live
    flow set into the solver via :meth:`add_flow` / :meth:`remove_flow`,
    then asks for :meth:`rates` with fresh link capacities whenever the
    flow set or a capacity changes.
    """

    def __init__(self):
        #: fid -> FlowDemand, in flow insertion order (never reordered).
        self._demands = {}
        #: link key -> set of fids currently using it.
        self._link_users = {}
        #: frozenset(fids) -> (capacity snapshot, rates) per component.
        self._cache = {}
        #: Diagnostics: component solves actually performed / avoided.
        self.solves = 0
        self.cache_hits = 0
        self.probe_solves = 0

    def __repr__(self):
        return (
            f"<IncrementalMaxMinSolver {len(self._demands)} flows, "
            f"{self.solves} solves, {self.cache_hits} hits>"
        )

    # -- demand-set mirroring ---------------------------------------------

    def add_flow(self, flow_id, links, cap=math.inf):
        """Register a new flow (its component re-solves on next call)."""
        if flow_id in self._demands:
            raise ValueError(f"duplicate flow id {flow_id!r}")
        demand = FlowDemand(flow_id, links, cap)
        self._demands[flow_id] = demand
        for link in demand.links:
            self._link_users.setdefault(link, set()).add(flow_id)

    def remove_flow(self, flow_id):
        """Drop a departed flow."""
        demand = self._demands.pop(flow_id)
        for link in demand.links:
            users = self._link_users[link]
            users.discard(flow_id)
            if not users:
                del self._link_users[link]

    def invalidate(self):
        """Drop every cached component (forces a full re-solve).

        Not needed for correctness — capacity changes miss the cache on
        their own — but lets callers pin down behaviour in tests and
        recover memory after massive churn.
        """
        self._cache.clear()

    # -- solving -----------------------------------------------------------

    def rates(self, link_capacity):
        """Rates for every registered flow; oracle-exact.

        ``link_capacity`` maps link key -> available capacity and must
        cover every registered link; read it fresh so capacity changes
        (chaos, background traffic) are picked up and invalidate exactly
        the components they touch.
        """
        rates = {}
        routed = []
        for demand in self._demands.values():
            if not demand.links:
                rates[demand.flow_id] = demand.cap
            else:
                routed.append(demand)

        cache = self._cache
        next_cache = {}
        for component in flow_components(routed):
            key = frozenset(d.flow_id for d in component)
            capacities = {}
            for demand in component:
                for link in demand.links:
                    if link not in capacities:
                        capacities[link] = float(link_capacity[link])
            cached = cache.get(key)
            if cached is not None and cached[0] == capacities:
                self.cache_hits += 1
                entry = cached
            else:
                self.solves += 1
                entry = (capacities, _fill_component(component, capacities))
            rates.update(entry[1])
            next_cache[key] = entry
        self._cache = next_cache
        return rates

    def probe_rate(self, probe_caps, cap, capacity_of):
        """Rate a hypothetical flow over the probed links would receive.

        ``probe_caps`` is a sequence of ``(link_key, capacity)`` pairs
        for the probe's own path, read fresh by the caller;
        ``capacity_of(key)`` reads a fresh capacity for any other link
        the contention closure drags in.

        Solves only the probe's would-be connected component — the
        transitive closure of flows contending for the probe's links —
        with the probe's demand appended last, exactly where the oracle
        path appends it.  Flows outside the closure cannot affect the
        result (they would land in other components), so this equals the
        full oracle solve bit-for-bit.  An *empty* closure (an idle
        corner of the grid — the common case for sensor probes) skips
        the water-filling entirely: a lone capped flow's fair share is
        ``min(cap, min(link capacities))``, which is exactly what one
        filling round computes for it.
        """
        if not cap >= 0:
            # The closure path rejects this when it builds the probe's
            # FlowDemand; the short-cuts below never build one.
            raise ValueError(f"negative or NaN cap {cap}")
        probe_caps = list(probe_caps)
        if not probe_caps:
            return float(cap)
        link_users = self._link_users
        member = ()
        for key, _ in probe_caps:
            if key in link_users:
                member = self._closure([k for k, _ in probe_caps])
                break
        if not member:
            rate = float(cap)
            for key, capacity in probe_caps:
                capacity = float(capacity)
                if not 0.0 <= capacity < math.inf:
                    raise ValueError(
                        f"negative, NaN or infinite capacity "
                        f"{capacity} on {key!r}"
                    )
                if capacity < rate:
                    rate = capacity
            # `+ 0.0` matches the oracle's `allocation = 0.0 + rate`
            # (normalises a -0.0 capacity to 0.0).
            return rate + 0.0
        component = [
            demand for fid, demand in self._demands.items() if fid in member
        ]
        capacities = dict(probe_caps)
        for demand in component:
            for link in demand.links:
                if link not in capacities:
                    capacities[link] = capacity_of(link)
        probe = FlowDemand("__probe__", [key for key, _ in probe_caps], cap)
        component.append(probe)
        self.probe_solves += 1
        return _fill_component(component, capacities)["__probe__"]

    def _closure(self, seed_links):
        """Flow ids transitively contending for any of ``seed_links``."""
        pending = list(seed_links)
        seen_links = set(pending)
        member = set()
        link_users = self._link_users
        demands = self._demands
        while pending:
            link = pending.pop()
            for fid in link_users.get(link, ()):
                if fid not in member:
                    member.add(fid)
                    for other in demands[fid].links:
                        if other not in seen_links:
                            seen_links.add(other)
                            pending.append(other)
        return member
