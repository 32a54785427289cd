"""Layer spans recorded from outside the program.

The benchmark never edits the simulator.  In a traced run it replaces a
handful of public methods, at class level, with wrappers that open a
span on entry and close it on exit.  Generator methods (the simulator's
processes) are timed over each resumption only, so a transfer waiting in
simulated time costs no host time.  Every span records its parent, so a
layer's self time is its spans' duration minus the part covered by child
spans: solver time reached from a GridFTP callback is booked to
``network.solver``, not to ``gridftp``.

Spans are kept in flat arrays while the run goes and written out once it
ends (:meth:`Tracer.write`).  Recording starts at the first
``Simulator.run`` call, the same instant the untraced run starts its
``wall_s`` clock, so set-up work is never in a span.
"""

import array
import functools
import json
import time
from collections import Counter

from repro.controlplane import FrontDoor
from repro.core.baselines import CostModelSelector
from repro.core.server import NoLiveReplicaError, ReplicaSelectionServer
from repro.gridftp import ReliableFileTransfer
from repro.gridftp.gridftp import GridFtpClient
from repro.gridftp.reliable import TooManyAttemptsError
from repro.monitoring.information import InformationService
from repro.monitoring.nws.forecasting import ForecasterBattery
from repro.monitoring.nws.sensor import Sensor
from repro.network.flow import FlowNetwork
from repro.network.solver import IncrementalMaxMinSolver
from repro.sim.kernel import Simulator
from repro.testbed.builder import Testbed

__all__ = ["LAYERS", "RunClock", "Tracer"]

#: Layers in report order; names follow the program's module names.
LAYERS = (
    "network.solver", "network.flow", "gridftp", "gridftp.reliable",
    "monitoring.nws", "monitoring.information", "core", "controlplane",
    "sim",
)


class RunClock:
    """Marks the first ``Simulator.run`` call: the start of ``wall_s``.

    Installed in every run, traced or not; it costs one extra call per
    ``Simulator.run`` call, and a workload makes a handful of those.
    """

    def __init__(self, tracer=None):
        self.wall_start = None
        self.cpu_start = None
        self._tracer = tracer
        original = Simulator.run
        clock = self

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            if clock.wall_start is None:
                clock.wall_start = time.perf_counter()
                clock.cpu_start = time.process_time()
                if clock._tracer is not None:
                    clock._tracer.on = True
            tracer = clock._tracer
            if tracer is None or not tracer.on:
                return original(sim, *args, **kwargs)
            site = tracer.site_ids["sim.run"]
            tracer.calls[site] += 1
            index = tracer.open(site)
            try:
                return original(sim, *args, **kwargs)
            finally:
                tracer.close(index)

        Simulator.run = run


class Tracer:
    """In-memory span recorder plus the class-level wrappers feeding it.

    A span is four array entries: start, end, parent span index (-1 for
    none) and the site — the wrapped method — it was opened for.
    """

    def __init__(self):
        self.on = False
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("l")
        self.sites = array.array("H")
        self._stack = []
        #: site name -> index, and the layer each site books time to.
        self.site_ids = {}
        self.site_names = []
        self.site_layers = []
        #: Calls per site (a generator call counts once, not per resume).
        self.calls = Counter()
        #: Counts the wrappers derive from arguments and results.
        self.counts = Counter()
        self.warmup_s = 0.0
        self.solvers = []
        self.information = []
        self._add_site("sim.run", "sim")
        self._install()

    # -- recording -----------------------------------------------------

    def open(self, site):
        index = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.sites.append(site)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def current_layer(self):
        """Layer of the innermost open span, or None."""
        if not self._stack:
            return None
        return self.site_layers[self.sites[self._stack[-1]]]

    # -- wrapping ------------------------------------------------------

    def _add_site(self, name, layer):
        site = len(self.site_names)
        self.site_ids[name] = site
        self.site_names.append(name)
        self.site_layers.append(layer)
        return site

    def _wrap_call(self, layer, cls, method, after=None):
        """Time a plain method; ``after(self_obj, result)`` counts."""
        original = getattr(cls, method)
        site = self._add_site(f"{cls.__name__}.{method}", layer)
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            if not tracer.on:
                return original(obj, *args, **kwargs)
            tracer.calls[site] += 1
            index = tracer.open(site)
            try:
                result = original(obj, *args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(obj, result)
            return result

        setattr(cls, method, traced)

    def _wrap_generator(self, layer, cls, method, on_call=None,
                        on_return=None, on_error=None):
        """Time a generator method over each of its resumptions.

        ``on_call(obj, args)`` runs when the generator is created and
        returns a token handed to ``on_return(token, value)`` or
        ``on_error(token, exc)`` when the generator ends.
        """
        original = getattr(cls, method)
        site = self._add_site(f"{cls.__name__}.{method}", layer)
        tracer = self

        @functools.wraps(original)
        def traced(obj, *args, **kwargs):
            inner = original(obj, *args, **kwargs)
            if not tracer.on:
                return inner
            tracer.calls[site] += 1
            token = on_call(obj, args) if on_call is not None else None
            return tracer._drive(site, inner, token, on_return, on_error)

        setattr(cls, method, traced)

    def _drive(self, site, inner, token, on_return, on_error):
        value = None
        error = None
        while True:
            index = self.open(site)
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                self.close(index)
                if on_return is not None:
                    on_return(token, stop.value)
                return stop.value
            except BaseException as exc:
                self.close(index)
                if on_error is not None:
                    on_error(token, exc)
                raise
            self.close(index)
            try:
                value = yield yielded
                error = None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                value = None
                error = exc

    def _install(self):
        counts = self.counts
        solvers = self.solvers
        information = self.information

        def note_solver(solver, rates):
            if solver not in solvers:
                solvers.append(solver)
            counts["solver.flows"] += len(rates)

        def note_probe(solver, _rate):
            if solver not in solvers:
                solvers.append(solver)

        self._wrap_call("network.solver", IncrementalMaxMinSolver, "rates",
                        after=note_solver)
        self._wrap_call("network.solver", IncrementalMaxMinSolver,
                        "probe_rate", after=note_probe)
        for method in ("start_flow", "abort_flow", "rebalance",
                       "probe_rate"):
            self._wrap_call("network.flow", FlowNetwork, method)

        # A GridFTP get issued from inside a reliable-transfer span is
        # one RFT attempt; its outcome decides whether it was useful.
        def get_called(_client, _args):
            return self.current_layer() == "gridftp.reliable"

        def get_returned(attempt, record):
            counts["gridftp.completed"] += 1
            counts["gridftp.streams"] += record.streams
            if attempt:
                counts["reliable.attempts"] += 1
                counts["reliable.useful"] += 1

        def get_failed(attempt, _exc):
            if attempt:
                counts["reliable.attempts"] += 1

        self._wrap_generator("gridftp", GridFtpClient, "get",
                             on_call=get_called, on_return=get_returned,
                             on_error=get_failed)

        def reliable_failed(_token, exc):
            if isinstance(exc, TooManyAttemptsError):
                counts["reliable.gave_up"] += 1

        for method in ("get", "get_logical"):
            self._wrap_generator("gridftp.reliable", ReliableFileTransfer,
                                 method, on_error=reliable_failed)

        self._wrap_call("monitoring.nws", Sensor, "measure_once")
        self._wrap_call("monitoring.nws", ForecasterBattery, "update")

        def factors_called(service, _args):
            if service not in information:
                information.append(service)

        self._wrap_generator("monitoring.information", InformationService,
                             "site_factors", on_call=factors_called)

        def scored(_token, decision):
            counts["core.candidates"] += len(decision.scores)

        def score_failed(_token, exc):
            if isinstance(exc, NoLiveReplicaError):
                counts["core.no_live_replica"] += 1

        self._wrap_generator("core", ReplicaSelectionServer,
                             "score_candidates", on_return=scored,
                             on_error=score_failed)

        def selector_called(_selector, args):
            counts["core.candidates"] += len(args[1])

        self._wrap_generator("core", CostModelSelector, "select",
                             on_call=selector_called)
        self._wrap_generator("controlplane", FrontDoor, "handle")

        original_warm_up = Testbed.warm_up
        tracer = self

        @functools.wraps(original_warm_up)
        def warm_up(testbed, *args, **kwargs):
            begin = time.perf_counter()
            try:
                return original_warm_up(testbed, *args, **kwargs)
            finally:
                tracer.warmup_s += time.perf_counter() - begin

        Testbed.warm_up = warm_up

    # -- results -------------------------------------------------------

    def self_seconds(self):
        """Self time per site: duration minus child-span coverage."""
        starts, ends, parents, sites = (
            self.starts, self.ends, self.parents, self.sites
        )
        child = [0.0] * len(starts)
        for index in range(len(starts)):
            parent = parents[index]
            if parent >= 0:
                child[parent] += ends[index] - starts[index]
        per_site = [0.0] * len(self.site_names)
        for index in range(len(starts)):
            per_site[sites[index]] += (
                ends[index] - starts[index] - child[index]
            )
        return per_site

    def site_calls(self, name):
        return self.calls[self.site_ids[name]]

    def write(self, prefix):
        """Write the spans as raw arrays plus a JSON description."""
        with open(f"{prefix}.spans.bin", "wb") as handle:
            for column in (self.starts, self.ends, self.parents,
                           self.sites):
                column.tofile(handle)
        meta = {
            "spans": len(self.starts),
            "columns": [
                ["start", self.starts.typecode, self.starts.itemsize],
                ["end", self.ends.typecode, self.ends.itemsize],
                ["parent", self.parents.typecode, self.parents.itemsize],
                ["site", self.sites.typecode, self.sites.itemsize],
            ],
            "sites": [
                {"name": name, "layer": layer}
                for name, layer in zip(self.site_names, self.site_layers)
            ],
            "clock": "time.perf_counter, seconds",
        }
        with open(f"{prefix}.spans.json", "w") as handle:
            json.dump(meta, handle, indent=1)
