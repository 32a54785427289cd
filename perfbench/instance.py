"""One workload instance in a fresh process; prints one JSON line.

``run.py`` starts this script once per instance, with stderr sent to a
file, and reads the last line of its stdout.  Run by hand::

    PYTHONPATH=src python3 perfbench/instance.py parallel_fetch 1 full 0

Arguments: workload, seed, size (full|small), traced (0|1) and, when
traced, the path prefix the spans are written to.
"""

import hashlib
import json
import sys
import time

from repro.obs.perf.bench import SimUsageTracker, peak_rss_bytes

from reference import SpeedProbe
from tracing import LAYERS, RunClock, Tracer
from workloads import WORKLOADS


#: Seconds the speed probe samples the machine before set-up starts:
#: set-up is too short to hold enough bursts of its own.
SETUP_MARGIN_S = 0.25


def _canonical(value):
    """JSON-ready copy with every float as its shortest repr."""
    if isinstance(value, float):
        return repr(value + 0.0)  # + 0.0 folds -0.0 into 0.0
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(outcome, tracker):
    payload = {
        "results": outcome["digest"],
        "events": tracker.events_processed,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
    }
    text = json.dumps(_canonical(payload), sort_keys=True)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, outcome, record):
    """Every per-layer metric of one traced run, by name."""
    self_s = tracer.self_seconds()
    by_site = dict(zip(tracer.site_names, self_s))
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for layer, seconds in zip(tracer.site_layers, self_s):
        by_layer[layer] += seconds
    calls = tracer.site_calls
    counts = tracer.counts
    solvers = tracer.solvers
    solves = sum(s.solves for s in solvers)
    hits = sum(s.cache_hits for s in solvers)
    rates_calls = calls("IncrementalMaxMinSolver.rates")
    starts = calls("FlowNetwork.start_flow")
    transfers = calls("GridFtpClient.get")
    attempts = counts["reliable.attempts"]
    gave_up = counts["reliable.gave_up"]
    failed_attempts = attempts - counts["reliable.useful"]
    metrics = {
        "network.solver.calls": rates_calls,
        "network.solver.self_s": by_site["IncrementalMaxMinSolver.rates"],
        "network.solver.probe_calls":
            calls("IncrementalMaxMinSolver.probe_rate"),
        "network.solver.probe_s":
            by_site["IncrementalMaxMinSolver.probe_rate"],
        "network.solver.component_solves": solves,
        "network.solver.cache_hits": hits,
        "network.solver.probe_solves": sum(s.probe_solves for s in solvers),
        "network.solver.component_lookups": solves + hits,
        "network.solver.hit_ratio": _ratio(hits, solves + hits),
        "network.solver.flows_per_call":
            _ratio(counts["solver.flows"], rates_calls),
        "network.flow.starts": starts,
        "network.flow.aborts": calls("FlowNetwork.abort_flow"),
        "network.flow.rebalances": calls("FlowNetwork.rebalance"),
        "network.flow.probes": calls("FlowNetwork.probe_rate"),
        "network.flow.self_s": by_layer["network.flow"],
        "network.flow.solver_calls_per_start": _ratio(rates_calls, starts),
        "gridftp.transfers": transfers,
        "gridftp.streams_per_transfer":
            _ratio(counts["gridftp.streams"], counts["gridftp.completed"]),
        "gridftp.self_s": by_layer["gridftp"],
        "gridftp.reliable.transfers":
            calls("ReliableFileTransfer.get")
            + calls("ReliableFileTransfer.get_logical"),
        "gridftp.reliable.attempts": attempts,
        "gridftp.reliable.retries": max(0, failed_attempts - gave_up),
        "gridftp.reliable.gave_up": gave_up,
        "gridftp.reliable.useful_ratio":
            _ratio(counts["reliable.useful"], attempts),
        "gridftp.reliable.self_s": by_layer["gridftp.reliable"],
        "monitoring.nws.measurements": calls("Sensor.measure_once"),
        "monitoring.nws.self_s": by_site["Sensor.measure_once"],
        "monitoring.nws.forecast_updates": calls("ForecasterBattery.update"),
        "monitoring.nws.forecast_s": by_site["ForecasterBattery.update"],
        "monitoring.information.site_factors":
            calls("InformationService.site_factors"),
        "monitoring.information.self_s":
            by_layer["monitoring.information"],
        "monitoring.information.fallbacks":
            sum(s.fallbacks for s in tracer.information),
        "core.selections":
            calls("ReplicaSelectionServer.score_candidates")
            + calls("CostModelSelector.select"),
        "core.candidates_scored": counts["core.candidates"],
        "core.self_s": by_layer["core"],
        "core.no_live_replica": counts["core.no_live_replica"],
        "controlplane.requests": calls("FrontDoor.handle"),
        "controlplane.self_s": by_layer["controlplane"],
        "controlplane.admitted": 0,
        "controlplane.shed": 0,
        "controlplane.dedup_hits": 0,
        "controlplane.queue_high_water": 0,
        "controlplane.breaker_opens": 0,
        "chaos.injections": 0,
        "sim.events": record["events"],
        "sim.scheduled": record["scheduled"],
        "sim.self_s": by_layer["sim"],
        "testbed.build_s": record["setup_s"],
        "testbed.warmup_s": tracer.warmup_s,
        "obs.unattributed_s": record["wall_s"] - sum(self_s),
        "obs.traced_wall_s": record["wall_s"],
        "obs.spans": len(tracer.starts),
    }
    metrics.update(outcome["layer_counts"])
    return metrics


def main(argv):
    workload, seed, size, traced = argv[:4]
    tracer = Tracer() if traced == "1" else None
    # Untraced instances sample the machine's speed, from a little
    # before set-up on; the traced one is timed layer by layer instead,
    # and bursts would land in its spans.
    probe = None
    if tracer is None:
        probe = SpeedProbe()
        probe.start()
        time.sleep(SETUP_MARGIN_S)
    clock = RunClock(tracer)
    tracker = SimUsageTracker()
    begin = time.perf_counter()
    with tracker:
        outcome = WORKLOADS[workload](int(seed), size)
    if probe is not None:
        probe.stop()
    end = time.perf_counter()
    cpu_end = time.process_time()
    if tracer is not None:
        tracer.on = False
    record = {
        "setup_s": clock.wall_start - begin,
        "wall_s": end - clock.wall_start,
        "cpu_s": cpu_end - clock.cpu_start,
        "peak_rss_mb": peak_rss_bytes() / 1e6,
        "events": tracker.events_processed,
        "scheduled": tracker.events_scheduled,
        "digest": digest(outcome, tracker),
    }
    if probe is not None:
        record["setup_wall_s"] = record["setup_s"]
        record["setup_s"], _ = probe.at_reference_speed(
            begin, clock.wall_start, margin=SETUP_MARGIN_S
        )
        record["wall_ref_s"], record["cpu_ref_s"] = probe.at_reference_speed(
            clock.wall_start, end, record["cpu_s"]
        )
        record["probe_bursts"] = len(probe.wall)
        record["probe_s"] = sum(probe.wall)
    for key in ("attempted", "failed", "latency", "goodput_mb_s",
                "checks", "notes"):
        record[key] = outcome[key]
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, outcome, record)
        tracer.write(argv[4])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
