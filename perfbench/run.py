"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload parallel_fetch --seed 1 \\
        --seconds 30 --trace 0

Each workload instance runs in a fresh single-threaded process
(``instance.py``), one after another, with its stderr captured to a file
under ``perfbench/out/``.  ``--seed`` stands for ``SEEDS_PER_RUN`` input
seeds, so that one run averages over that many inputs.  ``--trace 0``
runs an instance of each, then repeats them in turn until the time
budget is spent, and reports each end-to-end metric as the mean over
the input seeds of its median over their instances.  ``--trace 1`` runs
one untraced and one traced instance of the first input seed and reports
the per-layer metrics of the traced one.  Either way all instances of
one input seed must hash their simulated results to one digest.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, each metric ``{"value": ..., "unit": ...}``
as listed in ``BENCHMARK.json``.  The lines before it explain the
figures.  Exit status 2 means the checkout holds no program to run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Every run must end within this many seconds, children included.
DEADLINE_S = 170.0
#: Input seeds per run.  Host time on ``frontdoor_brownout`` moves with
#: the arrival trace by about 9% (quartile spread over ten seeds); the
#: mean over two traces narrows that.
SEEDS_PER_RUN = 2


class InstanceFailed(Exception):
    """A workload instance crashed or timed out."""


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the self-check's quick sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def input_seeds(seed):
    """The input seeds ``--seed`` stands for; disjoint between seeds."""
    return [seed * SEEDS_PER_RUN + k for k in range(SEEDS_PER_RUN)]


def run_instance(args, seed, traced, tag, began):
    """One instance in its own process; returns its result record."""
    prefix = OUT / f"{args.workload}-seed{seed}-{tag}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "instance.py"), args.workload,
        str(seed), args.size, "1" if traced else "0", str(prefix),
    ]
    stderr_path = Path(f"{prefix}.stderr")
    remaining = DEADLINE_S - (time.perf_counter() - began)
    with open(stderr_path, "w") as stderr:
        try:
            done = subprocess.run(
                command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=stderr, text=True, timeout=max(1.0, remaining),
            )
        except subprocess.TimeoutExpired:
            raise InstanceFailed(
                f"{tag} instance timed out; see {stderr_path}"
            ) from None
    if done.returncode != 0 or not done.stdout.strip():
        raise InstanceFailed(
            f"{tag} instance exited {done.returncode}; see {stderr_path}"
        )
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record["seed"] = seed
    with open(stderr_path) as stderr:
        record["stderr_lines"] = sum(1 for _ in stderr)
    return record


def by_seed(records):
    """Records grouped by input seed, in the order the seeds first ran."""
    groups = {}
    for record in records:
        groups.setdefault(record["seed"], []).append(record)
    return groups


def check(records):
    """Output-check failures across the instances of one run."""
    problems = []
    for index, record in enumerate(records):
        problems += [f"instance {index}: {c}" for c in record["checks"]]
    for seed, group in by_seed(records).items():
        digests = sorted({record["digest"] for record in group})
        if len(digests) > 1:
            problems.append(
                f"input seed {seed}, different digests: {digests}"
            )
    return problems


def end_to_end(records):
    """End-to-end metric values: means over the input seeds.

    Host figures are each input seed's median over its instances, at
    reference speed (``reference.py``), which cancels the drift in speed
    of a shared machine.  Simulated figures repeat exactly for one input
    seed (the digest check proves it), so they come from its first
    instance.
    """
    groups = list(by_seed(records).values())
    values = {
        name: statistics.fmean(
            statistics.median(record[name] for record in group)
            for group in groups
        )
        for name in ("wall_ref_s", "cpu_ref_s", "setup_s", "peak_rss_mb")
    }
    firsts = [group[0] for group in groups]
    values["sim_latency_p50_s"] = statistics.fmean(
        record["latency"]["p50"] for record in firsts
    )
    values["sim_latency_tail_s"] = statistics.fmean(
        record["latency"]["tail"] for record in firsts
    )
    values["sim_goodput_mb_s"] = statistics.fmean(
        record["goodput_mb_s"] for record in firsts
    )
    return values


def explain_end_to_end(records, values, units):
    groups = by_seed(records)
    lines = [f"{len(records)} untraced instance(s) of input seeds "
             f"{', '.join(map(str, groups))}"]
    for name, value in values.items():
        lines.append(f"  {name:<22} {value:.6g} {units[name]}")
    lines.append(
        "  host figures as measured are not gated: they move with the "
        "machine's load"
    )
    for seed, group in groups.items():
        first = group[0]
        latency = first["latency"]
        attempted = first["attempted"]
        lines.append(f"input seed {seed}: digest {first['digest']}")
        for name in ("wall_ref_s", "wall_s", "setup_s", "setup_wall_s"):
            each = ", ".join(f"{r[name]:.4g}" for r in group)
            lines.append(f"  {name} per instance: {each}")
        lines.append(
            f"  speed probe: {first['probe_bursts']} bursts, "
            f"{first['probe_s']:.3g} s, taken out of the reference figures"
        )
        lines.append(
            f"  sim latency: p50 {latency['p50']:.6g} and "
            f"p{latency['tail_q']:g} {latency['tail']:.6g} (the highest "
            f"percentile with >= 10 samples beyond it) of "
            f"{latency['samples']} samples"
        )
        lines.append(
            f"  failed_share {first['failed']}/{attempted} = "
            f"{first['failed'] / attempted:.6g} (neither completed nor "
            f"served by dedup at the end of the run)"
        )
        for key, value in first["notes"].items():
            lines.append(f"  {key} {value:.6g}")
        lines.append(
            f"  events {first['events']} "
            f"({first['events'] / first['wall_ref_s']:.6g} events per "
            f"reference second; not gated, since coalescing changes the "
            f"count)"
        )
        lines.append(f"  stderr lines per instance: {first['stderr_lines']}")
    if "selection_agreement" in records[0]["notes"]:
        lines.append(
            "selection_agreement is the cost model's agreement with the "
            "oracle pick; the model is unvalidated on generated grids, so "
            "no error figure is given"
        )
    return lines


def per_layer(plain, traced):
    values = dict(traced["layers"])
    values["obs.stderr_lines"] = traced["stderr_lines"]
    # The untraced instance's wall time includes its speed-probe bursts.
    values["obs.tracing_overhead"] = traced["wall_s"] / (
        plain["wall_s"] - plain["probe_s"]
    )
    return values


def explain_per_layer(values):
    wall = values["obs.traced_wall_s"]
    lines = [f"traced wall_s {wall:.4f} s; self time by layer:"]
    layers = {
        name[:-len(".self_s")]: value
        for name, value in values.items()
        if name.endswith(".self_s")
    }
    layers["network.solver"] += values["network.solver.probe_s"]
    layers["monitoring.nws"] += values["monitoring.nws.forecast_s"]
    layers["(unattributed)"] = values["obs.unattributed_s"]
    for name, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(
            f"  {name:<24} {seconds:10.4f} s {100 * seconds / wall:6.2f}%"
        )
    return lines


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps
    # the running instance instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    began = time.perf_counter()
    try:
        seeds = input_seeds(args.seed)
        if args.trace:
            records = [
                run_instance(args, seeds[0], False, "plain", began),
                run_instance(args, seeds[0], True, "traced", began),
            ]
        else:
            # Every input seed once, then in turn while time is left.
            records = []
            while True:
                seed = seeds[len(records) % len(seeds)]
                records.append(run_instance(
                    args, seed, False, f"run{len(records)}", began
                ))
                elapsed = time.perf_counter() - began
                if len(records) >= len(seeds) and elapsed * (
                        len(records) + 1) / len(records) > args.seconds:
                    break
    except InstanceFailed as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    problems = check(records)
    if args.trace:
        listed = spec["per_layer"]
        values = per_layer(*records)
        lines = explain_per_layer(values)
    else:
        listed = spec["end_to_end"]
        values = end_to_end(records)
        lines = explain_end_to_end(
            records, values, {m["name"]: m["unit"] for m in listed}
        )
    for line in lines + [f"output check failed: {p}" for p in problems]:
        print(line)

    attempted = sum(record["attempted"] for record in records)
    failed = sum(record["failed"] for record in records)
    if problems:
        failed = attempted
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
