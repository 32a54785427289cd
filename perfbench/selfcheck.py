"""Self-check of the benchmark: every workload at small size.

Runs ``run.py`` on each workload listed in ``BENCHMARK.json``, untraced
and traced, with the ``small`` sizes, and checks that the last output
line is the promised JSON object: the output check passed, and every
end-to-end (untraced) or per-layer (traced) metric is there with its
listed unit and a finite number.  Takes about half a minute::

    python3 perfbench/selfcheck.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_result(result, listed):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(result)}")
        return problems
    if result["correct"] is not True:
        problems.append("output check failed")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    wanted = {metric["name"]: metric["unit"] for metric in listed}
    if set(metrics) != set(wanted):
        problems.append(
            f"metric names differ: missing {sorted(set(wanted) - set(metrics))}"
            f", extra {sorted(set(metrics) - set(wanted))}"
        )
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != wanted.get(name):
            problems.append(f"{name}: unit {entry.get('unit')!r}")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            problems.append(f"{name}: value {value!r}")
    return problems


def main():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    failures = 0
    for workload in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]),
                              (1, spec["per_layer"])):
            command = [
                sys.executable, str(HERE / "run.py"),
                "--workload", workload["name"], "--seed", "1",
                "--seconds", "1", "--trace", str(trace), "--size", "small",
            ]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems = [f"exit {done.returncode}: {done.stderr.strip()}"]
            else:
                problems = check_result(json.loads(lines[-1]), listed)
            status = "ok" if not problems else "FAIL"
            print(f"{workload['name']:<20} trace={trace} {status}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
