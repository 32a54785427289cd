"""Cross-check the traced run's solver share against two profilers.

Runs one workload instance twice in this process, under cProfile and
under a stack sampler (SIGPROF every millisecond), and prints the share
of time each attributes to the solver's files.  Compare with
``network.solver.self_s + network.solver.probe_s`` over
``obs.traced_wall_s`` from a traced run of the same seed (both run its
first input seed)::

    python3 perfbench/profile_share.py --workload frontdoor_brownout --seed 1
    python3 perfbench/run.py --workload frontdoor_brownout --seed 1 --trace 1

cProfile adds cost to every Python call, built-ins included, so it
inflates call-heavy code and its shares shift; the sampler charges a
sample to the solver when any frame on the stack is in the solver's
files, which is what the layer's self time measures (the solver calls
no other traced layer).
"""

import argparse
import cProfile
import pstats
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import input_seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FILES = ("network/fairness.py", "network/solver.py")
SAMPLE_INTERVAL_S = 0.001


def cprofile_shares(run):
    profile = cProfile.Profile()
    profile.enable()
    run()
    profile.disable()
    stats = pstats.Stats(profile)
    by_file = dict.fromkeys(FILES, 0.0)
    for (filename, _, _), row in stats.stats.items():
        for suffix in FILES:
            if filename.endswith(suffix):
                by_file[suffix] += row[2]  # tottime
    return by_file, stats.total_tt


def sampled_shares(run):
    by_file = dict.fromkeys(FILES, 0)
    total = [0]

    def on_sample(_signum, frame):
        total[0] += 1
        while frame is not None:
            filename = frame.f_code.co_filename
            for suffix in FILES:
                if filename.endswith(suffix):
                    by_file[suffix] += 1
                    return
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, on_sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    try:
        run()
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return by_file, total[0]


def report(title, by_file, total, unit):
    print(f"{title}: {total:.6g} {unit}")
    for suffix, amount in by_file.items():
        print(f"  {suffix:<22} {100 * amount / total:6.2f}%")
    both = sum(by_file.values())
    print(f"  {'both':<22} {100 * both / total:6.2f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="frontdoor_brownout",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    def run():
        WORKLOADS[args.workload](input_seeds(args.seed)[0], "full")

    report("cProfile", *cprofile_shares(run), "profiled s")
    report("sampler", *sampled_shares(run), "samples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
