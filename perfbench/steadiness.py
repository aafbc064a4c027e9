#!/usr/bin/env python3
"""Measures how steady the end-to-end metrics are over repeated runs.

    python3 perfbench/steadiness.py [--runs 10] [--distinct-seeds]
                                    [--workloads a,b] [--out FILE]

Runs perfbench/run.py --runs times on each workload with tracing off and
reports for every end-to-end metric the median, the first and third
quartiles (statistics.quantiles, n=4), and the spread (q3 - q1) / median
next to the metric's bound from BENCHMARK.json. By default every run uses
the default seed, the input parent and change are compared on, so the
spread is the run-to-run noise a bound must absorb. --distinct-seeds runs
seeds 1..runs instead, as the benchmark's acceptance check does; its spread
also holds how much the generated graphs differ.

Each set also records the host steal and stall shares and how many runs the
generator fell behind in, so a noisy host can be told apart from a
regression. --out appends the set to a JSON file (perfbench/steadiness.json
holds the sets the bounds were set from) and prints how far each median
moved from the file's previous set with the same seeds.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import DEFAULT_SEED  # noqa: E402


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    lines = out.stdout.strip().split("\n")
    host = {}
    for line in lines:
        if " open: " in line:
            for key in ("loadgen.steal_share", "loadgen.stall_share"):
                match = re.search(re.escape(key) + r"=([0-9.eE+-]+)", line)
                host[key] = float(match.group(1))
            host["behind"] = "generator=BEHIND" in line
    return json.loads(lines[-1]), host


def flag(change, bound):
    return ("ok" if change <= bound / 3 else
            "within bound" if change <= bound else "PAST BOUND")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--distinct-seeds", action="store_true")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = (list(range(1, args.runs + 1)) if args.distinct_seeds
             else [DEFAULT_SEED] * args.runs)

    record = {"runs": args.runs, "seconds": args.seconds, "seeds": seeds,
              "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in metrics}
        steal, stall, behind = [], [], 0
        for seed in seeds:
            result, host = run_once(workload, seed, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect answers")
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            steal.append(host["loadgen.steal_share"])
            stall.append(host["loadgen.stall_share"])
            behind += host["behind"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{n}={values[n][-1]:.6g}" for n in metrics), flush=True)
        entry = {"metrics": {},
                 "steal_share": {"median": statistics.median(steal),
                                 "max": max(steal)},
                 "stall_share": {"median": statistics.median(stall),
                                 "max": max(stall)},
                 "generator_behind_runs": behind}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            entry["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": vals}
            print(f"  {workload:14s} {name:26s} median={median:<12.6g} "
                  f"spread={spread:.4f} bound={metrics[name]['bound']} "
                  f"{flag(spread, metrics[name]['bound'])}")
        print(f"  {workload:14s} steal median={entry['steal_share']['median']:.4f}"
              f" stall median={entry['stall_share']['median']:.4f}"
              f" behind runs={behind}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        sets = []
        if os.path.exists(args.out):
            with open(args.out) as f:
                sets = json.load(f)["sets"]
        earlier = [s for s in sets if s["seeds"] == seeds]
        if earlier:
            # How far a second set of the same inputs drifted: a shift in
            # the worse direction must stay within the bound.
            before = earlier[-1]["workloads"]
            for workload, entry in record["workloads"].items():
                if workload not in before:
                    continue
                for name, m in entry["metrics"].items():
                    old = before[workload]["metrics"][name]["median"]
                    shift = (m["median"] - old) / old if old else 0.0
                    worse = shift if metrics[name]["better"] == "lower" else -shift
                    print(f"  {workload:14s} {name:26s} shift={shift:+.4f} "
                          f"bound={metrics[name]['bound']} "
                          f"{flag(max(worse, 0.0), metrics[name]['bound'])}")
        sets.append(record)
        with open(args.out, "w") as f:
            json.dump({"sets": sets}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
