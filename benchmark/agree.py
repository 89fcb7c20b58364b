#!/usr/bin/env python3
"""Do two sets of runs of the same code agree within the benchmark's own bounds?

Runs every workload of BENCHMARK.json in two sets, back to back, each run with
another --seed, through the file's own `command`. For every end-to-end metric
it prints the two medians, their relative difference (positive = the second
set is worse), every run's value and, with --runs of 4 or more, each set's
spread: the distance between the first and third quartile as a share of the
median. It exits 1 if a second median is worse than the first by more than the
metric's bound, or a spread exceeds the bound. The printed numbers are the
evidence the bounds in BENCHMARK.json are set from.

    python3 benchmark/agree.py              # every workload twice
    python3 benchmark/agree.py --runs 10    # the acceptance protocol

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(spec, workload, seed):
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1, help="runs per set (default 1)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    failures = []
    seed = 1
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for _ in range(2):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(spec, workload, seed))
                seed += 1
            sets.append(runs)
        print(f"\n{workload}: 2 sets of {args.runs} runs, {spec['run_seconds']} s each")
        print(f"{'metric':28} {'median 1':>14} {'median 2':>14} {'worse by':>9} "
              f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = ([run[name] for run in runs] for runs in sets)
            m1, m2 = statistics.median(first), statistics.median(second)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (m2 - m1) / abs(m1)
            spreads = [spread(first), spread(second)]
            shown = ["" if s is None else f"{s:9.4f}" for s in spreads]
            print(f"{name:28} {m1:14.6g} {m2:14.6g} {worse:+9.4f} "
                  f"{shown[0]:>9} {shown[1]:>9} {bound:>6}")
            for values in (first, second):
                print("    " + " ".join(f"{v:.6g}" for v in values))
            if worse > bound:
                failures.append(f"{workload} {name}: second median worse by {worse:.4f} > {bound}")
            for s in spreads:
                if s is not None and s > bound:
                    failures.append(f"{workload} {name}: spread {s:.4f} > {bound}")

    if failures:
        print("\nDISAGREE:\n  " + "\n  ".join(failures))
        sys.exit(1)
    print("\nagree: every end-to-end metric within its bound")


if __name__ == "__main__":
    main()
