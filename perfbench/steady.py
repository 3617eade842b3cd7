#!/usr/bin/env python3
"""Steadiness and tracing-overhead checks for the benchmark.

Runs the benchmark command from BENCHMARK.json once per seed, then prints,
for every metric, the median over the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound, and each
run's value as a share of the median. A seed given twice is run twice,
and the deterministic counts the benchmark prints on stderr must then
repeat exactly.

With --overhead, each seed is also run traced, and the tracing overhead
is printed per end-to-end metric: the traced run's value (from its trace
file) minus the untraced one, as a share of the untraced one.

Run from the repository root:

    python3 perfbench/steady.py --workload simulate --seeds 1,2,3,4,5

Exits 1 when a run fails, a spread exceeds its metric's bound, or a
repeated seed's counts differ.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    counts = None
    for line in p.stderr.splitlines():
        if line.startswith("counts: "):
            counts = json.loads(line[len("counts: "):])
    return p.returncode, result, counts, p.stderr


def spread(xs):
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, ((q3 - q1) / abs(med) if med else 0.0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5")
    ap.add_argument("--overhead", action="store_true",
                    help="also run each seed traced and report the overhead")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    seeds = [int(s) for s in args.seeds.split(",")]
    values = {m["name"]: [] for m in metrics}
    overhead = {m["name"]: [] for m in metrics}
    counts_by_seed = {}
    ok = True
    for seed in seeds:
        code, result, counts, stderr = run(bench["command"], args.workload, seed,
                                           bench["run_seconds"], 0)
        if code != 0 or result is None or not result["correct"]:
            sys.stderr.write(stderr)
            print(f"seed {seed}: run failed (exit {code})")
            ok = False
            continue
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}")
        for name, v in result["metrics"].items():
            values.setdefault(name, []).append(v["value"])
        if seed in counts_by_seed and counts_by_seed[seed] != counts:
            print(f"seed {seed}: deterministic counts differ between runs")
            ok = False
        counts_by_seed[seed] = counts
        if args.overhead:
            code, _, _, stderr = run(bench["command"], args.workload, seed,
                                     bench["run_seconds"], 1)
            if code != 0:
                sys.stderr.write(stderr)
                print(f"seed {seed}: traced run failed (exit {code})")
                ok = False
                continue
            trace = json.load(open(f".bench_out/trace-{args.workload}-{seed}.json"))
            for name, traced in trace["end_to_end_traced"].items():
                base = result["metrics"][name]["value"]
                if base:
                    overhead[name].append((traced - base) / base)
    print(f"{'metric':<32} {'median':>14} {'spread':>8} {'bound/3':>8}")
    for m in metrics:
        xs = values.get(m["name"], [])
        if len(xs) < 2:
            print(f"{m['name']:<32} {'(too few runs)':>14}")
            continue
        med, sp = spread(xs)
        bound = m["bound"]
        flag = ""
        if sp > bound:
            flag, ok = "  OVER BOUND", False
        elif sp > bound / 3:
            flag = "  over bound/3"
        print(f"{m['name']:<32} {med:>14.6g} {sp:>8.4f} {bound / 3:>8.4f}{flag}")
        if med:
            print("    " + " ".join(f"{x / med:.3f}" for x in xs))
    if args.overhead:
        print("tracing overhead (traced - untraced) / untraced, median over seeds:")
        for name, xs in overhead.items():
            if xs:
                print(f"{name:<32} {statistics.median(xs):>+8.3f}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
