#!/usr/bin/env python3
"""Noise study of the benchmark, the way its driver judges it.

Runs every workload ten times untraced, each with another --seed, and does
that twice. For every workload/metric pair it prints, as a markdown table:
each set's median, each set's spread (the distance between the first and
third quartile of the ten values, as statistics.quantiles(n=4) gives them,
as a share of their median), how much worse the second median is than the
first, and the bound. The end-to-end metrics come first; the lock.*
readings the same runs print, which have no bound, follow in a table of
their own. bench/NOISE.md is this script's output plus the host it ran on.

    python3 bench/noise.py [--runs 10] [--raw FILE] > table.md
    python3 bench/noise.py --from FILE > table.md     # re-render stored runs

Run it from the root of the repository; it takes about 40 minutes.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}")
    values = {}
    for line in lines[:-1]:  # "workload/metric value unit"
        name, _, rest = line.partition(" ")
        if name.startswith(workload + "/"):
            values[name[len(workload) + 1:]] = float(rest.split()[0])
    for name, m in res["metrics"].items():
        values[name] = m["value"]
    return values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def table(raw, workloads, metrics):
    """Print one table; return the largest spread or worsening as a share of its bound."""
    print("| workload | metric | median 1 | median 2 | spread 1 | spread 2 | (max-min)/median 1 | 2 worse than 1 by | bound |")
    print("|---|---|---|---|---|---|---|---|---|")
    worst = 0.0
    for w in workloads:
        for m in metrics:
            a = [r[m["name"]] for r in raw[w][1]]
            b = [r[m["name"]] for r in raw[w][2]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            bound = m.get("bound")
            if bound:
                if m["name"] != "setup_s":
                    worst = max(worst, spread(a) / bound, spread(b) / bound)
                worst = max(worst, worse / bound)
            print(f"| {w} | {m['name']} | {ma:.6g} | {mb:.6g} | {spread(a):.4f} | {spread(b):.4f} "
                  f"| {(max(a) - min(a)) / ma:.4f} | {worse:+.4f} | {bound or '—'} |")
    return worst


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--raw", help="also store every run's values as JSON here")
    ap.add_argument("--from", dest="stored", help="render the table from a --raw file; run nothing")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    raw = {}
    if args.stored:
        raw = {w: {int(s): runs for s, runs in sets.items()}
               for w, sets in json.load(open(args.stored)).items()}
    for s in (1, 2) if not args.stored else ():
        for w in workloads:
            for seed in range(1, args.runs + 1):
                t = time.time()
                raw.setdefault(w, {}).setdefault(s, []).append(
                    run(bench["command"], w, seed, bench["run_seconds"]))
                print(f"set {s} {w} seed {seed}: {time.time() - t:.1f} s", file=sys.stderr)
    if args.raw:
        json.dump(raw, open(args.raw, "w"), indent=1)

    worst = table(raw, workloads, bench["end_to_end"])
    print(f"\nLargest spread or worsening, as a share of its bound: {worst:.2f}\n")
    table(raw, workloads, [m for m in bench["per_layer"] if m["name"].startswith("lock.")])


if __name__ == "__main__":
    main()
