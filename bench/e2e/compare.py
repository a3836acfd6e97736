#!/usr/bin/env python3
"""Compares two sets of adpm_bench result files metric by metric.

    python3 bench/e2e/compare.py BASE HEAD [--benchmark BENCHMARK.json]

BASE and HEAD are directories of result files (adpm_bench writes them to
.bench_build/results/, one per workload, seed and trace setting) or lists of
files separated by commas.  For every workload and metric the table shows
each side's median and quartiles, the pairs HEAD won (runs paired in seed
order; ties count for neither side) and a verdict against the metric's
bound in BENCHMARK.json:

  worse          HEAD's median is worse than BASE's by more than the bound
  better         HEAD wins at least 9 of 10 pairs and the medians differ by
                 more than BASE's own quartile spread
  unresolved     BASE's quartile spread is wider than the bound and not
                 every HEAD run beats every BASE run
  within bound   none of the above

Metrics without a bound (the per-layer ones) are listed without a verdict.
Files whose contexts differ (CPU count, compiler, build type, trusted build,
workload sizes) are refused: they do not measure the same thing.  Exits 1
when any metric is worse, 2 when the inputs are refused.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

CONTEXT_KEYS = ("nproc", "compiler", "build_type", "trusted", "sizes")


def load(spec):
    paths = []
    for part in spec.split(","):
        p = Path(part)
        paths.extend(sorted(p.glob("*.json")) if p.is_dir() else [p])
    runs = []
    for path in paths:
        data = json.loads(path.read_text())
        if "context" in data and "metrics" in data:
            runs.append(data)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    if bound is None:
        return "-"
    q1, med, q3 = quartiles(base)
    head_med = quartiles(head)[1]
    sign = 1.0 if better == "higher" else -1.0
    head_beats_all = all(sign * (h - b) > 0 for h in head for b in base)
    if med and (q3 - q1) / abs(med) > bound and not head_beats_all:
        return "unresolved"
    if sign * (head_med - med) < -bound * abs(med):
        return "worse"
    pairs = [(b, h) for b, h in zip(base, head) if b != h]
    won = sum(1 for b, h in pairs if sign * (h - b) > 0)
    if pairs and won >= 0.9 * len(pairs) and sign * (head_med - med) > q3 - q1:
        return "better"
    return "within bound"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base")
    parser.add_argument("head")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parents[2] /
                                    "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    directions = {m["name"]: m["better"] for m in spec["per_layer"]}
    sides = {"base": load(args.base), "head": load(args.head)}
    if not sides["base"] or not sides["head"]:
        sys.stderr.write("compare.py: no result files on one side\n")
        return 2

    by_key = {}
    for side, runs in sides.items():
        for run in runs:
            ctx = run["context"]
            key = (ctx["workload"], bool(ctx["trace"]))
            by_key.setdefault(key, {"base": [], "head": []})[side].append(run)

    worse = False
    print(f"{'workload':16s} {'metric':38s} {'base median [q1, q3]':>32s} "
          f"{'head median [q1, q3]':>32s} {'delta':>8s} {'won':>6s}  verdict")
    for (workload, traced), runs in sorted(by_key.items()):
        if not runs["base"] or not runs["head"]:
            continue
        contexts = {json.dumps({k: r["context"].get(k) for k in CONTEXT_KEYS},
                               sort_keys=True)
                    for r in runs["base"] + runs["head"]}
        if len(contexts) > 1:
            sys.stderr.write(f"compare.py: refusing {workload}: the result "
                             "files ran in different contexts:\n  " +
                             "\n  ".join(sorted(contexts)) + "\n")
            return 2
        for side in ("base", "head"):
            runs[side].sort(key=lambda r: (r["context"]["seed"],))
        for metric in runs["base"][0]["metrics"]:
            base = [r["metrics"][metric]["value"] for r in runs["base"]
                    if metric in r["metrics"]]
            head = [r["metrics"][metric]["value"] for r in runs["head"]
                    if metric in r["metrics"]]
            if not base or not head:
                continue
            better, bound = bounds.get(metric, (directions.get(metric), None))
            v = verdict(base, head, better, bound)
            worse = worse or v == "worse"
            bq, hq = quartiles(base), quartiles(head)
            delta = (hq[1] - bq[1]) / abs(bq[1]) * 100 if bq[1] else 0.0
            sign = 1.0 if better == "higher" else -1.0
            pairs = [(b, h) for b, h in zip(base, head) if b != h]
            won = sum(1 for b, h in pairs if sign * (h - b) > 0)
            base_col = f"{bq[1]:.6g} [{bq[0]:.4g}, {bq[2]:.4g}]"
            head_col = f"{hq[1]:.6g} [{hq[0]:.4g}, {hq[2]:.4g}]"
            print(f"{workload:16s} {metric:38s} {base_col:>32s} "
                  f"{head_col:>32s} {delta:+7.1f}% {won:>2d}/{len(pairs):<3d} "
                  f" {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
