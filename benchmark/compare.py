#!/usr/bin/env python3
"""Compare the end-to-end metrics of two checkouts of the repository.

    python3 benchmark/compare.py PARENT_DIR CHANGE_DIR

Runs PARENT_DIR/benchmark/run.py and CHANGE_DIR/benchmark/run.py in 10
alternating pairs per workload (parent first in even pairs, change first in
odd ones), the same seed on both sides of a pair, each run measuring
run_seconds of BENCHMARK.json (read from PARENT_DIR), and judges every
end-to-end metric per workload:

  improved    the change wins at least 9 of the 10 pairs (ties count for
              neither), and the medians differ by more than the parent's
              interquartile range;
  unresolved  the parent's interquartile range, as a share of its median,
              is wider than the metric's bound, and not every change run
              beats every parent run;
  REGRESSED   the change's median is worse than the parent's by more than
              the bound (for setup_s also by more than 0.05 s, so a few
              milliseconds on a tiny set-up are not a regression);
  slower      within the bound, but the parent wins at least 9 of the 10
              pairs and the medians differ by more than the parent's
              interquartile range: a real slowdown on a quiet workload;
  ok          none of the above.

Prints one row per workload with every metric's medians, change and
verdict, writes all runs to CHANGE_DIR/.bench_build/compare.json, and
exits 1 if any metric regressed or the change failed more output checks.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
SETUP_FLOOR_S = 0.05


def run(root, workload, seed, seconds):
    cmd = ["python3", os.path.join(root, "benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        sys.exit("%s: run.py failed on %s seed %d" % (root, workload, seed))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    p1, _, p3 = statistics.quantiles(parent, n=4)
    pm, cm = statistics.median(parent), statistics.median(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
    all_better = (max(change) < min(parent)) if lower else \
        (min(change) > max(parent))
    if wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1:
        return "improved"
    if (p3 - p1) / pm > metric["bound"] and not all_better:
        return "unresolved"
    worse = cm - pm if lower else pm - cm
    if worse / pm > metric["bound"] and not (
            metric["name"] == "setup_s" and worse <= SETUP_FLOOR_S):
        return "REGRESSED"
    if losses >= 0.9 * len(parent) and worse > p3 - p1:
        return "slower"
    return "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)

    with open(os.path.join(parent, "BENCHMARK.json")) as f:
        spec = json.load(f)

    runs = {}
    failing = False
    for w in [x["name"] for x in spec["workloads"]]:
        sides = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                root = parent if side == "parent" else change
                sides[side].append(run(root, w, i + 1, spec["run_seconds"]))
        runs[w] = sides
        cells = []
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            v = verdict(m, p, c)
            failing |= v == "REGRESSED"
            pm, cm = statistics.median(p), statistics.median(c)
            cells.append("%s %.4g->%.4g (%+.1f%%) %s"
                         % (m["name"], pm, cm, 100 * (cm - pm) / pm, v))
        failed = [sum(r["failed"] for r in sides[s]) for s in sides]
        if failed[1] > failed[0]:
            failing = True
            cells.append("failed checks %d->%d" % tuple(failed))
        print("%-10s %s" % (w, " | ".join(cells)))

    out = os.path.join(change, ".bench_build", "compare.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump({"parent": parent, "change": change, "runs": runs}, f,
                  indent=1)
    sys.exit(1 if failing else 0)


if __name__ == "__main__":
    main()
