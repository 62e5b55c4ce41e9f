#!/usr/bin/env python3
"""Build and run the ftrsn end-to-end benchmark.

    python3 benchmark/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Builds benchmark/ (the library from src/ plus the harness) into
.bench_build/ at the repository root, then runs each workload in its own
process.  Prints every selected metric as `name value unit` and, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  A traced run also leaves the Chrome trace, the obs run
report, per-span self times and the full result in
.bench_build/trace/<workload>-seed<N>/.  Every run writes its full result
(all metrics, obs counters of the first pass, latency details) to
.bench_build/results/<workload>-seed<N>[-trace].json.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD, "ftrsn_benchmark")
WORKLOADS = ["table1", "signoff", "scale", "serve_mix"]
CHILD_TIMEOUT_S = 175


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("benchmark build failed: " + " ".join(cmd))


def self_times(trace_path):
    """Per span name: count, total and self seconds (total minus the time
    covered by directly nested spans on the same thread)."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_tid = {}
    for e in events:
        by_tid.setdefault(e["tid"], []).append(e)
    agg = {}
    for evs in by_tid.values():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []
        for e in evs:
            e["child"] = 0
            while stack and stack[-1]["ts"] + stack[-1]["dur"] <= e["ts"]:
                stack.pop()
            if stack:
                stack[-1]["child"] += e["dur"]
            stack.append(e)
        for e in evs:
            a = agg.setdefault(e["name"], {"count": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            a["count"] += 1
            a["total_s"] += e["dur"] / 1e6
            a["self_s"] += (e["dur"] - e["child"]) / 1e6
    return dict(sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]))


def run_one(workload, args, wanted):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    tag = "%s-seed%d%s" % (workload, args.seed, "-trace" if args.trace else "")
    trace_dir = os.path.join(BUILD, "trace", "%s-seed%d" % (workload, args.seed))
    if args.trace:
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("%s: no result within %d s" % (workload, CHILD_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.exit("%s: benchmark exited with code %d" % (workload, proc.returncode))
    full = json.loads(lines[-1])

    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", tag + ".json"), "w") as f:
        json.dump(full, f, indent=1)
    if args.trace:
        with open(os.path.join(trace_dir, "selftimes.json"), "w") as f:
            json.dump(self_times(os.path.join(trace_dir, "trace.json")), f,
                      indent=1)

    metrics = {}
    for m in wanted:
        got = full["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit("%s: metric %s (%s) missing from the result"
                     % (workload, m["name"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": bool(full["correct"]) and full["failed"] == 0,
            "attempted": full["attempted"], "failed": full["failed"],
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs (benchmark/selfcheck.sh)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {w: run_one(w, args, wanted) for w in workloads}
    for w, r in results.items():
        for name, m in r["metrics"].items():
            print("%s%s %r %s" % (w + "." if len(results) > 1 else "", name,
                                  m["value"], m["unit"]))
        if not r["correct"]:
            log("%s: %d of %d output checks failed" % (w, r["failed"],
                                                        r["attempted"]))
    print(json.dumps(results if len(results) > 1 else results[workloads[0]]))


if __name__ == "__main__":
    main()
