#!/usr/bin/env bash
# Smoke check of the benchmark itself: runs every workload at its --smoke
# size (u226 only; 4 BMC queries; 2k elements; 300 requests per pass),
# untraced twice and traced once, and asserts that
#   * BENCHMARK.json is well formed (keys, unique names, bounds <= 0.25,
#     setup_s present);
#   * each result line has exactly correct/attempted/failed/metrics, with
#     exactly the end-to-end (untraced) or per-layer (traced) metrics of
#     BENCHMARK.json, in their units;
#   * no output check failed;
#   * the obs counters of the first pass are identical across the two
#     same-seed untraced runs.
#
#   benchmark/selfcheck.sh        # ~1 min after the build
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/selfcheck"
mkdir -p "$out"

for w in table1 signoff scale serve_mix; do
  for run in a b; do
    python3 "$root/benchmark/run.py" --workload "$w" --smoke --seconds 1 \
      --trace 0 >"$out/$w-$run.out"
    cp "$root/.bench_build/results/$w-seed1.json" "$out/$w-$run.json"
  done
  python3 "$root/benchmark/run.py" --workload "$w" --smoke --seconds 1 \
    --trace 1 >"$out/$w-trace.out"
done

python3 - "$root" "$out" <<'EOF'
import json, sys

root, out = sys.argv[1], sys.argv[2]
spec = json.load(open(root + "/BENCHMARK.json"))
errors = []

if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end",
                 "per_layer"}:
    errors.append("BENCHMARK.json keys: %s" % sorted(spec))
names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
if len(names) != len(set(names)):
    errors.append("metric names are not unique")
for m in spec["end_to_end"]:
    if not 0 < m["bound"] <= 0.25:
        errors.append("%s: bound %s" % (m["name"], m["bound"]))
if not any(m["name"] == "setup_s" and m["unit"] == "s" and
           m["better"] == "lower" for m in spec["end_to_end"]):
    errors.append("setup_s missing from end_to_end")

for w in [x["name"] for x in spec["workloads"]]:
    for run, wanted in (("a", spec["end_to_end"]), ("b", spec["end_to_end"]),
                        ("trace", spec["per_layer"])):
        line = open("%s/%s-%s.out" % (out, w, run)).read().splitlines()[-1]
        r = json.loads(line)
        if set(r) != {"correct", "attempted", "failed", "metrics"}:
            errors.append("%s-%s: result keys %s" % (w, run, sorted(r)))
            continue
        if not (r["correct"] and r["failed"] == 0 and r["attempted"] >= 1):
            errors.append("%s-%s: %d of %d checks failed"
                          % (w, run, r["failed"], r["attempted"]))
        want = {m["name"]: m["unit"] for m in wanted}
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        if got != want:
            errors.append("%s-%s: metrics differ from BENCHMARK.json: %s"
                          % (w, run, sorted(set(got.items()) ^ set(want.items()))))
    a = json.load(open("%s/%s-a.json" % (out, w)))["counters"]
    b = json.load(open("%s/%s-b.json" % (out, w)))["counters"]
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    if diff:
        errors.append("%s: obs counters differ between same-seed runs: %s"
                      % (w, ", ".join("%s %s/%s" % (k, a.get(k), b.get(k))
                                      for k in diff)))

for e in errors:
    print("selfcheck: " + e, file=sys.stderr)
print("selfcheck: %s" % ("FAILED" if errors else "ok"))
sys.exit(1 if errors else 0)
EOF
