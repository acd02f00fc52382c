#!/bin/sh
# Bench regression gate: compare editbench results in a current directory
# against those in a baseline directory, and fail when an end-to-end
# metric got worse by more than its bound. Metric names, directions
# ("better") and bounds all come from BENCHMARK.json at the repository
# root, so the gate follows the benchmark's own definition.
#
# Usage: scripts/bench_compare.sh <baseline_dir> <current_dir>
#
# Each directory holds editbench result files named
# editbench_<workload>[_<anything>].json, each the last line a run printed
# (`bash editbench/run.sh --workload W ... | tail -n 1`). Per workload and
# metric the script compares the median over however many runs a
# directory holds: one run each in CI, or ten or more alternating
# baseline/current runs on a quiet machine. It also fails when a current
# run is not correct, or when the share of failed operations rises. A
# workload missing from either directory is skipped, and with nothing to
# compare the gate skips rather than fails.
set -eu

BASE="${1:?usage: bench_compare.sh <baseline_dir> <current_dir>}"
CUR="${2:?usage: bench_compare.sh <baseline_dir> <current_dir>}"
SPEC="$(dirname "$0")/../BENCHMARK.json"

python3 - "$BASE" "$CUR" "$SPEC" <<'EOF'
import glob, json, os, statistics, sys

base_dir, cur_dir, spec_path = sys.argv[1:4]
with open(spec_path) as f:
    spec = json.load(f)

def runs(d, workload):
    """Result objects for one workload: the last non-empty line of each file."""
    out = []
    for path in sorted(glob.glob(os.path.join(d, f"editbench_{workload}*.json"))):
        stem = os.path.basename(path)[len("editbench_"):-len(".json")]
        if stem != workload and not stem.startswith(workload + "_"):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if lines:
            out.append(json.loads(lines[-1]))
    return out

def failed_share(rs):
    attempted = sum(r.get("attempted", 0) for r in rs)
    return sum(r.get("failed", 0) for r in rs) / attempted if attempted else 0.0

failures, compared = [], 0
for w in spec["workloads"]:
    name = w["name"]
    b, c = runs(base_dir, name), runs(cur_dir, name)
    if not b or not c:
        print(f"skip {name}: {len(b)} baseline and {len(c)} current runs")
        continue
    print(f"{name}: median of {len(b)} baseline and {len(c)} current runs")
    for i, r in enumerate(c):
        if not r.get("correct"):
            failures.append(f"{name}: current run {i} is not correct")
            print(f"FAIL {name}: current run {i} is not correct")
    fb, fc = failed_share(b), failed_share(c)
    if fc > fb:
        failures.append(f"{name}: failed-op share {fb:.4f} -> {fc:.4f}")
        print(f"FAIL {name}: failed-op share {fb:.4f} -> {fc:.4f}")
    for m in spec["end_to_end"]:
        key = m["name"]
        bv = [r["metrics"][key]["value"] for r in b if key in r.get("metrics", {})]
        cv = [r["metrics"][key]["value"] for r in c if key in r.get("metrics", {})]
        if not bv or not cv:
            continue
        bm, cm = statistics.median(bv), statistics.median(cv)
        if bm == 0:
            print(f"skip {name}: {key} baseline median is 0")
            continue
        compared += 1
        # Worsening as a fraction of the baseline, whichever way is worse.
        worse = (cm - bm) / bm if m["better"] == "lower" else (bm - cm) / bm
        line = f"{name}: {key} {bm:.4g} -> {cm:.4g} {m['unit']} ({worse:+.1%} worse, bound {m['bound']:.0%})"
        if worse > m["bound"]:
            failures.append(line)
            print("FAIL " + line)
        else:
            print("ok   " + line)

if failures:
    print(f"bench-compare: {len(failures)} regression(s)")
    sys.exit(1)
if compared == 0:
    print("bench-compare: no overlapping results to compare; skipping")
    sys.exit(0)
print(f"bench-compare: {compared} metrics within their bounds")
EOF
