#!/bin/sh
# Bench regression gate: compare this run's bench artifacts against the
# latest main-branch baselines and fail on a >THRESHOLD% regression in
# throughput or tail latency. CI downloads the baselines from the last
# successful main run; with no baseline the gate skips (first run on a
# fresh repo, expired artifacts) rather than failing spuriously.
#
# Usage: scripts/bench_compare.sh <baseline_dir> <current_dir> [threshold_pct]
#
# Gated series:
#   BENCH_load.json     load.ops_per_sec (down is bad), load.p95_ms (up is bad),
#                       and the enc_kernel rows: per-size ms (up is bad), so
#                       a kernel regression fails the lane even when the
#                       mediated load numbers hold steady
#   BENCH_hotpath.json  per-variant ns_per_op, p95_us, and allocs_per_op
#                       (up is bad — allocation regressions on the hot path
#                       are exactly how the overhead-bound kernels decayed)
#   BENCH_store.json    store.sustained_ops_per_sec (down), store.p95_ms (up)
set -eu

BASE="${1:?usage: bench_compare.sh <baseline_dir> <current_dir> [threshold_pct]}"
CUR="${2:?usage: bench_compare.sh <baseline_dir> <current_dir> [threshold_pct]}"
THRESHOLD="${3:-25}"

python3 - "$BASE" "$CUR" "$THRESHOLD" <<'EOF'
import json, os, sys

base_dir, cur_dir, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
failures = []
compared = 0

def load(d, name):
    path = os.path.join(d, name)
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)

def check(name, metric, base, cur, higher_is_better):
    """One gated series: fail on a regression beyond the threshold."""
    global compared
    if not base or not cur:
        return
    compared += 1
    if higher_is_better:
        change = (base - cur) / base * 100  # % lost
        verdict = "down"
    else:
        change = (cur - base) / base * 100  # % gained (latency)
        verdict = "up"
    line = f"{name}: {metric} {base:.3f} -> {cur:.3f} ({verdict} {change:+.1f}%)"
    if change > threshold:
        failures.append(line + f" exceeds the {threshold:.0f}% budget")
        print("FAIL " + line)
    else:
        print("ok   " + line)

# BENCH_load.json: sustained mediated throughput and tail latency.
b, c = load(base_dir, "BENCH_load.json"), load(cur_dir, "BENCH_load.json")
if b and c:
    check("BENCH_load", "ops_per_sec", b["load"]["ops_per_sec"], c["load"]["ops_per_sec"], True)
    check("BENCH_load", "p95_ms", b["load"]["p95_ms"], c["load"]["p95_ms"], False)
    # Enc kernel rows, matched by document size. .get() keeps the gate
    # tolerant of baselines that predate the kernel rows or sampled
    # different sizes. A baseline from before the single kernel carries
    # enc_kernel_serial_vs_parallel rows, whose parallel_ms timed the same
    # batched kernel.
    base_rows = {r["chars"]: r for r in
                 b.get("enc_kernel") or b.get("enc_kernel_serial_vs_parallel") or []}
    for row in c.get("enc_kernel") or []:
        bb = base_rows.get(row["chars"])
        if not bb:
            continue
        check(f"BENCH_load[enc_kernel {row['chars']}ch]", "ms",
              bb.get("ms", bb.get("parallel_ms")), row["ms"], False)

# BENCH_hotpath.json: per-variant hot-path cost.
b, c = load(base_dir, "BENCH_hotpath.json"), load(cur_dir, "BENCH_hotpath.json")
if b and c:
    base_rows = {r["variant"]: r for r in b["result"]["rows"]}
    for row in c["result"]["rows"]:
        bb = base_rows.get(row["variant"])
        if not bb:
            continue
        check(f"BENCH_hotpath[{row['variant']}]", "ns_per_op", bb["ns_per_op"], row["ns_per_op"], False)
        check(f"BENCH_hotpath[{row['variant']}]", "p95_us", bb["p95_us"], row["p95_us"], False)
        if bb.get("allocs_per_op") and row.get("allocs_per_op") is not None:
            check(f"BENCH_hotpath[{row['variant']}]", "allocs_per_op",
                  bb["allocs_per_op"], row["allocs_per_op"], False)

# BENCH_store.json: persistence-layer sustained rate and tail latency.
b, c = load(base_dir, "BENCH_store.json"), load(cur_dir, "BENCH_store.json")
if b and c:
    check("BENCH_store", "sustained_ops_per_sec",
          b["store"]["sustained_ops_per_sec"], c["store"]["sustained_ops_per_sec"], True)
    check("BENCH_store", "p95_ms", b["store"]["p95_ms"], c["store"]["p95_ms"], False)

if compared == 0:
    print("bench-compare: no overlapping artifacts to compare; skipping")
    sys.exit(0)
if failures:
    print(f"bench-compare: {len(failures)} regression(s) beyond the {threshold:.0f}% budget")
    sys.exit(1)
print(f"bench-compare: {compared} series within the {threshold:.0f}% budget")
EOF
