#!/bin/sh
# Coverage gate: the packages that hold the correctness-critical logic —
# the crypto core (the editor API, the block-document engine, the rECB
# and RPC codecs and their primitives), the skip-list indices, the delta
# algebra, the mediating extension (including its writer's re-send
# loop), the observability layer (metrics + request tracing), the
# WAL/snapshot persistence layer, the serving store it backs, and the
# seeded fault injector the chaos gate's pinned counts rest on (its
# decisions must stay a pure function of the seed) — must each keep at
# least MIN_COVER% statement coverage. CI fails the build below
# the floor, so new code in these packages ships with tests or not at all.
#
# Usage: scripts/coverage_gate.sh [min_percent]
set -eu

MIN_COVER="${1:-${MIN_COVER:-80}}"
GO="${GO:-go}"

PACKAGES="
privedit/internal/core
privedit/internal/blockdoc
privedit/internal/rpcmode
privedit/internal/recb
privedit/internal/crypt
privedit/internal/skiplist
privedit/internal/delta
privedit/internal/mediator
privedit/internal/obs
privedit/internal/trace
privedit/internal/store
privedit/internal/gdocs
privedit/internal/netsim
"

fail=0
for pkg in $PACKAGES; do
    profile="$(mktemp)"
    if ! "$GO" test -count=1 -covermode=atomic -coverprofile="$profile" "$pkg" >/dev/null; then
        echo "cover-gate: FAIL $pkg (tests failed)"
        rm -f "$profile"
        fail=1
        continue
    fi
    pct="$("$GO" tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')"
    rm -f "$profile"
    if [ -z "$pct" ]; then
        echo "cover-gate: FAIL $pkg (no coverage total)"
        fail=1
        continue
    fi
    ok="$(awk -v p="$pct" -v m="$MIN_COVER" 'BEGIN { print (p+0 >= m+0) ? 1 : 0 }')"
    if [ "$ok" = 1 ]; then
        echo "cover-gate: ok   $pkg ${pct}% (floor ${MIN_COVER}%)"
    else
        echo "cover-gate: FAIL $pkg ${pct}% below the ${MIN_COVER}% floor"
        fail=1
    fi
done

if [ "$fail" != 0 ]; then
    echo "cover-gate: coverage gate failed"
    exit 1
fi
echo "cover-gate: all gated packages at or above ${MIN_COVER}%"
