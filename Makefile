# privedit — build/test/evaluation entry points. Stdlib only; any Go ≥ 1.22.

GO ?= go

.PHONY: all build vet lint test race cover cover-gate bench experiments fuzz examples metrics-smoke load-smoke ot-smoke chaos-smoke editbench-smoke trace-smoke profile-smoke taint-smoke store-smoke store-bench store-soak hotpath clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the crypto & concurrency invariant
# suite (internal/lint), including the interprocedural plaintext-flow
# taint rule. Run `go run ./cmd/privedit-lint -rules` for the rule list;
# suppress with `//lint:ignore RULE reason`.
lint:
	$(GO) run ./cmd/privedit-lint ./...

# Taint-analysis cost gate: run only the whole-module taint pass, print
# its size/cost statistics (functions, fixpoint passes, derived
# plaintext-reachable package set), and fail if the wall time blows the
# 30s CI budget — a complexity regression in the fixpoint must show up
# as a red check, not a slow one.
taint-smoke:
	$(GO) run ./cmd/privedit-lint -taint

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Coverage gate: fail the build if any core package drops below the floor
# (see scripts/coverage_gate.sh for the package list and threshold).
cover-gate:
	./scripts/coverage_gate.sh

# testing.B benchmarks: one per paper table/figure (bench_test.go) plus
# package-level micro-benchmarks.
bench:
	$(GO) test -bench=. -benchmem ./...

# Paper-style tables for every figure in section VII, plus the
# functionality, ablation, and scaling experiments.
experiments:
	$(GO) run ./cmd/privedit-bench -exp all

# Fuzzing passes over every parser surface. Override FUZZTIME for longer
# runs (the nightly workflow uses FUZZTIME=5m).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -fuzz=FuzzTransform -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -fuzz=FuzzCoalesce -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -fuzz=FuzzNormalizeIdempotent -fuzztime=$(FUZZTIME) ./internal/delta/
	$(GO) test -fuzz=FuzzLoadTransport -fuzztime=$(FUZZTIME) ./internal/blockdoc/
	$(GO) test -fuzz=FuzzTransformDelta -fuzztime=$(FUZZTIME) ./internal/blockdoc/
	$(GO) test -fuzz=FuzzOpsAgainstReference -fuzztime=$(FUZZTIME) ./internal/skiplist/
	$(GO) test -fuzz=FuzzDiff -fuzztime=$(FUZZTIME) ./internal/diff/
	$(GO) test -fuzz=FuzzDecode -fuzztime=$(FUZZTIME) ./internal/stego/
	$(GO) test -fuzz=FuzzDirective -fuzztime=$(FUZZTIME) ./internal/lint/

# End-to-end check of the telemetry surface: start privedit-server, hit
# /metrics, and require every headline metric family to be exported.
METRICS_ADDR ?= 127.0.0.1:8747
metrics-smoke:
	$(GO) build -o /tmp/privedit-server ./cmd/privedit-server
	/tmp/privedit-server -addr $(METRICS_ADDR) & echo $$! > /tmp/privedit-server.pid; \
	trap 'kill $$(cat /tmp/privedit-server.pid)' EXIT; \
	for i in 1 2 3 4 5 6 7 8 9 10; do \
		curl -sf http://$(METRICS_ADDR)/metrics -o /tmp/privedit-metrics.txt && break; \
		sleep 0.5; \
	done; \
	for m in privedit_http_requests_total privedit_http_request_seconds \
		privedit_transform_delta_seconds privedit_block_splits_total \
		privedit_fragmentation_ratio; do \
		grep -q "^# TYPE $$m " /tmp/privedit-metrics.txt || { echo "missing metric $$m"; exit 1; }; \
	done; \
	echo "metrics-smoke: all expected families exported"

# Short concurrent-load run: many sessions through one extension, with the
# whole-document encrypt kernel timings. Writes /tmp/BENCH_load.json.
load-smoke:
	$(GO) run ./cmd/privedit-load -sessions 8 -docs 4 -duration 2s -json /tmp/BENCH_load.json

# OT-pipeline gate: the committed-baseline load shape (16 sessions over 8
# docs) through the pipelined save path. The run itself fails if any
# rejected save fell back to a full conflict resync (every conflict must
# transform-merge) or if throughput drops below the committed floor —
# 640 ops/sec is ~5x the 119.5 the synchronous path recorded in
# BENCH_load.json before the pipeline existed. Writes /tmp/BENCH_ot.json.
ot-smoke:
	$(GO) run ./cmd/privedit-load -sessions 16 -docs 8 -duration 5s \
		-inflight 4 -min-ops-sec 640 -max-conflict-resyncs 0 -json /tmp/BENCH_ot.json

# Short chaos run: concurrent resilient sessions through a seeded fault
# storm, with per-document convergence verification (the run fails if any
# document diverges). Writes /tmp/BENCH_chaos.json.
chaos-smoke:
	$(GO) run ./cmd/privedit-load -chaos -sessions 4 -ops 40 -seed 2011 -json /tmp/BENCH_chaos.json

# The editor benchmark's smoke test. editbench/ is a nested module (it
# replaces privedit with ../), so `go test ./...` at the root never builds
# it; this target catches a change to what it uses of the program —
# gdocs.Backend, the mediator options, the metric names — before the
# benchmark itself does.
editbench-smoke:
	$(GO) -C editbench test ./...

# Traced load run: tracing on (the default), spans exported as JSONL, and
# the artifact checked for a real per-phase latency breakdown (the harness
# itself already exits non-zero when a traced run attributes nothing).
# Writes /tmp/BENCH_load_traced.json and /tmp/privedit-traces.jsonl.
trace-smoke:
	$(GO) run ./cmd/privedit-load -sessions 4 -docs 2 -duration 2s \
		-enc-bench=false -trace-out /tmp/privedit-traces.jsonl -json /tmp/BENCH_load_traced.json
	@grep -q '"phases"' /tmp/BENCH_load_traced.json || { echo "trace-smoke: no phase breakdown in artifact"; exit 1; }
	@grep -q '"phase": "save"' /tmp/BENCH_load_traced.json || { echo "trace-smoke: save phase missing from breakdown"; exit 1; }
	@test -s /tmp/privedit-traces.jsonl || { echo "trace-smoke: empty span export"; exit 1; }
	@echo "trace-smoke: phase breakdown and span export present"

# Profiled load run: exercises -cpuprofile/-memprofile end to end and
# fails unless both profiles come back non-empty and parseable by
# `go tool pprof` with actual CPU samples recorded.
PROFILE_DURATION ?= 30s
profile-smoke:
	$(GO) run ./cmd/privedit-load -sessions 8 -docs 4 -duration $(PROFILE_DURATION) \
		-enc-bench=false -cpuprofile /tmp/privedit-cpu.pprof -memprofile /tmp/privedit-mem.pprof
	@test -s /tmp/privedit-cpu.pprof || { echo "profile-smoke: empty CPU profile"; exit 1; }
	@test -s /tmp/privedit-mem.pprof || { echo "profile-smoke: empty heap profile"; exit 1; }
	@$(GO) tool pprof -top -nodecount=5 /tmp/privedit-cpu.pprof | grep -q "Total samples" \
		|| { echo "profile-smoke: CPU profile has no samples"; exit 1; }
	@$(GO) tool pprof -top -nodecount=5 /tmp/privedit-mem.pprof > /dev/null \
		|| { echo "profile-smoke: heap profile unparseable"; exit 1; }
	@echo "profile-smoke: CPU and heap profiles non-empty and parseable"

# Crash-recovery smoke: start a disk-backed server, write-storm it over
# HTTP while journaling every ack, kill -9 mid-storm, restart, and verify
# each acknowledged save survived byte-identically (SHA-256). See
# scripts/crash_recovery.sh.
store-smoke:
	./scripts/crash_recovery.sh

# Persistence bench: cold population in bulk-load mode, sustained mixed
# ops with the cache far smaller than the population, and cold-recovery
# timing. Writes /tmp/BENCH_store.json (the committed BENCH_store.json is
# one such run at default scale; the 1M-doc ISSUE scale is
# -store-docs 1000000 -cache-bytes 15000000 on a real machine).
store-bench:
	$(GO) run ./cmd/privedit-load -store -workers 4 -json /tmp/BENCH_store.json

# Nightly eviction-churn soak: a tiny cache under sustained fault-in and
# eviction pressure, gated on goroutine and live-heap growth.
SOAK_DURATION ?= 30s
store-soak:
	$(GO) run ./cmd/privedit-load -store-soak -duration $(SOAK_DURATION) -workers 4

# Hot-path benchmark: delta coalescing vs baseline on the burst-edit
# workload, with a plaintext equivalence check between the variants.
# Writes /tmp/BENCH_hotpath.json (the committed BENCH_hotpath.json is one
# such run at default scale).
hotpath:
	$(GO) run ./cmd/privedit-bench -exp hotpath -json /tmp

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/securedocs
	$(GO) run ./examples/collab
	$(GO) run ./examples/blocksize
	$(GO) run ./examples/otherapps
	$(GO) run ./cmd/privedit-attack

clean:
	$(GO) clean ./...
