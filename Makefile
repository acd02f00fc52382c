# privedit — build/test/evaluation entry points. Stdlib only; any Go ≥ 1.22.

GO ?= go

.PHONY: all build vet lint test race cover cover-gate bench experiments fuzz examples metrics-smoke ot-smoke chaos-smoke editbench-smoke profile-smoke taint-smoke store-smoke store-soak clean

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

# OT-merge gate: a traced editbench coedit run (two users, each with their
# own mediator, editing the same documents). The workload's own check
# requires at least one 409 and a correct result; this target also
# requires that every conflict was repaired by transform-merge
# (mediator.ot_merge_frac = 1: no full resync). The one-extension
# property (shared sessions never resync or drop a save) is pinned by
# internal/e2e's TestConcurrentSessionsSharedDoc. Writes /tmp/BENCH_ot.json
# (the run's result line) and /tmp/privedit-ot.txt (the whole run).
ot-smoke:
	bash editbench/run.sh --workload coedit --seed 7 --seconds 6 --trace 1 > /tmp/privedit-ot.txt \
		|| { cat /tmp/privedit-ot.txt; echo "ot-smoke: coedit run failed"; exit 1; }
	@tail -n 1 /tmp/privedit-ot.txt > /tmp/BENCH_ot.json
	@grep -q '"correct":true' /tmp/BENCH_ot.json || { echo "ot-smoke: coedit result not correct"; exit 1; }
	@grep -q '"mediator.ot_merge_frac":{"value":1,' /tmp/BENCH_ot.json \
		|| { grep '^# metric mediator.ot_merge_frac' /tmp/privedit-ot.txt; echo "ot-smoke: a conflict fell back to a full resync"; exit 1; }
	@echo "ot-smoke: coedit correct, every conflict transform-merged"

# Short traced chaos run: concurrent resilient sessions through a seeded
# fault storm, with per-document convergence verification (the run fails
# if any document diverges, and if tracing attributed nothing). Spans are
# exported as JSONL, and the artifact is checked for a per-phase latency
# breakdown. Writes /tmp/BENCH_chaos.json and /tmp/privedit-traces.jsonl.
chaos-smoke:
	@rm -f /tmp/privedit-traces.jsonl
	$(GO) run ./cmd/privedit-load -chaos -sessions 4 -ops 40 -seed 2011 \
		-trace-out /tmp/privedit-traces.jsonl -json /tmp/BENCH_chaos.json
	@test -s /tmp/privedit-traces.jsonl || { echo "chaos-smoke: empty span export"; exit 1; }
	@grep -q '"phases"' /tmp/BENCH_chaos.json || { echo "chaos-smoke: no phase breakdown in artifact"; exit 1; }
	@grep -q '"phase": "save"' /tmp/BENCH_chaos.json || { echo "chaos-smoke: save phase missing from breakdown"; exit 1; }
	@echo "chaos-smoke: converged, phase breakdown and span export present"

# The editor benchmark's smoke test. editbench/ is a nested module (it
# replaces privedit with ../), so `go test ./...` at the root never builds
# it; this target catches a change to what it uses of the program —
# gdocs.Backend, the mediator options, the metric names — before the
# benchmark itself does.
editbench-smoke:
	$(GO) -C editbench test ./...

# Profiled paper-figure run: exercises -cpuprofile/-memprofile end to end
# on Figure 5 at paper scale and fails unless both profiles parse with
# `go tool pprof` and the CPU profile recorded a nonzero sample total.
profile-smoke:
	$(GO) run ./cmd/privedit-bench -exp fig5 -cpuprofile /tmp/privedit-cpu.pprof -memprofile /tmp/privedit-mem.pprof
	@test -s /tmp/privedit-cpu.pprof || { echo "profile-smoke: empty CPU profile"; exit 1; }
	@test -s /tmp/privedit-mem.pprof || { echo "profile-smoke: empty heap profile"; exit 1; }
	@$(GO) tool pprof -top -nodecount=5 /tmp/privedit-cpu.pprof > /tmp/privedit-cpu.top \
		|| { echo "profile-smoke: CPU profile unparseable"; exit 1; }
	@grep -Eq 'Total samples = [0-9.]*[1-9]' /tmp/privedit-cpu.top \
		|| { grep 'Total samples' /tmp/privedit-cpu.top; echo "profile-smoke: CPU profile has no samples"; exit 1; }
	@$(GO) tool pprof -top -nodecount=5 /tmp/privedit-mem.pprof > /dev/null \
		|| { echo "profile-smoke: heap profile unparseable"; exit 1; }
	@echo "profile-smoke: CPU and heap profiles parse, CPU samples recorded"

# Crash-recovery smoke: start a disk-backed server, write-storm it over
# HTTP while journaling every ack, kill -9 mid-storm, restart, and verify
# each acknowledged save survived byte-identically (SHA-256). See
# scripts/crash_recovery.sh.
store-smoke:
	./scripts/crash_recovery.sh

# Nightly eviction-churn soak: a tiny cache under sustained fault-in and
# eviction pressure, gated on goroutine and live-heap growth.
SOAK_DURATION ?= 30s
store-soak:
	$(GO) run ./cmd/privedit-load -store-soak -duration $(SOAK_DURATION) -workers 4

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/securedocs
	$(GO) run ./examples/collab
	$(GO) run ./examples/blocksize
	$(GO) run ./examples/otherapps
	$(GO) run ./cmd/privedit-attack

clean:
	$(GO) clean ./...
