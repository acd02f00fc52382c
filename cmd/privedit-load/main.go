// Command privedit-load runs the harnesses that need a whole stack and
// check correctness rather than speed: the chaos fault storm, and the
// persistence layer's soak and crash-recovery storm. Throughput and
// latency are measured by editbench (bash editbench/run.sh). Run without
// a mode flag, it prints its usage and exits 2.
//
// Chaos mode (-chaos) runs the fault-injection harness: sessions run a
// fixed number of ops each (deterministic, see internal/bench chaos.go),
// each waiting for its durable ack, over a seeded netsim.FaultTransport
// while the mediator's retries and writer backoff absorb the damage, then
// convergence is verified per document and the run is written as
// BENCH_chaos.json. The run fails if a document diverged, a save was
// dropped, or the storm made fewer requests than ops:
//
//	privedit-load -chaos -json BENCH_chaos.json
//	privedit-load -chaos -ops 60 -fault-drop 0.1 -fault-5xx 0.08 \
//	    -fault-429 0.04 -fault-timeout 0.04 -fault-corrupt 0.05
//
// Tracing is on by default: every chaos operation runs under a root span,
// and the artifact gains a per-phase latency breakdown (load/decrypt/diff/
// transform/encrypt/save/merge/resync, p50+p95, split conflict vs clean).
// -trace-out streams every collected trace as JSON lines; -trace=false
// turns all of it off.
//
// Store modes exercise the persistence layer (internal/store):
//
//	privedit-load -store-soak -duration 60s               # eviction churn + leak gates
//	privedit-load -store-storm -target URL -ack-log f     # crash_recovery.sh write storm
//	privedit-load -verify -target URL -ack-log f          # post-recovery ack audit
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"privedit/internal/bench"
	"privedit/internal/core"
	"privedit/internal/netsim"
	"privedit/internal/trace"
)

func main() {
	sessions := flag.Int("sessions", 8, "chaos: concurrent editing sessions; storm: concurrent writers")
	duration := flag.Duration("duration", 5*time.Second, "store soak: churn length")
	docChars := flag.Int("doc-chars", 20_000, "initial document size, characters")
	blockChars := flag.Int("block-chars", core.DefaultBlockChars, "block size b (1..8)")
	schemeName := flag.String("scheme", "rpc", "encryption scheme: recb|rpc")
	workers := flag.Int("workers", 0, "store soak: concurrent store clients (0 = 4)")
	reloadEvery := flag.Int("reload-every", 16, "chaos: every n-th op is a full document reload/decrypt (0 = deltas only)")
	seed := flag.Int64("seed", 2011, "workload seed")
	jsonPath := flag.String("json", "", "chaos: write the BENCH_chaos.json artifact to this path")
	tracing := flag.Bool("trace", true, "chaos: trace every operation and attribute latency per phase")
	traceOut := flag.String("trace-out", "", "chaos: append every collected trace to this JSONL file")

	storeCacheBytes := flag.Int64("cache-bytes", 0, "store soak: resident cache budget, bytes (0 = default)")
	storeSoak := flag.Bool("store-soak", false, "run the eviction-churn soak with goroutine/heap leak gates")
	storeStorm := flag.Bool("store-storm", false, "run the crash-recovery write storm against -target, journaling acks to -ack-log")
	verify := flag.Bool("verify", false, "verify a recovered -target server against the -ack-log journal")
	target := flag.String("target", "http://127.0.0.1:8747", "storm/verify: server base URL")
	ackLog := flag.String("ack-log", "acks.log", "storm/verify: acknowledged-save journal path")

	chaos := flag.Bool("chaos", false, "run the fault-injection chaos harness")
	ops := flag.Int("ops", 40, "chaos: edit operations per session")
	faultSeed := flag.Int64("fault-seed", 0, "chaos: fault decision seed (0 = -seed)")
	faultDrop := flag.Float64("fault-drop", 0.06, "chaos: request drop probability")
	faultDropResp := flag.Float64("fault-drop-resp", 0.04, "chaos: response drop probability (request still applied)")
	fault5xx := flag.Float64("fault-5xx", 0.05, "chaos: injected HTTP 500 probability")
	fault429 := flag.Float64("fault-429", 0.03, "chaos: injected HTTP 429 probability")
	faultTimeout := flag.Float64("fault-timeout", 0.03, "chaos: injected timeout probability")
	faultCorrupt := flag.Float64("fault-corrupt", 0.02, "chaos: response corruption probability")
	faultJitter := flag.Float64("fault-jitter", 0.05, "chaos: latency jitter spike probability")
	flag.Parse()

	switch {
	case *storeSoak:
		runStoreSoak(bench.SoakConfig{
			Duration:   *duration,
			CacheBytes: *storeCacheBytes,
			Workers:    *workers,
			Seed:       *seed,
		})
		return
	case *storeStorm:
		fmt.Printf("privedit-load: write storm against %s, acks journaled to %s\n", *target, *ackLog)
		if err := bench.RunStoreStorm(bench.StormConfig{
			Target:   *target,
			AckLog:   *ackLog,
			Workers:  *sessions,
			DocChars: *docChars,
			Seed:     *seed,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load: storm:", err)
			os.Exit(1)
		}
		return
	case *verify:
		checked, err := bench.VerifyAckLog(*target, *ackLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load: verify:", err)
			os.Exit(1)
		}
		fmt.Printf("privedit-load: verified %d documents against %s: every acknowledged save survived\n", checked, *ackLog)
		return
	case !*chaos:
		fmt.Fprintln(os.Stderr, "privedit-load: choose a mode: -chaos, -store-soak, -store-storm or -verify")
		flag.Usage()
		os.Exit(2)
	}

	scheme := core.ConfidentialityIntegrity
	switch *schemeName {
	case "rpc":
	case "recb":
		scheme = core.ConfidentialityOnly
	default:
		fmt.Fprintf(os.Stderr, "privedit-load: unknown scheme %q (want recb or rpc)\n", *schemeName)
		os.Exit(2)
	}

	var traceSink func(trace.Trace)
	if *traceOut != "" {
		*tracing = true // -trace-out implies tracing
		jw, err := trace.OpenJSONL(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load: trace-out:", err)
			os.Exit(1)
		}
		defer func() {
			if err := jw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "privedit-load: trace-out:", err)
			}
		}()
		traceSink = jw.Write
	}

	if *faultSeed == 0 {
		*faultSeed = *seed
	}
	profile := netsim.FaultProfile{
		Seed:             *faultSeed,
		DropRate:         *faultDrop,
		DropResponseRate: *faultDropResp,
		Error5xxRate:     *fault5xx,
		ThrottleRate:     *fault429,
		TimeoutRate:      *faultTimeout,
		CorruptRate:      *faultCorrupt,
		JitterRate:       *faultJitter,
	}
	runChaos(bench.ChaosConfig{
		Sessions:      *sessions,
		OpsPerSession: *ops,
		DocChars:      *docChars,
		Scheme:        scheme,
		BlockChars:    *blockChars,
		ReloadEvery:   *reloadEvery,
		Seed:          *seed,
		Fault:         profile,
		Trace:         *tracing,
		TraceSink:     traceSink,
	}, *jsonPath)
}

// runChaos executes the chaos harness and optionally writes BENCH_chaos.json.
func runChaos(cfg bench.ChaosConfig, jsonPath string) {
	fmt.Printf("privedit-load: chaos, %d sessions x %d ops, %d-char docs, fault rate %.1f%% (seed %d)\n",
		cfg.Sessions, cfg.OpsPerSession, cfg.DocChars,
		100*cfg.Fault.FailureRate(), cfg.Seed)

	report, err := bench.RunChaos(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load:", err)
		os.Exit(1)
	}

	f := report.Faults
	fmt.Printf("  ops        %d ok, %d errored, %d reloads over %.2fs\n",
		report.Ops, report.OpErrors, report.Reloads, report.DurationS)
	fmt.Printf("  faults     %d/%d requests: %d drops, %d lost responses, %d 5xx, %d 429, %d timeouts, %d corruptions, %d jitter spikes\n",
		f.Injected(), f.Requests, f.Drops, f.DropResponses, f.Errors5xx, f.Throttles, f.Timeouts, f.Corruptions, f.JitterSpikes)
	fmt.Printf("  mediator   %d retries, %d degraded saves, %d degraded loads\n",
		report.Retries, report.DegradedSaves, report.DegradedLoads)
	fmt.Printf("  pipeline   %d queued saves, %d OT merges, %d conflict resyncs, %d dropped\n",
		report.QueuedSaves, report.OTMerges, report.ConflictResyncs, report.DroppedSaves)
	fmt.Printf("  converged  %d/%d docs\n", report.ConvergedDocs, report.ConvergedDocs+report.DivergedDocs)
	printPhases(report.Phases)
	if cfg.Trace && (report.Phases == nil || report.Phases.Empty()) {
		fmt.Fprintln(os.Stderr, "privedit-load: tracing was on but the phase breakdown is empty")
		os.Exit(1)
	}

	failed := false
	if report.DivergedDocs > 0 {
		fmt.Fprintf(os.Stderr, "privedit-load: %d documents diverged after the storm\n", report.DivergedDocs)
		failed = true
	}
	if report.DroppedSaves > 0 {
		fmt.Fprintf(os.Stderr, "privedit-load: %d acknowledged saves were dropped\n", report.DroppedSaves)
		failed = true
	}
	if f.Requests < report.Ops {
		// Each op waits for its durable ack, so it crosses the storm at
		// least once; fewer requests than ops means the faults hit nothing.
		fmt.Fprintf(os.Stderr, "privedit-load: storm saw %d requests for %d ops\n", f.Requests, report.Ops)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	if jsonPath == "" {
		return
	}
	artifact := bench.ChaosArtifact{
		Title: "Chaos: fault-injecting transport vs resilient mediator",
		Fault: cfg.Fault,
		Chaos: report,
	}
	out, err := artifact.MarshalIndent()
	if err == nil {
		err = os.WriteFile(jsonPath, out, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load:", err)
		os.Exit(1)
	}
	fmt.Println("  wrote", jsonPath)
}

// runStoreSoak executes the nightly eviction-churn soak and fails on
// goroutine or heap growth.
func runStoreSoak(cfg bench.SoakConfig) {
	fmt.Printf("privedit-load: store soak, %v of eviction churn\n", cfg.Duration)
	report, err := bench.RunStoreSoak(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load: soak:", err)
		os.Exit(1)
	}
	fmt.Printf("  churn      %d ops over %.0fs, %d evictions\n", report.Ops, report.DurationS, report.Evictions)
	fmt.Printf("  leak gates goroutines %+d, heap %+d bytes\n", report.GoroutineDelta, report.HeapDeltaBytes)
	if report.Evictions == 0 {
		fmt.Fprintln(os.Stderr, "privedit-load: soak never evicted — the cache budget did not bind, so the churn tested nothing")
		os.Exit(1)
	}
	// Gates: a leaky cache shows up as monotone goroutine or heap growth.
	// Allow slack for runtime noise (timer goroutines, allocator jitter).
	if report.GoroutineDelta > 5 {
		fmt.Fprintf(os.Stderr, "privedit-load: soak leaked %d goroutines\n", report.GoroutineDelta)
		os.Exit(1)
	}
	if report.HeapDeltaBytes > 32<<20 {
		fmt.Fprintf(os.Stderr, "privedit-load: soak grew the live heap by %d bytes\n", report.HeapDeltaBytes)
		os.Exit(1)
	}
}

// printPhases renders the per-phase latency attribution the traced run
// collected: where each operation's time went, clean vs conflicted.
func printPhases(b *bench.PhaseBreakdown) {
	if b == nil || b.Empty() {
		return
	}
	fmt.Printf("  phases     %d ops traced (%d clean, %d conflicted)\n",
		b.Ops, b.CleanOps, b.ConflictOps)
	show := func(kind string, stats []bench.PhaseStat) {
		for _, s := range stats {
			fmt.Printf("    %-8s %-9s n=%-5d p50=%7.3fms  p95=%7.3fms  total=%8.1fms\n",
				kind, s.Phase, s.Count, s.P50Ms, s.P95Ms, s.TotalMs)
		}
	}
	show("clean", b.Clean)
	show("conflict", b.Conflict)
}
