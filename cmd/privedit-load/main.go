// Command privedit-load drives many concurrent encrypted editing sessions
// through one mediating extension against the simulated service, and
// reports sustained throughput and latency quantiles. It is the
// concurrency companion to privedit-bench: where that tool reproduces the
// paper's single-session figures, this one measures how the sharded store,
// the per-document mediator sessions, and the crypto kernels behave under
// contention.
//
// Usage:
//
//	privedit-load                          # 8 sessions, 8 docs, 5 s
//	privedit-load -sessions 32 -docs 8     # 4 sessions per document
//	privedit-load -duration 2s -json BENCH_load.json
//	privedit-load -net-scale 1000          # with scaled netsim delays
//
// The -json artifact also embeds the whole-document encrypt kernel's time
// across document sizes.
//
// Tracing is on by default: every operation runs under a root span, and
// the artifact gains a per-phase latency breakdown (load/decrypt/diff/
// transform/encrypt/save/retry/resync, p50+p95, split conflict vs clean)
// plus runtime watchdog stats. -trace-out streams every collected trace
// as JSON lines; -trace=false turns all of it off.
//
// Chaos mode (-chaos) switches to the fault-injection harness: sessions
// run a fixed number of ops each (deterministic, see internal/bench
// chaos.go), each waiting for its durable ack, over a seeded
// netsim.FaultTransport while the mediator's retries and writer backoff
// absorb the damage, then convergence is verified per document and the
// run is written as BENCH_chaos.json. The run fails if a document
// diverged, a save was dropped, or the storm made fewer requests than
// ops:
//
//	privedit-load -chaos -json BENCH_chaos.json
//	privedit-load -chaos -ops 60 -fault-drop 0.1 -fault-5xx 0.08 \
//	    -fault-429 0.04 -fault-timeout 0.04 -fault-corrupt 0.05
//
// Store modes exercise the persistence layer (internal/store):
//
//	privedit-load -store -json BENCH_store.json           # populate/sustain/recover bench
//	privedit-load -store -store-docs 1000000 -cache-bytes 15000000
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
	sessions := flag.Int("sessions", 8, "concurrent editing sessions")
	docs := flag.Int("docs", 0, "distinct documents (0 = one per session)")
	duration := flag.Duration("duration", 5*time.Second, "measured run length")
	docChars := flag.Int("doc-chars", 20_000, "initial document size, characters")
	blockChars := flag.Int("block-chars", core.DefaultBlockChars, "block size b (1..8)")
	schemeName := flag.String("scheme", "rpc", "encryption scheme: recb|rpc")
	workers := flag.Int("workers", 0, "store bench/soak: concurrent store clients (0 = 4)")
	reloadEvery := flag.Int("reload-every", 16, "every n-th op is a full document reload/decrypt (0 = deltas only)")
	netScale := flag.Int("net-scale", 0, "enable netsim Broadband2009 delays divided by this factor (0 = off)")
	inflight := flag.Int("inflight", 0, "per-document save queue depth (0 = mediator.DefaultInflight)")
	minOpsSec := flag.Float64("min-ops-sec", 0, "fail the run if throughput falls below this floor (0 = no check)")
	maxResyncs := flag.Int("max-conflict-resyncs", -1, "fail the run if conflict-driven full resyncs exceed this (-1 = no check)")
	seed := flag.Int64("seed", 2011, "workload seed")
	jsonPath := flag.String("json", "", "write BENCH_load.json artifact to this path")
	encBench := flag.Bool("enc-bench", true, "include the whole-document encrypt kernel timings in -json output")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memprofile := flag.String("memprofile", "", "write a heap profile to this path on exit")
	tracing := flag.Bool("trace", true, "trace every operation and attribute latency per phase")
	traceOut := flag.String("trace-out", "", "append every collected trace to this JSONL file")
	watchEvery := flag.Duration("watch", 250*time.Millisecond, "runtime watchdog sample interval (0 = off; load harness only)")

	storeBench := flag.Bool("store", false, "run the persistence-layer bench (populate, sustain, recover)")
	storeDocs := flag.Int("store-docs", 0, "store bench: cold population size (0 = default)")
	storeCacheBytes := flag.Int64("cache-bytes", 0, "store bench/soak: resident cache budget, bytes (0 = default)")
	storeOps := flag.Int("store-ops", 0, "store bench: sustained mixed operations (0 = default)")
	storeHot := flag.Int("store-hot", 0, "store bench: hot working-set size (0 = default)")
	storeDir := flag.String("store-dir", "", "store bench: data directory (empty = temp dir)")
	storeSoak := flag.Bool("store-soak", false, "run the eviction-churn soak with goroutine/heap leak gates")
	storeStorm := flag.Bool("store-storm", false, "run the crash-recovery write storm against -target, journaling acks to -ack-log")
	verify := flag.Bool("verify", false, "verify a recovered -target server against the -ack-log journal")
	target := flag.String("target", "http://127.0.0.1:8747", "storm/verify: server base URL")
	ackLog := flag.String("ack-log", "acks.log", "storm/verify: acknowledged-save journal path")

	chaos := flag.Bool("chaos", false, "run the fault-injection chaos harness instead of the load harness")
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
	case *storeBench:
		runStoreBench(bench.StoreConfig{
			Docs:       *storeDocs,
			DocChars:   *docChars,
			CacheBytes: *storeCacheBytes,
			SustainOps: *storeOps,
			HotDocs:    *storeHot,
			Workers:    *workers,
			Dir:        *storeDir,
			Seed:       *seed,
		}, *jsonPath)
		return
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

	stopProfiles, err := bench.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load:", err)
		os.Exit(1)
	}
	// Error paths below exit the process directly and forfeit the profiles;
	// a completed run flushes them here.
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load:", err)
		}
	}()

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

	if *chaos {
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
		return
	}

	cfg := bench.LoadConfig{
		Sessions:    *sessions,
		Docs:        *docs,
		Duration:    *duration,
		DocChars:    *docChars,
		Scheme:      scheme,
		BlockChars:  *blockChars,
		ReloadEvery: *reloadEvery,
		NetScale:    *netScale,
		Inflight:    *inflight,
		Seed:        *seed,
		Trace:       *tracing,
		TraceSink:   traceSink,
	}
	if *tracing {
		cfg.WatchInterval = *watchEvery
	}

	effDocs := *docs
	if effDocs <= 0 {
		effDocs = *sessions
	}
	fmt.Printf("privedit-load: %d sessions on %d docs, %v, %d-char docs, scheme=%s b=%d\n",
		*sessions, effDocs, *duration, *docChars, scheme, *blockChars)

	// The kernel microbench runs before the load phase so it measures the
	// kernel in a fresh heap: the load phase leaves behind a large live
	// set that inflates the GC goal and skews the timings run to run.
	var encRows []bench.EncRow
	if *jsonPath != "" && *encBench {
		rows, err := bench.EncKernelBench(scheme, *blockChars,
			[]int{1_000, 10_000, 100_000, 400_000}, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load: enc bench:", err)
			os.Exit(1)
		}
		encRows = rows
	}

	report, err := bench.RunLoad(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load:", err)
		os.Exit(1)
	}

	fmt.Printf("  ops        %d (%.1f reloads, %.1f delta saves/s)\n",
		report.Ops,
		float64(report.Reloads)/report.DurationS,
		float64(report.DeltaSaves)/report.DurationS)
	fmt.Printf("  throughput %.1f ops/s over %.2fs\n", report.OpsPerSec, report.DurationS)
	fmt.Printf("  latency    p50=%.2fms p95=%.2fms p99=%.2fms\n", report.P50Ms, report.P95Ms, report.P99Ms)
	fmt.Printf("  conflicts  %d version conflicts, %d errored ops\n", report.Conflicts, report.Errors)
	fmt.Printf("  mediator   %d sessions, %d full encrypts, %d deltas, %d loads\n",
		report.MediatorSessions, report.MediatorFullEncrypts, report.MediatorDeltas, report.MediatorLoads)
	fmt.Printf("  pipeline   depth=%d, %d queued saves (%d coalesced), %d OT merges, %d conflict resyncs, %d dropped\n",
		report.Inflight, report.QueuedSaves, report.QueueCoalesced,
		report.OTMerges, report.ConflictResyncs, report.DroppedSaves)
	if report.Watch != nil {
		fmt.Printf("  watchdog   %d samples, max %d goroutines, max heap %.1f MiB\n",
			report.Watch.Samples, report.Watch.MaxGoroutines,
			float64(report.Watch.MaxHeapBytes)/(1<<20))
	}
	printPhases(report.Phases)
	if *tracing && (report.Phases == nil || report.Phases.Empty()) {
		// trace-smoke relies on this: a traced run that attributed nothing
		// means the span plumbing regressed somewhere.
		fmt.Fprintln(os.Stderr, "privedit-load: tracing was on but the phase breakdown is empty")
		os.Exit(1)
	}

	// ot-smoke gates: the pipelined save path commits to a throughput floor
	// and to resolving conflicts by transform, not full resync.
	failed := false
	if *minOpsSec > 0 && report.OpsPerSec < *minOpsSec {
		fmt.Fprintf(os.Stderr, "privedit-load: throughput %.1f ops/s is below the %.1f ops/s floor\n",
			report.OpsPerSec, *minOpsSec)
		failed = true
	}
	if *maxResyncs >= 0 && report.ConflictResyncs > *maxResyncs {
		fmt.Fprintf(os.Stderr, "privedit-load: %d conflict resyncs exceed the allowed %d\n",
			report.ConflictResyncs, *maxResyncs)
		failed = true
	}
	if failed {
		os.Exit(1)
	}

	if *jsonPath == "" {
		return
	}
	artifact := bench.LoadArtifact{
		Title: "Concurrent load: sharded store + crypto kernels",
		Load:  report,
	}
	if encRows != nil {
		artifact.EncBench = encRows
		fmt.Println("  enc kernel:")
		for _, r := range encRows {
			fmt.Printf("    %7d chars  %6d blocks  %8.3fms\n", r.Chars, r.Blocks, r.Ms)
		}
	}
	out, err := artifact.MarshalIndent()
	if err == nil {
		err = os.WriteFile(*jsonPath, out, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load:", err)
		os.Exit(1)
	}
	fmt.Println("  wrote", *jsonPath)
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
	fmt.Printf("  mediator   %d retries (%d giveups), %d degraded saves, %d degraded loads\n",
		report.Retries, report.RetryGiveups, report.DegradedSaves, report.DegradedLoads)
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

// runStoreBench executes the persistence bench and optionally writes
// BENCH_store.json.
func runStoreBench(cfg bench.StoreConfig, jsonPath string) {
	report, err := bench.RunStore(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "privedit-load: store:", err)
		os.Exit(1)
	}
	fmt.Printf("privedit-load: store bench, %d docs x %d chars, %d-byte cache, hot set %d\n",
		report.Docs, report.DocChars, report.CacheBytes, report.HotDocs)
	fmt.Printf("  populate   %.0f ops/s (%.2fs, bulk-load mode)\n", report.PopulateOpsPerSec, report.PopulateS)
	fmt.Printf("  sustained  %.0f ops/s over %d mixed ops, p50=%.2fms p95=%.2fms p99=%.2fms\n",
		report.SustainedOpsPerSec, report.SustainedOps, report.P50Ms, report.P95Ms, report.P99Ms)
	fmt.Printf("  cache      %.1f%% hit rate (%d hits, %d misses, %d evictions)\n",
		100*report.CacheHitRate, report.CacheHits, report.CacheMisses, report.CacheEvictions)
	fmt.Printf("  recovery   %.3fs for %d docs (%d snapshot + %d WAL records, %d torn bytes)\n",
		report.RecoveryS, report.RecoveredDocs, report.SnapshotRecords, report.WALRecords, report.TornBytes)
	if jsonPath == "" {
		return
	}
	artifact := bench.StoreArtifact{
		Title: "Persistence: WAL + snapshot store under a bounded cache",
		Store: report,
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
