// Command privedit-load runs the persistence layer's harnesses, which
// need a whole stack and check correctness rather than speed: the store
// soak, and the crash-recovery write storm and its audit. Throughput and
// latency are measured by editbench (bash editbench/run.sh); the seeded
// fault storm is internal/e2e's TestChaosDistinctDocsUnderStorm (make
// chaos-smoke). Run without a mode flag, it prints its usage and exits 2.
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
)

func main() {
	sessions := flag.Int("sessions", 8, "storm: concurrent writers")
	duration := flag.Duration("duration", 5*time.Second, "store soak: churn length")
	docChars := flag.Int("doc-chars", 20_000, "storm: initial document size, characters")
	workers := flag.Int("workers", 0, "store soak: concurrent store clients (0 = 4)")
	seed := flag.Int64("seed", 2011, "workload seed")

	storeCacheBytes := flag.Int64("cache-bytes", 0, "store soak: resident cache budget, bytes (0 = default)")
	storeSoak := flag.Bool("store-soak", false, "run the eviction-churn soak with goroutine/heap leak gates")
	storeStorm := flag.Bool("store-storm", false, "run the crash-recovery write storm against -target, journaling acks to -ack-log")
	verify := flag.Bool("verify", false, "verify a recovered -target server against the -ack-log journal")
	target := flag.String("target", "http://127.0.0.1:8747", "storm/verify: server base URL")
	ackLog := flag.String("ack-log", "acks.log", "storm/verify: acknowledged-save journal path")
	flag.Parse()

	switch {
	case *storeSoak:
		runStoreSoak(bench.SoakConfig{
			Duration:   *duration,
			CacheBytes: *storeCacheBytes,
			Workers:    *workers,
			Seed:       *seed,
		})
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
	case *verify:
		checked, err := bench.VerifyAckLog(*target, *ackLog)
		if err != nil {
			fmt.Fprintln(os.Stderr, "privedit-load: verify:", err)
			os.Exit(1)
		}
		fmt.Printf("privedit-load: verified %d documents against %s: every acknowledged save survived\n", checked, *ackLog)
	default:
		fmt.Fprintln(os.Stderr, "privedit-load: choose a mode: -store-soak, -store-storm or -verify")
		flag.Usage()
		os.Exit(2)
	}
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
