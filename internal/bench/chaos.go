// Chaos harness: RunChaos asks "does the stack stay *correct* when the
// cloud misbehaves" (throughput and latency are editbench's business). It
// drives concurrent editing sessions through a mediating extension with
// the resilience stack enabled, over a seed-driven netsim.FaultTransport
// injecting drops, 5xx/429s, timeouts, and corruption — then verifies that
// every document's stored ciphertext still decrypts, and that a fresh
// mediated session sees exactly what an independent decrypt of the stored
// container yields.
//
// Every operation waits for its durable ack (Session.Flush) while the
// faults are on. Saves ack locally and would otherwise coalesce and finish
// before the storm reached them, so the faults would hit almost nothing.
//
// Determinism: sessions run a *fixed* number of operations (not a wall
// clock window), each on its own document, and every fault decision is a
// pure function of (seed, request shape, occurrence). Because each
// operation drains before the next begins, a document's request sequence
// depends only on the (deterministic) fault sequence; the writer's
// backoff changes when a retry happens, never which requests are made.
// Same seed → byte-identical fault counts, ops, and error totals, which
// the chaos tests pin.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
	"privedit/internal/trace"
	"privedit/internal/workload"
)

// ChaosConfig parameterizes one chaos run.
type ChaosConfig struct {
	// Sessions is the number of concurrent editing sessions. Each session
	// edits its own document (the determinism contract needs per-document
	// request sequences to be interleaving-independent).
	Sessions int
	// OpsPerSession is the fixed number of edit operations per session.
	OpsPerSession int
	// DocChars is the initial size of every document.
	DocChars int
	// Scheme and BlockChars select the encryption mode (defaults:
	// ConfidentialityIntegrity, DefaultBlockChars).
	Scheme     core.Scheme
	BlockChars int
	// ReloadEvery makes every n-th operation a full reload. 0 disables.
	ReloadEvery int
	// Seed drives the workload and, unless Fault.Seed is set, the faults.
	Seed int64
	// Fault is the injected-fault profile. Zero rates mean a clean run.
	Fault netsim.FaultProfile
	// Resilience configures the mediator's retry policy. The zero value
	// gets fast test-friendly defaults.
	Resilience mediator.Resilience
	// Trace enables request-scoped tracing for the storm phase and adds a
	// per-phase latency breakdown (including retry and resync time under
	// fault injection) to the report. Tracing never participates in the
	// determinism contract: DeterministicKey pins only fault/op counts.
	Trace bool
	// TraceSink, when non-nil and Trace is on, additionally receives every
	// completed trace.
	TraceSink func(trace.Trace)
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.OpsPerSession <= 0 {
		c.OpsPerSession = 40
	}
	if c.DocChars <= 0 {
		c.DocChars = 8_000
	}
	if c.Scheme == 0 {
		c.Scheme = core.ConfidentialityIntegrity
	}
	if c.BlockChars <= 0 {
		c.BlockChars = core.DefaultBlockChars
	}
	if c.Fault.Seed == 0 {
		c.Fault.Seed = c.Seed
	}
	if c.Resilience.Retry.MaxAttempts <= 0 {
		c.Resilience.Retry = mediator.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			Seed:        c.Seed,
		}
	}
	return c
}

// ChaosReport is the outcome of one chaos run, serializable as the
// BENCH_chaos.json artifact. For a deterministic profile every field
// except DurationS is identical across runs with the same seed.
type ChaosReport struct {
	Sessions      int     `json:"sessions"`
	OpsPerSession int     `json:"ops_per_session"`
	DocChars      int     `json:"doc_chars"`
	Scheme        string  `json:"scheme"`
	BlockChars    int     `json:"block_chars"`
	Seed          int64   `json:"seed"`
	DurationS     float64 `json:"duration_s"`

	Ops      int64 `json:"ops"`
	OpErrors int64 `json:"op_errors"`
	Reloads  int64 `json:"reloads"`

	Faults netsim.FaultStats `json:"faults"`

	Retries         int `json:"mediator_retries"`
	RetryGiveups    int `json:"mediator_retry_giveups"`
	DegradedSaves   int `json:"mediator_degraded_saves"`
	DegradedLoads   int `json:"mediator_degraded_loads"`
	QueuedSaves     int `json:"queued_saves"`
	OTMerges        int `json:"ot_merges"`
	ConflictResyncs int `json:"conflict_resyncs"`
	DroppedSaves    int `json:"dropped_saves"`

	ConvergedDocs int `json:"converged_docs"`
	DivergedDocs  int `json:"diverged_docs"`

	// Phases is the per-phase latency breakdown aggregated from spans,
	// present when the run traced (ChaosConfig.Trace). Excluded from
	// DeterministicKey: durations vary run to run even when counts don't.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// DeterministicKey returns the subset of the report that the determinism
// contract pins: fault counts plus op/error totals, serialized as JSON.
// Two runs with the same config must produce byte-identical keys.
func (r ChaosReport) DeterministicKey() ([]byte, error) {
	key := struct {
		Faults   netsim.FaultStats `json:"faults"`
		Ops      int64             `json:"ops"`
		OpErrors int64             `json:"op_errors"`
	}{r.Faults, r.Ops, r.OpErrors}
	return json.MarshalIndent(key, "", "  ")
}

// RunChaos stands up a gdocs server behind a fault-injecting transport,
// drives cfg.Sessions resilient mediated sessions through the storm, then
// lifts the faults and verifies convergence document by document.
func RunChaos(cfg ChaosConfig) (ChaosReport, error) {
	cfg = cfg.withDefaults()

	server := gdocs.NewServer()
	var handler http.Handler = server
	if cfg.Trace {
		handler = trace.Middleware(server)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	var col *trace.Collector
	if cfg.Trace {
		col = &trace.Collector{}
		defer trace.Default.AddSink(col.Collect)()
		if cfg.TraceSink != nil {
			defer trace.Default.AddSink(cfg.TraceSink)()
		}
		prevEnabled := trace.Default.Enabled()
		trace.Default.SetEnabled(true)
		defer trace.Default.SetEnabled(prevEnabled)
	}

	faults := netsim.NewFaultTransport(ts.Client().Transport, cfg.Fault)
	faults.SetEnabled(false) // clean network while seeding

	opts := core.Options{Scheme: cfg.Scheme, BlockChars: cfg.BlockChars}
	ext := mediator.New(faults, mediator.StaticPassword("chaos-pw", opts),
		mediator.WithResilience(cfg.Resilience))
	httpc := ext.Client()

	// Seed every document over the clean network.
	gen := workload.NewGen(cfg.Seed)
	for d := 0; d < cfg.Sessions; d++ {
		c := gdocs.NewClient(httpc, ts.URL, chaosDocID(d))
		if err := c.Create(); err != nil {
			return ChaosReport{}, fmt.Errorf("seed create doc %d: %w", d, err)
		}
		c.SetText(gen.Document(cfg.DocChars))
		if err := c.Save(); err != nil {
			return ChaosReport{}, fmt.Errorf("seed save doc %d: %w", d, err)
		}
		if err := flushDoc(ext, chaosDocID(d)); err != nil {
			return ChaosReport{}, fmt.Errorf("seed flush doc %d: %w", d, err)
		}
	}

	// The storm.
	faults.SetEnabled(true)
	var (
		ops, opErrors, reloads atomic.Int64
		wg                     sync.WaitGroup
	)
	start := time.Now()
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := workload.NewGen(cfg.Seed + int64(s) + 1)
			docID := chaosDocID(s)
			c := gdocs.NewClient(httpc, ts.URL, docID)
			if err := c.Load(); err != nil {
				opErrors.Add(1)
			}
			// The load's catch-up is the session's first trip through
			// the storm; a failed one is counted and later ops reload.
			if err := flushDoc(ext, docID); err != nil {
				opErrors.Add(1)
			}
			for op := 1; op <= cfg.OpsPerSession; op++ {
				reload := cfg.ReloadEvery > 0 && op%cfg.ReloadEvery == 0
				var osp *trace.Span
				if cfg.Trace {
					var octx context.Context
					octx, osp = trace.Default.Root(context.Background(), trace.SpanEditOp)
					osp.Annotate("doc", docID)
					c.WithContext(octx)
				}
				var err error
				if reload {
					err = c.Load()
				} else {
					sp := g.Edit(c.Text(), workload.InsertsAndDeletes)
					if err = c.Replace(sp.Pos, sp.Del, sp.Ins); err == nil {
						err = c.Sync()
					}
				}
				if err == nil {
					// The durable ack: the op is done once the server holds
					// it, so every save crosses the storm.
					err = flushDoc(ext, docID)
				}
				osp.End()
				if err != nil {
					// Failed ops are the point of the exercise: reload (which
					// may itself be served degraded) and continue editing.
					opErrors.Add(1)
					c.WithContext(context.Background())
					_ = c.Load()
					_ = flushDoc(ext, docID)
					continue
				}
				ops.Add(1)
				if reload {
					reloads.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)
	faultStats := faults.Stats()

	// Calm after the storm: drop the faults and let every session's queue
	// drain, then verify convergence from three angles — a settled client,
	// a completely fresh mediated session, and an independent decrypt of
	// the container the server actually stores.
	faults.SetEnabled(false)
	converged, diverged := 0, 0
	for s := 0; s < cfg.Sessions; s++ {
		docID := chaosDocID(s)
		settle := gdocs.NewClient(httpc, ts.URL, docID)
		if err := settle.Load(); err != nil {
			diverged++
			continue
		}
		if err := settle.Sync(); err != nil {
			diverged++
			continue
		}
		if err := flushDoc(ext, docID); err != nil {
			diverged++
			continue
		}
		stored, _, err := server.Content(context.Background(), docID)
		if err != nil {
			diverged++
			continue
		}
		plain, err := core.DecryptWith("chaos-pw", stored, core.Options{})
		if err != nil || plain != settle.Text() {
			diverged++
			continue
		}
		fresh := mediator.New(ts.Client().Transport, mediator.StaticPassword("chaos-pw", core.Options{}))
		fc := gdocs.NewClient(fresh.Client(), ts.URL, docID)
		err = fc.Load()
		_ = fresh.Session(docID).Close() // nothing queued: a load only
		if err != nil || fc.Text() != plain {
			diverged++
			continue
		}
		converged++
	}

	stats := ext.Stats()
	report := ChaosReport{
		Sessions:      cfg.Sessions,
		OpsPerSession: cfg.OpsPerSession,
		DocChars:      cfg.DocChars,
		Scheme:        cfg.Scheme.String(),
		BlockChars:    cfg.BlockChars,
		Seed:          cfg.Seed,
		DurationS:     elapsed.Seconds(),

		Ops:      ops.Load(),
		OpErrors: opErrors.Load(),
		Reloads:  reloads.Load(),

		Faults: faultStats,

		Retries:         stats.Retries,
		RetryGiveups:    stats.RetryGiveups,
		DegradedSaves:   stats.DegradedSaves,
		DegradedLoads:   stats.DegradedLoads,
		QueuedSaves:     stats.QueuedSaves,
		OTMerges:        stats.OTMerges,
		ConflictResyncs: stats.ConflictResyncs,
		DroppedSaves:    stats.DroppedSaves,

		ConvergedDocs: converged,
		DivergedDocs:  diverged,
	}
	if col != nil {
		pb := AggregatePhases(drainTraces(col))
		report.Phases = &pb
	}
	return report, nil
}

func chaosDocID(s int) string { return fmt.Sprintf("chaos-doc-%d", s) }

// drainTraces waits for in-flight traces to finalize (a client root span
// can end a beat before the server half of its tree does) by polling the
// collector until its count is stable, then snapshots it.
func drainTraces(col *trace.Collector) []trace.Trace {
	deadline := time.Now().Add(2 * time.Second)
	prev := -1
	for time.Now().Before(deadline) {
		n := col.Len()
		if n == prev {
			break
		}
		prev = n
		time.Sleep(10 * time.Millisecond)
	}
	return col.Snapshot()
}

// flushDoc waits for docID's durable ack: every queued save on the server
// and any pending catch-up folded in.
func flushDoc(ext *mediator.Extension, docID string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return ext.Session(docID).Flush(ctx)
}

// ChaosArtifact is the BENCH_chaos.json document.
type ChaosArtifact struct {
	Title string              `json:"title"`
	Fault netsim.FaultProfile `json:"fault_profile"`
	Chaos ChaosReport         `json:"chaos"`
}

// MarshalIndent renders the artifact for the committed JSON file.
func (a ChaosArtifact) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

var _ http.RoundTripper = (*netsim.FaultTransport)(nil)
