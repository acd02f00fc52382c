// Load harness: drives many concurrent editing sessions through the
// mediating extension against the simulated service, exercising the
// sharded document store, the per-document mediator sessions, and the
// Enc/Dec kernels all at once. This is the concurrency
// counterpart of the paper's single-session macro benchmarks (§VII-C):
// instead of asking "how slow is one encrypted editing session", it asks
// "how many encrypted editing sessions can one extension and one server
// sustain".
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/blockdoc"
	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
	"privedit/internal/obs"
	"privedit/internal/recb"
	"privedit/internal/rpcmode"
	"privedit/internal/trace"
	"privedit/internal/workload"
)

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Sessions is the number of concurrent editing sessions.
	Sessions int
	// Docs is the number of distinct documents; sessions share documents
	// round-robin when Sessions > Docs, which provokes version conflicts.
	Docs int
	// Duration is how long the measured phase runs.
	Duration time.Duration
	// DocChars is the initial size of every document.
	DocChars int
	// Scheme and BlockChars select the encryption mode (defaults:
	// ConfidentialityIntegrity, DefaultBlockChars).
	Scheme     core.Scheme
	BlockChars int
	// ReloadEvery makes every n-th operation a full document reload — a
	// whole-document decrypt through the mediator — instead of an
	// incremental delta save. 0 disables reloads.
	ReloadEvery int
	// NetScale enables the simulated Broadband2009 network, dividing its
	// delays by the given factor (e.g. 1000 for a fast smoke run). 0
	// disables network simulation entirely.
	NetScale int
	// Inflight is the mediator's per-document save queue depth
	// (mediator.WithPipeline); 0 selects mediator.DefaultInflight.
	Inflight int
	// Seed makes the workload reproducible.
	Seed int64
	// Trace enables request-scoped tracing for the run: every operation
	// gets an edit_op root span, the server handler joins each trace via
	// trace.Middleware, and the report carries a per-phase latency
	// breakdown aggregated from the collected spans.
	Trace bool
	// TraceSink, when non-nil and Trace is on, additionally receives every
	// completed trace (e.g. a JSONL writer).
	TraceSink func(trace.Trace)
	// WatchInterval, when positive, runs the trace.Watch runtime watchdog
	// for the duration of the run and reports its stats.
	WatchInterval time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Sessions <= 0 {
		c.Sessions = 8
	}
	if c.Docs <= 0 {
		c.Docs = c.Sessions
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.DocChars <= 0 {
		c.DocChars = 20_000
	}
	if c.Scheme == 0 {
		c.Scheme = core.ConfidentialityIntegrity
	}
	if c.BlockChars <= 0 {
		c.BlockChars = core.DefaultBlockChars
	}
	if c.Inflight <= 0 {
		c.Inflight = mediator.DefaultInflight
	}
	return c
}

// LoadReport is the outcome of one load run, serializable as the
// BENCH_load.json artifact.
type LoadReport struct {
	Sessions   int     `json:"sessions"`
	Docs       int     `json:"docs"`
	DurationS  float64 `json:"duration_s"`
	DocChars   int     `json:"doc_chars"`
	Scheme     string  `json:"scheme"`
	BlockChars int     `json:"block_chars"`

	Ops        int64   `json:"ops"`
	Reloads    int64   `json:"reloads"`
	DeltaSaves int64   `json:"delta_saves"`
	Errors     int64   `json:"errors"`
	Conflicts  int64   `json:"version_conflicts"`
	OpsPerSec  float64 `json:"ops_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`

	MediatorFullEncrypts   int `json:"mediator_full_encrypts"`
	MediatorDeltas         int `json:"mediator_deltas_transformed"`
	MediatorLoads          int `json:"mediator_loads_decrypted"`
	MediatorSessions       int `json:"mediator_sessions"`
	MediatorPlainBytesIn   int `json:"mediator_plain_bytes_in"`
	MediatorCipherBytesOut int `json:"mediator_cipher_bytes_out"`

	// Save queue counters.
	Inflight        int `json:"inflight"`
	QueuedSaves     int `json:"queued_saves"`
	QueueCoalesced  int `json:"queue_coalesced"`
	OTMerges        int `json:"ot_merges"`
	ConflictResyncs int `json:"conflict_resyncs"`
	DroppedSaves    int `json:"dropped_saves"`

	// Phases is the per-phase latency breakdown aggregated from spans,
	// present when the run traced (LoadConfig.Trace).
	Phases *PhaseBreakdown `json:"phases,omitempty"`
	// Watch is the runtime watchdog's summary, present when
	// LoadConfig.WatchInterval was set.
	Watch *trace.WatchStats `json:"watch,omitempty"`
}

// RunLoad stands up a gdocs server plus one mediating extension and drives
// cfg.Sessions concurrent sessions against it for cfg.Duration. Latency
// quantiles come from an internal/obs histogram; version-conflict counts
// from the server's obs counter.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg = cfg.withDefaults()

	server := gdocs.NewServer()
	var handler http.Handler = server
	if cfg.Trace {
		// The server joins each operation's trace from the wire header, so
		// the collected tree spans both sides of every HTTP exchange.
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
	var stopWatch func() trace.WatchStats
	if cfg.WatchInterval > 0 {
		stopWatch = trace.Watch(cfg.WatchInterval)
	}

	var transport http.RoundTripper = ts.Client().Transport
	if cfg.NetScale > 0 {
		transport = &netsim.DelayTransport{
			Base:    transport,
			Profile: netsim.Broadband2009(),
			Scale:   cfg.NetScale,
		}
	}
	opts := core.Options{
		Scheme:     cfg.Scheme,
		BlockChars: cfg.BlockChars,
	}
	ext := mediator.New(transport, mediator.StaticPassword("load-pw", opts), mediator.WithPipeline(cfg.Inflight))
	httpc := ext.Client()

	// Latency percentiles come from the raw per-operation samples, not a
	// bucketed histogram: bucket interpolation can misreport tail
	// quantiles by the width of a bucket, and the committed artifact should
	// report observations, not estimates. Each session appends to its own
	// slice; the slices merge after the run. Conflicts come from the
	// server's obs counter in the default registry.
	latSamples := make([][]float64, cfg.Sessions)
	obs.Enable()
	conflictsBefore := obs.Default.Value("privedit_version_conflicts_total")

	// Seed every document serially before the clock starts.
	gen := workload.NewGen(cfg.Seed)
	docText := make([]string, cfg.Docs)
	for d := 0; d < cfg.Docs; d++ {
		docText[d] = gen.Document(cfg.DocChars)
		c := gdocs.NewClient(httpc, ts.URL, fmt.Sprintf("load-doc-%d", d))
		if err := c.Create(); err != nil {
			return LoadReport{}, fmt.Errorf("seed create doc %d: %w", d, err)
		}
		c.SetText(docText[d])
		if err := c.Save(); err != nil {
			return LoadReport{}, fmt.Errorf("seed save doc %d: %w", d, err)
		}
	}

	var (
		ops, reloads, deltaSaves, errs atomic.Int64
		wg                             sync.WaitGroup
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()
	for s := 0; s < cfg.Sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			docID := fmt.Sprintf("load-doc-%d", s%cfg.Docs)
			g := workload.NewGen(cfg.Seed + int64(s) + 1)
			c := gdocs.NewClient(httpc, ts.URL, docID)
			if err := c.Load(); err != nil {
				errs.Add(1)
				return
			}
			for op := 1; time.Now().Before(deadline); op++ {
				reload := cfg.ReloadEvery > 0 && op%cfg.ReloadEvery == 0
				var osp *trace.Span
				if cfg.Trace {
					var octx context.Context
					octx, osp = trace.Default.Root(context.Background(), trace.SpanEditOp)
					osp.Annotate("doc", docID)
					c.WithContext(octx)
				}
				t0 := time.Now()
				var err error
				if reload {
					// Reload: served from the mediator's local view, and
					// nudges its writer to catch up with the server.
					err = c.Load()
				} else {
					sp := g.Edit(c.Text(), workload.InsertsAndDeletes)
					if err = c.Replace(sp.Pos, sp.Del, sp.Ins); err == nil {
						err = c.Sync()
					}
				}
				osp.End()
				latSamples[s] = append(latSamples[s], time.Since(t0).Seconds())
				if err != nil {
					// Conflict storms and transform rejections on shared
					// documents are expected; resynchronize and go on.
					errs.Add(1)
					c.WithContext(context.Background()) // recovery load: outside the ended op trace
					if lerr := c.Load(); lerr != nil {
						return
					}
					continue
				}
				ops.Add(1)
				if reload {
					reloads.Add(1)
				} else {
					deltaSaves.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Drain every queue before reading counters, so the report reflects
	// acknowledged saves, not in-flight ones.
	flushCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	for d := 0; d < cfg.Docs; d++ {
		if err := ext.Session(fmt.Sprintf("load-doc-%d", d)).Flush(flushCtx); err != nil {
			errs.Add(1)
		}
	}
	cancel()

	var lat Sample
	for _, sessionLat := range latSamples {
		for _, v := range sessionLat {
			lat.Add(v)
		}
	}

	stats := ext.Stats()
	conflictsAfter := obs.Default.Value("privedit_version_conflicts_total")
	report := LoadReport{
		Sessions:   cfg.Sessions,
		Docs:       cfg.Docs,
		DurationS:  elapsed.Seconds(),
		DocChars:   cfg.DocChars,
		Scheme:     cfg.Scheme.String(),
		BlockChars: cfg.BlockChars,

		Ops:        ops.Load(),
		Reloads:    reloads.Load(),
		DeltaSaves: deltaSaves.Load(),
		Errors:     errs.Load(),
		Conflicts:  int64(conflictsAfter - conflictsBefore),
		OpsPerSec:  float64(ops.Load()) / elapsed.Seconds(),
		P50Ms:      lat.Percentile(0.50) * 1000,
		P95Ms:      lat.Percentile(0.95) * 1000,
		P99Ms:      lat.Percentile(0.99) * 1000,

		MediatorFullEncrypts:   stats.FullEncrypts,
		MediatorDeltas:         stats.DeltasTransformed,
		MediatorLoads:          stats.LoadsDecrypted,
		MediatorSessions:       ext.SessionCount(),
		MediatorPlainBytesIn:   stats.PlainBytesIn,
		MediatorCipherBytesOut: stats.CipherBytesOut,

		Inflight:        cfg.Inflight,
		QueuedSaves:     stats.QueuedSaves,
		QueueCoalesced:  stats.QueueCoalesced,
		OTMerges:        stats.OTMerges,
		ConflictResyncs: stats.ConflictResyncs,
		DroppedSaves:    stats.DroppedSaves,
	}
	if stopWatch != nil {
		ws := stopWatch()
		report.Watch = &ws
	}
	if col != nil {
		pb := AggregatePhases(drainTraces(col))
		report.Phases = &pb
	}
	return report, nil
}

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

// EncRow times the whole-document encrypt kernel at one document size.
type EncRow struct {
	Chars  int     `json:"chars"`
	Blocks int     `json:"blocks"`
	Ms     float64 `json:"ms"`
}

// EncKernelBench times the whole-document Enc kernel — codec.EncryptAll,
// the chunks-to-ciphertext step — at each size, for the given scheme.
// Document assembly (skiplist build, transport encode) is deliberately
// outside the timed region: those costs are measured elsewhere (the load
// phases and the hotpath experiment). Each row reports the best of 20–30
// trials, each run from a freshly collected heap: without the collection,
// whether a GC cycle lands inside a given trial depends on allocation
// phase left over from prior trials, and the per-size bests become
// bimodal run to run. The best trial is robust against noisy neighbors.
func EncKernelBench(scheme core.Scheme, blockChars int, sizes []int, seed int64) ([]EncRow, error) {
	runtime.GC() // level the field when a load phase ran in this process
	gen := workload.NewGen(seed)
	// The production configuration: CSPRNG nonce source. The key only
	// schedules AES, so timing is key-independent.
	key := []byte("bench-kernel-key")
	var (
		codec blockdoc.Codec
		err   error
	)
	if scheme == core.ConfidentialityOnly {
		codec, err = recb.New(key, crypt.CryptoNonceSource{})
	} else {
		codec, err = rpcmode.New(key, crypt.CryptoNonceSource{})
	}
	if err != nil {
		return nil, err
	}
	rows := make([]EncRow, 0, len(sizes))
	for _, chars := range sizes {
		chunks := chunkDoc([]byte(gen.Document(chars)), blockChars)
		trials := 20
		if chars <= 16_384 {
			trials = 30
		}
		var best time.Duration
		for i := 0; i < trials; i++ {
			runtime.GC()
			t0 := time.Now()
			if _, _, _, err := codec.EncryptAll(chunks); err != nil {
				return nil, err
			}
			if d := time.Since(t0); best == 0 || d < best {
				best = d
			}
		}
		rows = append(rows, EncRow{Chars: chars, Blocks: len(chunks), Ms: best.Seconds() * 1000})
	}
	return rows, nil
}

// chunkDoc splits a document into the blockChars-sized chunks the codec
// kernels consume (the last chunk may be short).
func chunkDoc(raw []byte, blockChars int) [][]byte {
	chunks := make([][]byte, 0, (len(raw)+blockChars-1)/blockChars)
	for len(raw) > blockChars {
		chunks = append(chunks, raw[:blockChars])
		raw = raw[blockChars:]
	}
	if len(raw) > 0 {
		chunks = append(chunks, raw)
	}
	return chunks
}

// LoadArtifact is the combined BENCH_load.json document.
type LoadArtifact struct {
	Title    string     `json:"title"`
	EncBench []EncRow   `json:"enc_kernel"`
	Load     LoadReport `json:"load"`
}

// MarshalIndent renders the artifact for the committed JSON file.
func (a LoadArtifact) MarshalIndent() ([]byte, error) {
	out, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
