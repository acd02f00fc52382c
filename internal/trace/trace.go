// Package trace is the repository's request-scoped tracing layer: a
// stdlib-only, context-propagated span tracer that attributes each edit
// round trip to its phases — load, decrypt, diff, transform, encrypt,
// enqueue, save, merge, resync — across the client, the mediator and its
// writer, the simulated network, and the gdocs server.
//
// The design mirrors internal/obs: instrumented call sites are guarded by
// one atomic load and cost a few nanoseconds while tracing is disabled
// (see BenchmarkTraceDisabled), so an untraced edit path is unaffected.
// Binaries that want traces call trace.Enable().
//
// A trace is a tree of spans sharing one trace ID. Spans propagate through
// context.Context in-process and through the X-Privedit-Trace header over
// the wire (see http.go), so a client span tree contains the server-side
// spans of every request it issued; a save the writer re-sends is a trace
// of its own, annotated with its failure streak. Completed traces are
// delivered to registered sinks: the flight recorder behind /debug/traces
// (recorder.go), JSONL export files (jsonl.go), and in-memory collectors
// such as editbench's per-layer ledger.
package trace

import (
	"context"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/obs"
)

// Header is the HTTP header that carries trace context over the wire, as
// "traceID-spanID" (16 lowercase hex digits each). It rides next to the
// obs middleware's X-Request-ID: the request ID names one HTTP exchange,
// the trace ID names the whole edit operation that caused it.
const Header = "X-Privedit-Trace"

// Span names. Constants (not ad-hoc strings) so privedit-lint's span-name
// rule can constant-fold and enforce the snake_case taxonomy, and so
// editbench's ledger and DESIGN.md §12 share one vocabulary.
const (
	// SpanEditOp is the per-operation root span a driver opens around one
	// whole edit (the traced row of internal/e2e's chaos gate does).
	SpanEditOp = "edit_op"

	// Client/mediator phases of an edit round trip.
	SpanLoad      = "load"      // fetch ciphertext document from the server
	SpanDecrypt   = "decrypt"   // stego-decode + open the block document
	SpanDiff      = "diff"      // client-side diff against last-saved text
	SpanTransform = "transform" // delta parse/coalesce/mitigate/transform
	SpanEncrypt   = "encrypt"   // full-document encrypt + stego encode
	SpanEnqueue   = "enqueue"   // pipelined save accepted into the per-doc queue
	SpanSave      = "save"      // save/update POST round trip
	SpanMerge     = "merge"     // OT-first conflict repair: catch-up + transform
	SpanResync    = "resync"    // gdocs.Client.Sync conflict recovery: refetch + merge

	// Structural spans around the phases.
	SpanMediateUpdate = "mediate_update" // mediator handling of one save
	SpanMediateLoad   = "mediate_load"   // mediator handling of one load
	SpanMediateCreate = "mediate_create" // mediator handling of one create
	SpanClientLoad    = "client_load"    // gdocs.Client.Load
	SpanClientSave    = "client_save"    // gdocs.Client.Save
	SpanClientSync    = "client_sync"    // gdocs.Client.Sync
	SpanWriterDrain   = "writer_drain"   // pipelined writer: one queued save round trip
	SpanServerRequest = "server_request" // gdocs server handler (middleware)
	SpanServerStore   = "server_store"   // gdocs server store operation
	SpanNetDelay      = "net_delay"      // netsim simulated link+server delay
)

// Telemetry about the tracer itself. No-ops until obs.Enable().
var (
	metricTraces = obs.NewCounter("privedit_trace_traces_total",
		"Traces completed (root span ended and all children closed).")
	metricSpans = obs.NewCounter("privedit_trace_spans_total",
		"Spans completed across all traces.")
	metricSlowSpans = obs.NewCounter("privedit_trace_slow_spans_total",
		"Spans that exceeded the configured slow-span threshold.")
)

// Annotation is one typed key/value event attached to a span at a point in
// time, e.g. a retry attempt number, an injected fault kind, or a save's
// outcome.
type Annotation struct {
	// OffsetNs is nanoseconds since the span started.
	OffsetNs int64  `json:"offset_ns"`
	Key      string `json:"key"`
	Value    string `json:"value"`
}

// SpanData is one completed span as delivered to sinks.
type SpanData struct {
	SpanID      string       `json:"span_id"`
	ParentID    string       `json:"parent_id,omitempty"`
	Name        string       `json:"name"`
	StartUnixNs int64        `json:"start_unix_ns"`
	DurationNs  int64        `json:"duration_ns"`
	Annotations []Annotation `json:"annotations,omitempty"`
	// Remote marks a span whose parent lives in another process (it was
	// joined from an X-Privedit-Trace header).
	Remote bool `json:"remote,omitempty"`
}

// Trace is one completed span tree.
type Trace struct {
	TraceID string `json:"trace_id"`
	// Root is the name of the root span.
	Root string `json:"root"`
	// Doc is the document the trace touched, when annotated (key "doc").
	Doc         string     `json:"doc,omitempty"`
	StartUnixNs int64      `json:"start_unix_ns"`
	DurationNs  int64      `json:"duration_ns"`
	Spans       []SpanData `json:"spans"`
}

// HasAnnotation reports whether any span in the trace carries an
// annotation with the given key.
func (t Trace) HasAnnotation(key string) bool {
	for i := range t.Spans {
		for _, a := range t.Spans[i].Annotations {
			if a.Key == key {
				return true
			}
		}
	}
	return false
}

// slowCfg bundles the slow-span threshold with its log function so both
// are swapped atomically.
type slowCfg struct {
	threshold time.Duration
	logf      func(format string, args ...any)
}

// Tracer owns trace assembly and sink delivery. The zero value is not
// usable; construct with NewTracer. Default starts disabled, matching
// obs.Default.
type Tracer struct {
	enabled atomic.Bool
	slow    atomic.Pointer[slowCfg]

	mu     sync.Mutex
	active map[string]*activeTrace

	sinkMu   sync.RWMutex
	sinks    map[int]func(Trace)
	nextSink int
}

// NewTracer returns an enabled tracer with no sinks.
func NewTracer() *Tracer {
	t := &Tracer{
		active: make(map[string]*activeTrace),
		sinks:  make(map[int]func(Trace)),
	}
	t.enabled.Store(true)
	liveTracers.Add(1)
	return t
}

// Default is the process-wide tracer. Like obs.Default it starts
// disabled: until Enable is called every trace.Start site is a
// nanosecond-scale no-op.
var Default = func() *Tracer {
	t := NewTracer()
	t.SetEnabled(false)
	return t
}()

// liveTracers counts enabled tracers process-wide. Package-level Start
// checks it first so the common disabled case is one atomic load with no
// context lookup at all.
var liveTracers atomic.Int32

// Enable turns on the Default tracer.
func Enable() { Default.SetEnabled(true) }

// SetEnabled flips span collection. Traces already in flight finish
// normally; only new roots are gated.
func (t *Tracer) SetEnabled(on bool) {
	if t == nil {
		return
	}
	if t.enabled.CompareAndSwap(!on, on) {
		if on {
			liveTracers.Add(1)
		} else {
			liveTracers.Add(-1)
		}
	}
}

// Enabled reports whether new root spans are being collected.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetSlowSpan configures slow-span logging: any span whose duration
// reaches threshold is counted and reported through logf (log.Printf
// compatible). threshold <= 0 or nil logf disables it.
func (t *Tracer) SetSlowSpan(threshold time.Duration, logf func(format string, args ...any)) {
	if t == nil {
		return
	}
	if threshold <= 0 || logf == nil {
		t.slow.Store(nil)
		return
	}
	t.slow.Store(&slowCfg{threshold: threshold, logf: logf})
}

// AddSink registers fn to receive every completed trace and returns a
// function that removes it. Sinks run synchronously on the goroutine that
// ends the final span, so they must be fast and must not block.
func (t *Tracer) AddSink(fn func(Trace)) (remove func()) {
	if t == nil || fn == nil {
		return func() {}
	}
	t.sinkMu.Lock()
	id := t.nextSink
	t.nextSink++
	t.sinks[id] = fn
	t.sinkMu.Unlock()
	return func() {
		t.sinkMu.Lock()
		delete(t.sinks, id)
		t.sinkMu.Unlock()
	}
}

// ------------------------------------------------------------ identifiers

// ID generation needs uniqueness, not unpredictability, so it avoids both
// math/rand (banned outside tests by the nonce-source lint rule) and
// crypto/rand (confined to internal/crypt): a process-unique seed mixed
// through SplitMix64 per draw.
var (
	idCounter atomic.Uint64
	idSeed    = uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
)

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newID returns a non-zero 64-bit identifier formatted as 16 hex digits.
func newID() string {
	for {
		v := mix64(idSeed + idCounter.Add(1))
		if v != 0 {
			return formatID(v)
		}
	}
}

func formatID(v uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// ------------------------------------------------------------ activeTrace

// activeTrace accumulates the spans of one in-flight trace. It finalizes
// — delivers a Trace to the sinks and leaves the tracer's active table —
// when the root span has ended and no other span remains open, which
// tolerates server-side spans that end slightly after the client root.
type activeTrace struct {
	tracer  *Tracer
	traceID string

	mu        sync.Mutex
	spans     []SpanData
	open      int
	rootDone  bool
	finalized bool
	doc       string
	root      SpanData
}

// enter registers one more open span. It reports false when the trace
// already finalized (a late joiner must start a fresh trace instead).
func (at *activeTrace) enter() bool {
	at.mu.Lock()
	defer at.mu.Unlock()
	if at.finalized {
		return false
	}
	at.open++
	return true
}

// finish records one completed span and finalizes the trace when it was
// the last open span of a finished root.
func (at *activeTrace) finish(data SpanData, isRoot bool) {
	at.mu.Lock()
	at.spans = append(at.spans, data)
	at.open--
	if isRoot {
		at.rootDone = true
		at.root = data
	}
	fin := at.rootDone && at.open <= 0 && !at.finalized
	if fin {
		at.finalized = true
	}
	at.mu.Unlock()
	if fin {
		at.tracer.finalize(at)
	}
}

// annotateDoc records the first "doc" annotation as the trace's document.
func (at *activeTrace) annotateDoc(doc string) {
	at.mu.Lock()
	if at.doc == "" {
		at.doc = doc
	}
	at.mu.Unlock()
}

func (t *Tracer) lookup(traceID string) *activeTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active[traceID]
}

// finalize assembles the Trace and fans it out to sinks. Called exactly
// once per activeTrace, off the trace's own lock.
func (t *Tracer) finalize(at *activeTrace) {
	t.mu.Lock()
	if t.active[at.traceID] == at {
		delete(t.active, at.traceID)
	}
	t.mu.Unlock()

	at.mu.Lock()
	spans := at.spans
	sort.SliceStable(spans, func(i, j int) bool {
		return spans[i].StartUnixNs < spans[j].StartUnixNs
	})
	tr := Trace{
		TraceID:     at.traceID,
		Root:        at.root.Name,
		Doc:         at.doc,
		StartUnixNs: at.root.StartUnixNs,
		DurationNs:  at.root.DurationNs,
		Spans:       spans,
	}
	at.mu.Unlock()

	metricTraces.Inc()
	metricSpans.Add(int64(len(tr.Spans)))

	t.sinkMu.RLock()
	for _, fn := range t.sinks {
		fn(tr)
	}
	t.sinkMu.RUnlock()
}

// ------------------------------------------------------------------- Span

// Span is one in-flight timed operation. A nil *Span is valid and every
// method on it is a no-op — that is the disabled fast path. A Span is not
// safe for concurrent use; start a child span per goroutine instead.
type Span struct {
	at          *activeTrace
	name        string
	id          string
	parent      string
	remote      bool
	isRoot      bool
	start       time.Time
	startUnixNs int64
	annotations []Annotation
	ended       bool
}

type ctxKey struct{}

// fromContext returns the span carried by ctx, or nil.
func fromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Current returns the span carried by ctx, or nil. The nil result is safe
// to call methods on, so call sites need no guard.
func Current(ctx context.Context) *Span {
	if liveTracers.Load() == 0 {
		return nil
	}
	return fromContext(ctx)
}

// TraceID returns the trace ID of the span carried by ctx, or "".
func TraceID(ctx context.Context) string {
	sp := Current(ctx)
	if sp == nil {
		return ""
	}
	return sp.at.traceID
}

// HeaderValue returns the "traceID-spanID" wire value for the span
// carried by ctx, or "" when there is none.
func HeaderValue(ctx context.Context) string {
	sp := Current(ctx)
	if sp == nil {
		return ""
	}
	return sp.at.traceID + "-" + sp.id
}

// Start begins a span named name. If ctx already carries a span the new
// span becomes its child on the same trace; otherwise a new root trace is
// started on the Default tracer (a no-op returning (ctx, nil) when
// disabled). The returned context carries the new span; pass it to
// everything the operation calls. End the span exactly once.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if liveTracers.Load() == 0 {
		return ctx, nil
	}
	if parent := fromContext(ctx); parent != nil {
		return startIn(ctx, parent.at, name, parent.id, false)
	}
	return Default.Root(ctx, name)
}

// Root unconditionally begins a new trace rooted at a span named name,
// ignoring any span already in ctx. Returns (ctx, nil) when the tracer is
// nil or disabled.
func (t *Tracer) Root(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	return t.rootWithID(ctx, newID(), name, "", false)
}

// rootWithID starts a new activeTrace under traceID whose root span has
// the given (possibly remote) parent.
func (t *Tracer) rootWithID(ctx context.Context, traceID, name, parent string, remote bool) (context.Context, *Span) {
	at := &activeTrace{tracer: t, traceID: traceID, open: 1}
	t.mu.Lock()
	if exist, ok := t.active[traceID]; ok {
		// Concurrent join of the same remote trace: reuse it.
		t.mu.Unlock()
		if exist.enter() {
			return newSpan(ctx, exist, name, parent, remote, false)
		}
		// It finalized under us; fall through with a fresh table entry.
		t.mu.Lock()
	}
	t.active[traceID] = at
	t.mu.Unlock()
	return newSpan(ctx, at, name, parent, remote, true)
}

// startIn begins a child span inside an existing active trace, falling
// back to a fresh root if the trace finalized concurrently.
func startIn(ctx context.Context, at *activeTrace, name, parent string, remote bool) (context.Context, *Span) {
	if !at.enter() {
		return at.tracer.Root(ctx, name)
	}
	return newSpan(ctx, at, name, parent, remote, false)
}

// newSpan allocates the span after enter() was already called.
func newSpan(ctx context.Context, at *activeTrace, name, parent string, remote, isRoot bool) (context.Context, *Span) {
	now := time.Now()
	sp := &Span{
		at:          at,
		name:        name,
		id:          newID(),
		parent:      parent,
		remote:      remote,
		isRoot:      isRoot,
		start:       now,
		startUnixNs: now.UnixNano(),
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Annotate attaches a typed key/value event to the span at the current
// offset. The key "doc" additionally tags the whole trace with the
// document ID for /debug/traces filtering. No-op on nil.
func (sp *Span) Annotate(key, value string) {
	if sp == nil || sp.ended {
		return
	}
	sp.annotations = append(sp.annotations, Annotation{
		OffsetNs: time.Since(sp.start).Nanoseconds(),
		Key:      key,
		Value:    value,
	})
	if key == "doc" {
		sp.at.annotateDoc(value)
	}
}

// AnnotateInt is Annotate for integer values.
func (sp *Span) AnnotateInt(key string, value int64) {
	if sp == nil {
		return
	}
	sp.Annotate(key, strconv.FormatInt(value, 10))
}

// TraceID returns the span's trace ID, or "" on nil.
func (sp *Span) TraceID() string {
	if sp == nil {
		return ""
	}
	return sp.at.traceID
}

// End completes the span, delivering it to the trace. The second and
// later calls, and calls on nil, are no-ops.
func (sp *Span) End() {
	if sp == nil || sp.ended {
		return
	}
	sp.ended = true
	dur := time.Since(sp.start)
	data := SpanData{
		SpanID:      sp.id,
		ParentID:    sp.parent,
		Name:        sp.name,
		StartUnixNs: sp.startUnixNs,
		DurationNs:  dur.Nanoseconds(),
		Annotations: sp.annotations,
		Remote:      sp.remote,
	}
	if cfg := sp.at.tracer.slow.Load(); cfg != nil && dur >= cfg.threshold {
		metricSlowSpans.Inc()
		cfg.logf("trace: slow span %s %.1fms trace=%s span=%s",
			sp.name, float64(dur)/1e6, sp.at.traceID, sp.id)
	}
	sp.at.finish(data, sp.isRoot)
}

// --------------------------------------------------------------- Collector

// Collector is a sink that accumulates completed traces in memory, for
// tests and editbench's ledger. Safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	traces []Trace
}

// Collect appends tr; pass method value Collector.Collect to AddSink.
func (c *Collector) Collect(tr Trace) {
	c.mu.Lock()
	c.traces = append(c.traces, tr)
	c.mu.Unlock()
}

// Snapshot returns a copy of the collected traces.
func (c *Collector) Snapshot() []Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Trace(nil), c.traces...)
}

// Len returns the number of collected traces.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.traces)
}
