package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"

	"privedit/internal/mediator"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

// window is one measured interval of a workload: what the load generators
// saw, plus every layer's counters over the same interval.
type window struct {
	start   time.Time
	span    time.Duration // the configured length
	elapsed time.Duration // how long run took, final flush included
	samples []sample      // per successful op
	late    []float64     // per op, open loop only: start minus due time, ms
	ops     int
	failed  int
	plain   float64 // plaintext bytes the ops carried
	wire    float64 // bytes below the mediator charged to those ops

	rec      *recorder
	obs      map[string]float64 // obs counter deltas
	ext      mediator.Stats     // summed extension counter deltas
	rt       runtimeUse
	peakHeap float64   // MiB
	spans    spanIndex // the program's own spans, traced windows only

	// Workload-specific layer samples (ms): queue wait (typing) and the
	// timed public crypto calls (open).
	queueWait []float64
	kdf       []float64
	decode    []float64
	coreOpen  []float64
}

// sample is one op's two user-facing latencies.
type sample struct {
	at      time.Duration // op start (its due time in the open loop) after window start
	local   float64       // until the editor showed the result, ms
	durable float64       // until the server confirmed it, ms
}

func (w *window) add(begin time.Time, local, durable time.Duration) {
	w.samples = append(w.samples, sample{at: begin.Sub(w.start), local: ms(local), durable: ms(durable)})
}

// latencies returns each sample's local (or durable) ack latency.
func latencies(ss []sample, durable bool) []float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = s.local
		if durable {
			xs[i] = s.durable
		}
	}
	return xs
}

// subWindows is how many equal parts of a window the end-to-end numbers
// are taken over. A shared machine slows down in stretches; the best part
// is the number least disturbed by whatever else runs there, while a slower
// program is slower in every part.
const subWindows = 5

// parts splits the window's samples by op start into subWindows parts.
func (w *window) parts() [][]sample {
	parts := make([][]sample, subWindows)
	for _, s := range w.samples {
		i := min(max(int(s.at*subWindows/max(w.span, 1)), 0), subWindows-1)
		parts[i] = append(parts[i], s)
	}
	return parts
}

// quantile is the best (lowest), over the window's parts, of each part's
// q-quantile of local (or durable) ack latency.
func (w *window) quantile(durable bool, q float64) float64 {
	best := math.Inf(1)
	for _, p := range w.parts() {
		if v, ok := pct(latencies(p, durable), q); ok {
			best = min(best, v)
		}
	}
	return finite(best)
}

// opsPerSecond is the best, over the window's parts, of the part's
// successful ops per second, from its first op's start to its last op's
// local ack.
func (w *window) opsPerSecond() float64 {
	best := 0.0
	for _, p := range w.parts() {
		if len(p) < 2 {
			continue
		}
		first, last := p[0].at, p[0].at
		for _, s := range p {
			first = min(first, s.at)
			last = max(last, s.at+time.Duration(s.local*float64(time.Millisecond)))
		}
		best = max(best, float64(len(p))/(last-first).Seconds())
	}
	return best
}

// measure runs one window of wl on st. With traced set, the program's own
// spans are collected for the window.
func measure(st *stack, wl workload, d time.Duration, traced bool) *window {
	w := &window{rec: newRecorder(), span: d}
	st.rec.Store(w.rec)
	obs0, ext0, rt0 := readObs(), wl.stats(), readRuntime()
	var col trace.Collector
	if traced {
		remove := trace.Default.AddSink(col.Collect)
		defer remove()
		trace.Default.SetEnabled(true)
	}
	stopHeap := sampleHeap(d)
	w.start = time.Now()
	wl.run(st, w, d)
	w.elapsed = time.Since(w.start)
	w.peakHeap = stopHeap()
	w.rt = runtimeSince(rt0, readRuntime())
	if traced {
		trace.Default.SetEnabled(false)
		w.spans = indexSpans(col.Snapshot())
	}
	w.obs = obsSince(obs0)
	w.ext = statsSince(wl.stats(), ext0)
	st.rec.Store(newRecorder())
	return w
}

// obsCounters are the program's own counters the ledger reads.
var obsCounters = []string{
	"privedit_server_cache_hits_total",
	"privedit_server_cache_misses_total",
	"privedit_server_cache_evictions_total",
	"privedit_store_puts_total",
	"privedit_store_wal_fsyncs_total",
	"privedit_store_checkpoints_total",
	"privedit_skiplist_finger_hits_total",
	"privedit_skiplist_finger_misses_total",
	"privedit_block_splits_total",
}

func readObs() map[string]float64 {
	m := make(map[string]float64, len(obsCounters))
	for _, name := range obsCounters {
		m[name] = obs.Default.Sum(name)
	}
	return m
}

func obsSince(before map[string]float64) map[string]float64 {
	now := readObs()
	for name := range now {
		now[name] -= before[name]
	}
	return now
}

func statsSince(a, b mediator.Stats) mediator.Stats {
	return mediator.Stats{
		QueuedSaves:     a.QueuedSaves - b.QueuedSaves,
		QueueCoalesced:  a.QueueCoalesced - b.QueueCoalesced,
		OTMerges:        a.OTMerges - b.OTMerges,
		ConflictResyncs: a.ConflictResyncs - b.ConflictResyncs,
	}
}

func addStats(a, b mediator.Stats) mediator.Stats {
	return mediator.Stats{
		QueuedSaves:     a.QueuedSaves + b.QueuedSaves,
		QueueCoalesced:  a.QueueCoalesced + b.QueueCoalesced,
		OTMerges:        a.OTMerges + b.OTMerges,
		ConflictResyncs: a.ConflictResyncs + b.ConflictResyncs,
	}
}

// runtimeNames are the runtime/metrics the ledger uses to separate
// waiting from work.
var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
	"/sched/pauses/total/gc:seconds",
}

type runtimeSnap struct {
	allocs    uint64
	mutexWait float64
	sched     histSnap
	gcPause   histSnap
}

type histSnap struct {
	counts  []uint64
	buckets []float64
}

func readRuntime() runtimeSnap {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		s[i].Name = name
	}
	metrics.Read(s)
	var r runtimeSnap
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.mutexWait = s[1].Value.Float64()
	}
	r.sched = copyHist(s[2].Value)
	r.gcPause = copyHist(s[3].Value)
	return r
}

func copyHist(v metrics.Value) histSnap {
	if v.Kind() != metrics.KindFloat64Histogram {
		return histSnap{}
	}
	h := v.Float64Histogram()
	return histSnap{counts: append([]uint64(nil), h.Counts...), buckets: append([]float64(nil), h.Buckets...)}
}

// runtimeUse is the runtime's waiting and allocation over one window.
type runtimeUse struct {
	allocBytes  float64
	mutexWaitMs float64
	gcPauseMs   float64
	schedP99Us  float64
}

func runtimeSince(a, b runtimeSnap) runtimeUse {
	sched := histMinus(b.sched, a.sched)
	return runtimeUse{
		allocBytes:  float64(b.allocs - a.allocs),
		mutexWaitMs: (b.mutexWait - a.mutexWait) * 1e3,
		gcPauseMs:   histSum(histMinus(b.gcPause, a.gcPause)) * 1e3,
		schedP99Us:  histQuantile(sched, 0.99) * 1e6,
	}
}

func histMinus(b, a histSnap) histSnap {
	out := histSnap{counts: make([]uint64, len(b.counts)), buckets: b.buckets}
	for i := range b.counts {
		out.counts[i] = b.counts[i]
		if i < len(a.counts) {
			out.counts[i] -= a.counts[i]
		}
	}
	return out
}

// histQuantile returns the upper bound of the bucket holding quantile q
// (its lower bound for the open-ended last bucket).
func histQuantile(h histSnap, q float64) float64 {
	var total uint64
	for _, c := range h.counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if hi := h.buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.buckets[i]
		}
	}
	return 0
}

// histSum estimates a histogram's total from bucket midpoints.
func histSum(h histSnap) float64 {
	var sum float64
	for i, c := range h.counts {
		lo, hi := h.buckets[i], h.buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			lo = hi
		case math.IsInf(hi, 1):
			hi = lo
		}
		sum += float64(c) * (lo + hi) / 2
	}
	return sum
}

// sampleHeap samples the live heap (as of each GC) every 10ms until
// stopped, and returns the median over subWindows equal parts of the span
// of each part's peak, in MiB.
func sampleHeap(span time.Duration) (stop func() (peakMiB float64)) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	peaks := make([]float64, subWindows)
	start := time.Now()
	read := func() {
		metrics.Read(s)
		if s[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		i := min(int(time.Since(start)*subWindows/max(span, 1)), subWindows-1)
		peaks[i] = max(peaks[i], float64(s[0].Value.Uint64())/(1<<20))
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		return median(peaks)
	}
}

// spanIndex is the collected spans of a traced window, by name.
type spanIndex struct {
	ms            map[string][]float64
	clientResyncs int
	drains        map[string][]drain // per document, saved writer drains by start
}

type drain struct{ start, end time.Time }

func indexSpans(traces []trace.Trace) spanIndex {
	ix := spanIndex{ms: map[string][]float64{}, drains: map[string][]drain{}}
	for _, tr := range traces {
		names := make(map[string]string, len(tr.Spans))
		for _, sp := range tr.Spans {
			names[sp.SpanID] = sp.Name
		}
		for _, sp := range tr.Spans {
			ix.ms[sp.Name] = append(ix.ms[sp.Name], float64(sp.DurationNs)/1e6)
			// The client's resync is the only one counted here; the
			// mediator's repairs are counted by Extension.Stats.
			if sp.Name == trace.SpanResync && names[sp.ParentID] == trace.SpanClientSync {
				ix.clientResyncs++
			}
			if sp.Name == trace.SpanWriterDrain && annotated(sp, "outcome", "saved") {
				start := time.Unix(0, sp.StartUnixNs)
				ix.drains[tr.Doc] = append(ix.drains[tr.Doc], drain{start, start.Add(time.Duration(sp.DurationNs))})
			}
		}
	}
	for _, ds := range ix.drains {
		sort.Slice(ds, func(i, j int) bool { return ds[i].start.Before(ds[j].start) })
	}
	return ix
}

func annotated(sp trace.SpanData, key, value string) bool {
	for _, a := range sp.Annotations {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}

// drainAt returns the saved writer drain of doc in flight at t, the one
// whose 2xx response arrived at t.
func (ix spanIndex) drainAt(doc string, t time.Time) (drain, bool) {
	ds := ix.drains[doc]
	i := sort.Search(len(ds), func(i int) bool { return ds[i].start.After(t) }) - 1
	if i < 0 || ds[i].end.Before(t) {
		return drain{}, false
	}
	return ds[i], true
}

// pct is the nearest-rank q-quantile of xs; ok is false without samples.
func pct(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k], true
}

func median(xs []float64) float64 {
	v, _ := pct(xs, 0.5)
	return v
}

// ratio is a/b; ok is false when b is zero.
func ratio(a, b float64) (float64, bool) {
	if b == 0 {
		return 0, false
	}
	return a / b, true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
