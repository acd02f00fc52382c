package trace

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"
)

// withDefault enables the Default tracer with a fresh collector sink for
// the duration of the test, restoring the disabled state afterwards.
func withDefault(t *testing.T) *Collector {
	t.Helper()
	col := &Collector{}
	remove := Default.AddSink(col.Collect)
	Default.SetEnabled(true)
	t.Cleanup(func() {
		Default.SetEnabled(false)
		remove()
	})
	return col
}

// waitTraces polls until the collector holds at least n traces; server
// spans may end slightly after the client side observes the response.
func waitTraces(t *testing.T, col *Collector, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for col.Len() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d traces, have %d", n, col.Len())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDisabledFastPath(t *testing.T) {
	if Default.Enabled() {
		t.Fatal("Default tracer should start disabled")
	}
	ctx, sp := Start(context.Background(), SpanEditOp)
	if sp != nil {
		t.Fatalf("Start on disabled tracer returned %v, want nil", sp)
	}
	if Current(ctx) != nil || TraceID(ctx) != "" || HeaderValue(ctx) != "" {
		t.Fatal("disabled context should carry no span")
	}
	// All methods must be no-ops on the nil span.
	sp.Annotate("k", "v")
	sp.AnnotateInt("n", 1)
	sp.End()
	if got := sp.TraceID(); got != "" {
		t.Fatalf("nil span TraceID = %q", got)
	}
}

func TestRootChildFinalization(t *testing.T) {
	col := withDefault(t)

	ctx, root := Start(context.Background(), SpanEditOp)
	if root == nil {
		t.Fatal("Start returned nil span while enabled")
	}
	root.Annotate("doc", "doc-1")

	cctx, child := Start(ctx, SpanTransform)
	child.AnnotateInt("ops", 3)
	if TraceID(cctx) != root.TraceID() {
		t.Fatal("child has a different trace ID")
	}

	// Root ends first; the trace must not finalize until the child does.
	root.End()
	if col.Len() != 0 {
		t.Fatal("trace finalized with an open child span")
	}
	child.End()
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}

	tr := col.Snapshot()[0]
	if tr.TraceID != root.TraceID() || tr.Root != SpanEditOp || tr.Doc != "doc-1" {
		t.Fatalf("bad trace header: %+v", tr)
	}
	if len(tr.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(tr.Spans))
	}
	// Sorted by start time: root first.
	if tr.Spans[0].Name != SpanEditOp || tr.Spans[1].Name != SpanTransform {
		t.Fatalf("span order: %s, %s", tr.Spans[0].Name, tr.Spans[1].Name)
	}
	if tr.Spans[1].ParentID != tr.Spans[0].SpanID {
		t.Fatal("child parent_id does not reference the root span")
	}
	if !tr.HasAnnotation("ops") || !tr.HasAnnotation("doc") {
		t.Fatal("annotations lost")
	}
	if tr.HasAnnotation("missing") {
		t.Fatal("HasAnnotation invented a key")
	}
	if tr.DurationNs <= 0 || tr.StartUnixNs == 0 {
		t.Fatalf("bad timing: %+v", tr)
	}
	for _, a := range tr.Spans[1].Annotations {
		if a.Key == "ops" && a.Value != "3" {
			t.Fatalf("AnnotateInt stored %q", a.Value)
		}
	}
}

func TestDoubleEndAndLateAnnotate(t *testing.T) {
	col := withDefault(t)
	_, root := Start(context.Background(), SpanEditOp)
	root.End()
	root.End() // second End must be a no-op
	root.Annotate("late", "x")
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	if col.Snapshot()[0].HasAnnotation("late") {
		t.Fatal("annotation after End was recorded")
	}
}

func TestTracerRootIgnoresParent(t *testing.T) {
	col := withDefault(t)
	ctx, a := Start(context.Background(), SpanEditOp)
	_, b := Default.Root(ctx, SpanServerRequest)
	if a.TraceID() == b.TraceID() {
		t.Fatal("Root reused the parent's trace")
	}
	b.End()
	a.End()
	if col.Len() != 2 {
		t.Fatalf("collector has %d traces, want 2", col.Len())
	}
}

func TestSinkRemoval(t *testing.T) {
	withDefault(t)
	col := &Collector{}
	remove := Default.AddSink(col.Collect)
	remove()
	remove() // idempotent
	_, sp := Start(context.Background(), SpanEditOp)
	sp.End()
	if col.Len() != 0 {
		t.Fatal("removed sink still received a trace")
	}
	if r := Default.AddSink(nil); r == nil {
		t.Fatal("AddSink(nil) returned nil remover")
	}
}

func TestSlowSpanLog(t *testing.T) {
	withDefault(t)
	var logged []string
	Default.SetSlowSpan(time.Nanosecond, func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	})
	t.Cleanup(func() { Default.SetSlowSpan(0, nil) })

	_, sp := Start(context.Background(), SpanEncrypt)
	time.Sleep(time.Millisecond)
	sp.End()
	if len(logged) == 0 {
		t.Fatal("no slow-span log emitted")
	}
	if !strings.Contains(logged[0], SpanEncrypt) || !strings.Contains(logged[0], "trace=") {
		t.Fatalf("slow-span log %q missing span name or trace ID", logged[0])
	}

	// Disabling stops the logging.
	Default.SetSlowSpan(0, nil)
	logged = nil
	_, sp = Start(context.Background(), SpanEncrypt)
	sp.End()
	if len(logged) != 0 {
		t.Fatal("slow-span log emitted after disable")
	}
}

func TestSetEnabledIdempotent(t *testing.T) {
	before := liveTracers.Load()
	tr := NewTracer()
	if liveTracers.Load() != before+1 {
		t.Fatal("NewTracer did not register as live")
	}
	tr.SetEnabled(true) // already enabled: no double count
	if liveTracers.Load() != before+1 {
		t.Fatal("SetEnabled(true) double-counted")
	}
	tr.SetEnabled(false)
	tr.SetEnabled(false)
	if liveTracers.Load() != before {
		t.Fatal("SetEnabled(false) miscounted")
	}
	if tr.Enabled() {
		t.Fatal("tracer still enabled")
	}
	var nilT *Tracer
	nilT.SetEnabled(true) // must not panic
	nilT.SetSlowSpan(time.Second, nil)
	if nilT.Enabled() {
		t.Fatal("nil tracer enabled")
	}
	if _, sp := nilT.Root(context.Background(), "x"); sp != nil {
		t.Fatal("nil tracer produced a span")
	}
}

func TestIDFormat(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := newID()
		if len(id) != 16 || !validID(id) {
			t.Fatalf("bad ID %q", id)
		}
		if seen[id] {
			t.Fatalf("duplicate ID %q", id)
		}
		seen[id] = true
	}
	if formatID(0) != "0000000000000000" {
		t.Fatalf("formatID(0) = %q", formatID(0))
	}
}

func TestConcurrentSpans(t *testing.T) {
	col := withDefault(t)
	ctx, root := Start(context.Background(), SpanEditOp)
	const n = 16
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer func() { done <- struct{}{} }()
			_, sp := Start(ctx, SpanSave)
			sp.AnnotateInt("attempt", int64(i))
			sp.End()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	root.End()
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	if got := len(col.Snapshot()[0].Spans); got != n+1 {
		t.Fatalf("trace has %d spans, want %d", got, n+1)
	}
}

func BenchmarkTraceDisabled(b *testing.B) {
	if Default.Enabled() {
		b.Fatal("Default must be disabled for this benchmark")
	}
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, sp := Start(ctx, SpanTransform)
		sp.Annotate("k", "v")
		sp.End()
		_ = c
	}
}

func BenchmarkTraceEnabled(b *testing.B) {
	tr := NewTracer()
	defer tr.SetEnabled(false)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, root := tr.Root(ctx, SpanEditOp)
		_, sp := Start(c, SpanTransform)
		sp.End()
		root.End()
	}
}
