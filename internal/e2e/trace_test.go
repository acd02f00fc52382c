// Trace propagation end to end: one edit operation produces a single span
// tree that crosses the wire — client spans, mediator phase spans, and
// server-side spans joined under the same trace ID — and keeps that shape
// when the writer has to re-send a save after an injected fault.
package e2e

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/trace"
)

// failNext injects one synthetic HTTP 500 below the mediator (the request
// never reaches the server) the next time it is armed, then passes
// everything through. Deterministic: the guarded save's first send faults,
// the writer's re-send is clean.
type failNext struct {
	base http.RoundTripper
	mu   sync.Mutex
	arm  bool
}

func (f *failNext) Arm() {
	f.mu.Lock()
	f.arm = true
	f.mu.Unlock()
}

func (f *failNext) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	fire := f.arm
	f.arm = false
	f.mu.Unlock()
	if fire {
		return &http.Response{
			Status:     "500 injected",
			StatusCode: http.StatusInternalServerError,
			Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
			Body:    http.NoBody,
			Header:  make(http.Header),
			Request: req,
		}, nil
	}
	return f.base.RoundTrip(req)
}

// waitForTrace polls the collector until a trace satisfying pred arrives.
// Traces finalize a beat after the client observes the response (the
// server half of the tree is still closing), hence the poll.
func waitForTrace(t *testing.T, col *trace.Collector, pred func(trace.Trace) bool) trace.Trace {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, tr := range col.Snapshot() {
			if pred(tr) {
				return tr
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("trace never finalized")
	return trace.Trace{}
}

// TestTracePropagationAcrossRetry drives a full client → mediator →
// HTTP → server edit with tracing on and verifies the resulting span tree:
//
//   - the mediator writer's drain span roots the trace of the save's
//     server round trip (the client's own save span acks locally);
//   - server-side spans (request middleware + store operation) appear in
//     the SAME trace, marked remote, joined via the X-Privedit-Trace
//     header over real HTTP;
//   - when the first send of a save hits an injected 500, that send's
//     trace holds no server spans; the writer's re-send is a trace of its
//     own, annotated retry=1, and the clean send's server spans join it.
func TestTracePropagationAcrossRetry(t *testing.T) {
	prev := trace.Default.Enabled()
	trace.Default.SetEnabled(true)
	defer trace.Default.SetEnabled(prev)
	col := &trace.Collector{}
	defer trace.Default.AddSink(col.Collect)()

	server := gdocs.NewServer()
	ts := httptest.NewServer(trace.Middleware(server))
	defer ts.Close()

	failer := &failNext{base: ts.Client().Transport}
	ext := mediator.New(failer, mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 50)))
	client := gdocs.NewClient(ext.Client(), ts.URL, "traced-doc")

	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	client.SetText("trace me end to end")
	if err := client.Save(); err != nil {
		t.Fatalf("clean save: %v", err)
	}

	// A clean save's trace already spans both processes.
	clean := waitForTrace(t, col, func(tr trace.Trace) bool {
		return tr.Root == trace.SpanWriterDrain && tr.Doc == "traced-doc" && spanCount(tr, trace.SpanServerRequest) > 0
	})
	if n := spanCount(clean, trace.SpanServerStore); n == 0 {
		t.Error("clean save trace has no server store span")
	}
	for _, sp := range clean.Spans {
		if sp.Name == trace.SpanServerRequest && !sp.Remote {
			t.Error("server request span not marked remote")
		}
	}
	if clean.HasAnnotation("retry") {
		t.Fatalf("clean save unexpectedly retried: %+v", clean)
	}

	// Now the guarded save: its first send eats an injected 500 below the
	// mediator, the writer's re-send goes through.
	if err := client.Insert(0, "please "); err != nil {
		t.Fatal(err)
	}
	failer.Arm()
	if err := client.Save(); err != nil {
		t.Fatalf("retried save: %v", err)
	}

	failed := waitForTrace(t, col, func(tr trace.Trace) bool {
		return tr.Root == trace.SpanWriterDrain && tr.Doc == "traced-doc" && rootAnnotation(tr, "outcome") == "infra_failure"
	})
	if n := spanCount(failed, trace.SpanServerRequest); n != 0 {
		t.Errorf("failed send's trace has %d server request spans, want 0", n)
	}
	retried := waitForTrace(t, col, func(tr trace.Trace) bool {
		return tr.Root == trace.SpanWriterDrain && tr.Doc == "traced-doc" && tr.HasAnnotation("retry")
	})
	if retried.TraceID == clean.TraceID || retried.TraceID == failed.TraceID {
		t.Fatal("re-sent save reused an earlier trace ID")
	}
	if got := rootAnnotation(retried, "retry"); got != "1" {
		t.Errorf("re-send annotated retry=%q, want 1", got)
	}
	if got := rootAnnotation(retried, "outcome"); got != "saved" {
		t.Errorf("re-send outcome %q, want saved", got)
	}
	// The re-send reached the server, and its server spans joined its
	// trace over the wire.
	if n := spanCount(retried, trace.SpanServerRequest); n != 1 {
		t.Errorf("retried trace has %d server request spans, want 1", n)
	}
	if n := spanCount(retried, trace.SpanServerStore); n != 1 {
		t.Errorf("retried trace has %d server store spans, want 1", n)
	}
	if n := spanCount(retried, trace.SpanSave); n == 0 {
		t.Error("retried trace lost its mediator save phase span")
	}
	// Every span in the finalized trace carries a span ID and the server
	// spans nest under client-side parents present in the same tree.
	ids := make(map[string]bool, len(retried.Spans))
	for _, sp := range retried.Spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range retried.Spans {
		if sp.ParentID != "" && !ids[sp.ParentID] {
			t.Errorf("span %s (%s) has dangling parent %s", sp.SpanID, sp.Name, sp.ParentID)
		}
	}
}

func spanCount(tr trace.Trace, name string) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Name == name {
			n++
		}
	}
	return n
}

// rootAnnotation returns the value of key on the trace's root span.
func rootAnnotation(tr trace.Trace, key string) string {
	for _, sp := range tr.Spans {
		if sp.Name != tr.Root || sp.ParentID != "" {
			continue
		}
		for _, a := range sp.Annotations {
			if a.Key == key {
				return a.Value
			}
		}
	}
	return ""
}
