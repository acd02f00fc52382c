package trace

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func mkTrace(id, doc, root string, durNs int64) Trace {
	return Trace{
		TraceID:     id,
		Root:        root,
		Doc:         doc,
		StartUnixNs: 1,
		DurationNs:  durNs,
		Spans:       []SpanData{{SpanID: "01", Name: root, DurationNs: durNs}},
	}
}

func TestFlightRecorderRing(t *testing.T) {
	fr := NewFlightRecorder(3)
	for i, id := range []string{"aa", "bb", "cc", "dd", "ee"} {
		fr.Record(mkTrace(id, "d", SpanEditOp, int64(i+1)))
	}
	if fr.Total() != 5 {
		t.Fatalf("Total = %d, want 5", fr.Total())
	}
	snap := fr.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot kept %d traces, want 3", len(snap))
	}
	// Oldest first, oldest two overwritten.
	if snap[0].TraceID != "cc" || snap[2].TraceID != "ee" {
		t.Fatalf("ring order: %s..%s", snap[0].TraceID, snap[2].TraceID)
	}

	// Default capacity path.
	if got := len(NewFlightRecorder(0).buf); got != 256 {
		t.Fatalf("default capacity %d, want 256", got)
	}
}

func decodePage(t *testing.T, rec *httptest.ResponseRecorder) recorderPage {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var page recorderPage
	if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	return page
}

func TestRecorderHandlerFilters(t *testing.T) {
	fr := NewFlightRecorder(16)
	fr.Record(mkTrace("aa", "doc-1", SpanEditOp, 1e6))  // 1ms
	fr.Record(mkTrace("bb", "doc-2", SpanEditOp, 5e6))  // 5ms
	fr.Record(mkTrace("cc", "doc-1", SpanEditOp, 20e6)) // 20ms
	fr.Record(mkTrace("dd", "doc-1", SpanServerRequest, 1e3))
	h := fr.Handler()

	get := func(query string) recorderPage {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces"+query, nil))
		return decodePage(t, rec)
	}

	all := get("")
	if all.Total != 4 || all.Count != 4 {
		t.Fatalf("unfiltered: total=%d count=%d", all.Total, all.Count)
	}
	// Newest first.
	if all.Traces[0].TraceID != "dd" || all.Traces[3].TraceID != "aa" {
		t.Fatalf("order: %s..%s", all.Traces[0].TraceID, all.Traces[3].TraceID)
	}

	if p := get("?doc=doc-1"); p.Count != 3 {
		t.Fatalf("doc filter: count=%d", p.Count)
	}
	if p := get("?min_ms=4"); p.Count != 2 {
		t.Fatalf("min_ms filter: count=%d", p.Count)
	}
	if p := get("?trace_id=bb"); p.Count != 1 || p.Traces[0].TraceID != "bb" {
		t.Fatalf("trace_id filter: %+v", p)
	}
	if p := get("?root=edit_op"); p.Count != 3 {
		t.Fatalf("root filter: count=%d", p.Count)
	}
	if p := get("?limit=2"); p.Count != 2 || p.Traces[0].TraceID != "dd" {
		t.Fatalf("limit: %+v", p)
	}
	if p := get("?doc=doc-1&min_ms=4&limit=1"); p.Count != 1 || p.Traces[0].TraceID != "cc" {
		t.Fatalf("combined filters: %+v", p)
	}

	for _, bad := range []string{"?min_ms=x", "?limit=0", "?limit=x"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces"+bad, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", bad, rec.Code)
		}
	}
}

func TestRecorderAsSink(t *testing.T) {
	withDefault(t)
	fr := NewFlightRecorder(8)
	remove := Default.AddSink(fr.Record)
	defer remove()

	ctx, root := Start(context.Background(), SpanEditOp)
	root.Annotate("doc", "doc-9")
	_, child := Start(ctx, SpanSave)
	child.End()
	root.End()

	rec := httptest.NewRecorder()
	fr.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?doc=doc-9", nil))
	page := decodePage(t, rec)
	if page.Count != 1 {
		t.Fatalf("recorded %d traces for doc-9, want 1", page.Count)
	}
	if len(page.Traces[0].Spans) != 2 {
		t.Fatalf("span tree has %d spans, want 2", len(page.Traces[0].Spans))
	}
	if !strings.Contains(rec.Body.String(), SpanSave) {
		t.Fatal("save span missing from JSON body")
	}
}
