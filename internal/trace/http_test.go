package trace

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHeaderConstantPinned pins the wire header name that internal/obs
// duplicates by value (obs sits below trace in the import graph).
func TestHeaderConstantPinned(t *testing.T) {
	if Header != "X-Privedit-Trace" {
		t.Fatalf("trace.Header = %q; update the obs middleware's copy too", Header)
	}
}

func TestParseHeader(t *testing.T) {
	cases := []struct {
		in       string
		ok       bool
		tid, sid string
	}{
		{"00000000000000ab-00000000000000cd", true, "00000000000000ab", "00000000000000cd"},
		{"abc-def", true, "abc", "def"},
		{"", false, "", ""},
		{"abc", false, "", ""},
		{"abc-", false, "", ""},
		{"-def", false, "", ""},
		{"ABC-def", false, "", ""},
		{"abc-xyz", false, "", ""},
		{"0123456789abcdef0123456789abcdef0-def", false, "", ""},
	}
	for _, c := range cases {
		tid, sid, ok := ParseHeader(c.in)
		if ok != c.ok || tid != c.tid || sid != c.sid {
			t.Errorf("ParseHeader(%q) = %q, %q, %v; want %q, %q, %v",
				c.in, tid, sid, ok, c.tid, c.sid, c.ok)
		}
	}
}

func TestSetRequestHeader(t *testing.T) {
	withDefault(t)
	req := httptest.NewRequest(http.MethodGet, "/x", nil)
	SetRequestHeader(req)
	if req.Header.Get(Header) != "" {
		t.Fatal("header set with no span in context")
	}
	ctx, sp := Start(context.Background(), SpanEditOp)
	req = req.WithContext(ctx)
	SetRequestHeader(req)
	tid, sid, ok := ParseHeader(req.Header.Get(Header))
	if !ok || tid != sp.TraceID() {
		t.Fatalf("bad wire header %q", req.Header.Get(Header))
	}
	if sid == "" {
		t.Fatal("missing span ID in wire header")
	}
	sp.End()
}

func TestJoinInProcessMergesTrees(t *testing.T) {
	col := withDefault(t)
	ctx, root := Start(context.Background(), SpanEditOp)

	sctx, srv := Join(context.Background(), HeaderValue(ctx), SpanServerRequest)
	if srv == nil {
		t.Fatal("Join returned nil while enabled")
	}
	if TraceID(sctx) != root.TraceID() {
		t.Fatal("joined span is on a different trace")
	}
	_, store := Start(sctx, SpanServerStore)
	store.End()
	srv.End()
	root.End()

	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1 merged", col.Len())
	}
	tr := col.Snapshot()[0]
	var foundSrv, foundStore bool
	for _, s := range tr.Spans {
		switch s.Name {
		case SpanServerRequest:
			foundSrv = true
			if !s.Remote {
				t.Fatal("joined server span not marked remote")
			}
		case SpanServerStore:
			foundStore = true
		}
	}
	if !foundSrv || !foundStore {
		t.Fatalf("merged trace missing server spans: %+v", tr.Spans)
	}
}

func TestJoinRemoteTrace(t *testing.T) {
	col := withDefault(t)
	_, sp := Join(context.Background(), "00000000000000ab-00000000000000cd", SpanServerRequest)
	if sp == nil {
		t.Fatal("Join returned nil while enabled")
	}
	sp.End()
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	tr := col.Snapshot()[0]
	if tr.TraceID != "00000000000000ab" {
		t.Fatalf("remote join kept trace ID %q", tr.TraceID)
	}
	if tr.Spans[0].ParentID != "00000000000000cd" || !tr.Spans[0].Remote {
		t.Fatalf("remote join span: %+v", tr.Spans[0])
	}
}

func TestJoinBadHeaderStartsFresh(t *testing.T) {
	col := withDefault(t)
	_, sp := Join(context.Background(), "not a header", SpanServerRequest)
	sp.End()
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	if col.Snapshot()[0].Root != SpanServerRequest {
		t.Fatal("fallback root has wrong name")
	}
}

func TestJoinDisabled(t *testing.T) {
	if _, sp := Join(context.Background(), "ab-cd", SpanServerRequest); sp != nil {
		t.Fatal("Join produced a span while disabled")
	}
}

func TestMiddleware(t *testing.T) {
	col := withDefault(t)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, sp := Start(r.Context(), SpanServerStore)
		sp.End()
		w.WriteHeader(http.StatusConflict)
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	ctx, root := Start(context.Background(), SpanEditOp)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/Doc", nil)
	if err != nil {
		t.Fatal(err)
	}
	SetRequestHeader(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	root.End()

	waitTraces(t, col, 1)
	tr := col.Snapshot()[0]
	var srv *SpanData
	for i := range tr.Spans {
		if tr.Spans[i].Name == SpanServerRequest {
			srv = &tr.Spans[i]
		}
	}
	if srv == nil {
		t.Fatalf("no server_request span in %+v", tr.Spans)
	}
	var status, path string
	for _, a := range srv.Annotations {
		switch a.Key {
		case "status":
			status = a.Value
		case "path":
			path = a.Value
		}
	}
	if status != "409" || path != "/Doc" {
		t.Fatalf("server span annotations: status=%q path=%q", status, path)
	}
}

func TestMiddlewareDisabledPassthrough(t *testing.T) {
	called := false
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		called = true
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if !called {
		t.Fatal("middleware swallowed the request while disabled")
	}
}

func TestStatusWriterDefaultsTo200(t *testing.T) {
	col := withDefault(t)
	h := Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok")) // implicit 200 via Write
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
	if col.Len() != 1 {
		t.Fatalf("collector has %d traces, want 1", col.Len())
	}
	tr := col.Snapshot()[0]
	found := false
	for _, a := range tr.Spans[0].Annotations {
		if a.Key == "status" && a.Value == "200" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no status=200 annotation: %+v", tr.Spans[0].Annotations)
	}
}
