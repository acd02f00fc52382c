package obs

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObserveExemplarTracksWorst(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("privedit_test_ex_seconds", "h", TimeBuckets)

	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram has an exemplar")
	}
	h.ObserveExemplar(0.2, "aaaa")
	h.ObserveExemplar(0.5, "bbbb")
	h.ObserveExemplar(0.3, "cccc")
	h.ObserveExemplar(0.9, "") // no trace: observed, but not an exemplar
	v, id, ok := h.Exemplar()
	if !ok || v != 0.5 || id != "bbbb" {
		t.Fatalf("Exemplar = %v, %q, %v; want 0.5, bbbb, true", v, id, ok)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (exemplar calls still observe)", h.Count())
	}

	// Registry-level inspection.
	if v, id, ok := r.Exemplar("privedit_test_ex_seconds"); !ok || v != 0.5 || id != "bbbb" {
		t.Fatalf("Registry.Exemplar = %v, %q, %v", v, id, ok)
	}
	if _, _, ok := r.Exemplar("privedit_unknown"); ok {
		t.Fatal("exemplar for unknown family")
	}
	if _, _, ok := r.Exemplar("privedit_test_ex_seconds", "path", "/x"); ok {
		t.Fatal("exemplar for unknown series")
	}
	c := r.NewCounter("privedit_test_ex_counter", "c")
	c.Inc()
	if _, _, ok := r.Exemplar("privedit_test_ex_counter"); ok {
		t.Fatal("exemplar for a counter")
	}

	h.ResetExemplar()
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("exemplar survived ResetExemplar")
	}

	// Nil safety.
	var nilH *Histogram
	nilH.ObserveExemplar(1, "x")
	nilH.ResetExemplar()
	if _, _, ok := nilH.Exemplar(); ok {
		t.Fatal("nil histogram has an exemplar")
	}
	var nilR *Registry
	nilR.ResetExemplars()
	if _, _, ok := nilR.Exemplar("x"); ok {
		t.Fatal("nil registry has an exemplar")
	}
}

func TestExemplarDisabledRegistry(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("privedit_test_ex_seconds", "h", TimeBuckets)
	r.SetEnabled(false)
	h.ObserveExemplar(1.0, "aaaa")
	if _, _, ok := h.Exemplar(); ok {
		t.Fatal("disabled registry recorded an exemplar")
	}
}

func TestSpanEndExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("privedit_test_ex_seconds", "h", TimeBuckets)
	sp := h.Start()
	sp.EndExemplar("dddd")
	if _, id, ok := h.Exemplar(); !ok || id != "dddd" {
		t.Fatalf("EndExemplar: id=%q ok=%v", id, ok)
	}
	Span{}.EndExemplar("x") // zero span: no-op
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
}

func TestExemplarExposition(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("privedit_test_ex_seconds", "h", TimeBuckets, "path", "/Doc")
	h.ObserveExemplar(0.25, "feedface00000000")

	var text strings.Builder
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	want := `# EXEMPLAR privedit_test_ex_seconds{path="/Doc"} 0.25 trace_id=feedface00000000`
	if !strings.Contains(text.String(), want) {
		t.Fatalf("prometheus text missing %q:\n%s", want, text.String())
	}

	var js strings.Builder
	if err := r.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"max_trace_id": "feedface00000000"`) ||
		!strings.Contains(js.String(), `"max": 0.25`) {
		t.Fatalf("JSON missing exemplar fields:\n%s", js.String())
	}

	// The HTTP handler closes the window after each scrape.
	ts := httptest.NewServer(Handler(r))
	defer ts.Close()
	get := func(url string) string {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String()
	}
	first := get(ts.URL)
	if !strings.Contains(first, "# EXEMPLAR") {
		t.Fatalf("first scrape missing exemplar:\n%s", first)
	}
	second := get(ts.URL)
	if strings.Contains(second, "# EXEMPLAR") {
		t.Fatalf("second scrape still has exemplar (window not reset):\n%s", second)
	}

	h.ObserveExemplar(0.1, "cafe000000000000")
	third := get(ts.URL + "?format=json")
	if !strings.Contains(third, "cafe000000000000") {
		t.Fatalf("JSON scrape missing new exemplar:\n%s", third)
	}
	fourth := get(ts.URL + "?format=json")
	if strings.Contains(fourth, "cafe000000000000") {
		t.Fatalf("JSON scrape did not reset window:\n%s", fourth)
	}
}

func TestMiddlewareExemplarFromTraceHeader(t *testing.T) {
	r := NewRegistry()
	h := Middleware(r, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), nil, nil)

	req := httptest.NewRequest(http.MethodGet, "/Doc", nil)
	req.Header.Set("X-Privedit-Trace", "beef000000000000-0001000000000000")
	h.ServeHTTP(httptest.NewRecorder(), req)

	_, id, ok := r.Exemplar(httpLatencyName, "path", "/Doc")
	if !ok || id != "beef000000000000" {
		t.Fatalf("middleware exemplar: id=%q ok=%v", id, ok)
	}
}

func TestTraceIDOf(t *testing.T) {
	cases := map[string]string{
		"":        "",
		"abc":     "",
		"abc-def": "abc",
		"-def":    "",
		"a-b-c":   "a",
	}
	for in, want := range cases {
		if got := traceIDOf(in); got != want {
			t.Errorf("traceIDOf(%q) = %q, want %q", in, got, want)
		}
	}
}
