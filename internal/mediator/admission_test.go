package mediator

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// admissionGate rejects the next N requests the way the gdocs admission
// controller does — 429 plus the retryable marker and a Retry-After hint —
// and passes everything else through to the real server.
type admissionGate struct {
	base http.RoundTripper

	mu         sync.Mutex
	rejectNext int
	retryAfter string // Retry-After header value; "" omits the header
	rejects    int
}

func (g *admissionGate) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	reject := g.rejectNext > 0
	if reject {
		g.rejectNext--
		g.rejects++
	}
	ra := g.retryAfter
	g.mu.Unlock()
	if reject {
		resp := synthesize(req, http.StatusTooManyRequests, "admission reject")
		resp.Header.Set(gdocs.HeaderRetryable, "1")
		if ra != "" {
			resp.Header.Set("Retry-After", ra)
		}
		return resp, nil
	}
	return g.base.RoundTrip(req)
}

func TestAdmissionRejectParsing(t *testing.T) {
	if _, ok := admissionReject(nil); ok {
		t.Fatal("nil response classified as admission reject")
	}
	plain := &http.Response{Header: http.Header{}}
	if _, ok := admissionReject(plain); ok {
		t.Fatal("response without retryable marker classified as admission reject")
	}
	marked := &http.Response{Header: http.Header{}}
	marked.Header.Set(gdocs.HeaderRetryable, "1")
	hint, ok := admissionReject(marked)
	if !ok || hint != 0 {
		t.Fatalf("marked response without Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "garbage")
	if hint, ok = admissionReject(marked); !ok || hint != 0 {
		t.Fatalf("unparseable Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "-3")
	if hint, ok = admissionReject(marked); !ok || hint != 0 {
		t.Fatalf("negative Retry-After: hint=%v ok=%v, want 0 true", hint, ok)
	}
	marked.Header.Set("Retry-After", "2")
	if hint, ok = admissionReject(marked); !ok || hint != 2*time.Second {
		t.Fatalf("Retry-After 2: hint=%v ok=%v, want 2s true", hint, ok)
	}
}

// gatedDoc creates and seeds docID through an open gate, so the session
// holds the document's lineage before the gate closes.
func gatedDoc(t *testing.T, docID string) (*gdocs.Server, *admissionGate, *Extension, *gdocs.Client) {
	t.Helper()
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	gate := &admissionGate{base: ts.Client().Transport}
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(99),
	}
	ext := New(gate, StaticPassword("hunter2", opts))
	client := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("before the gate closed")
	if err := client.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}
	flush(t, ext, docID)
	return server, gate, ext, client
}

// TestAdmissionRetryHonored drives a save into a gate that throttles it.
// The writer re-sends a save the gate rejected until it is admitted, and
// a reject's Retry-After pushes the writer's next attempt out to the hint.
func TestAdmissionRetryHonored(t *testing.T) {
	server, gate, ext, client := gatedDoc(t, "admission-doc")
	gate.mu.Lock()
	gate.rejectNext = 2
	gate.mu.Unlock()
	client.SetText("admitted eventually")
	if err := client.Save(); err != nil {
		t.Fatalf("save through admission gate: %v", err)
	}
	flush(t, ext, "admission-doc")
	if got := ext.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if got := decryptStored(t, server, "admission-doc", "hunter2", false); got != "admitted eventually" {
		t.Fatalf("server text after admitted save: %q", got)
	}

	// One more reject, now with a Retry-After hint: the writer must not
	// try again before it. The session closes before the hint runs out.
	gate.mu.Lock()
	gate.rejectNext, gate.retryAfter = 1, "1"
	gate.mu.Unlock()
	client.SetText("told to wait")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	sess := ext.sessionFor("admission-doc")
	var wait time.Duration
	for deadline := time.Now().Add(5 * time.Second); wait == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never noted the reject")
		}
		sess.mu.Lock()
		if sess.pl.failStreak > 0 {
			wait = time.Until(sess.pl.retryAt)
		}
		sess.mu.Unlock()
	}
	if wait < 900*time.Millisecond || wait > time.Second {
		t.Errorf("next attempt in %v after a Retry-After: 1 reject, want about 1s", wait)
	}
	_ = ext.Session("admission-doc").Close()
}

// TestAdmissionRetriesExhausted: a gate that never admits leaves the
// document degraded with its save queued. Flush gives up with its
// context's error, and the save is not dropped: the writer keeps trying.
// A create, with no queue behind it, goes out once and fails.
func TestAdmissionRetriesExhausted(t *testing.T) {
	_, gate, ext, client := gatedDoc(t, "throttled-doc")
	gate.mu.Lock()
	gate.rejectNext = 1 << 20
	gate.mu.Unlock()
	client.SetText("never admitted")
	if err := client.Save(); err != nil {
		t.Fatalf("local save: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	sess := ext.Session("throttled-doc")
	if err := sess.Flush(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Flush through a closed gate = %v, want the context's deadline", err)
	}
	if !sess.Degraded() {
		t.Error("document not degraded behind a closed gate")
	}
	if st := ext.Stats(); st.DroppedSaves != 0 || st.Retries == 0 {
		t.Errorf("DroppedSaves = %d, Retries = %d; want the save kept and re-sent", st.DroppedSaves, st.Retries)
	}

	// A gate of its own, so the writer's re-sends above do not count; it
	// answers every request itself, so the URL is never dialled.
	closed := &admissionGate{rejectNext: 1 << 20}
	other := New(closed, StaticPassword("hunter2", core.Options{}))
	if err := gdocs.NewClient(other.Client(), "http://gated.invalid", "other-doc").Create(); err == nil {
		t.Error("create through a closed admission gate succeeded")
	}
	if closed.rejects != 1 {
		t.Errorf("create went out %d times, want once", closed.rejects)
	}
	_ = sess.Close()
}

// TestSessionHandle exercises the Session handle surface end to end:
// DocID, Editor/Degraded/Stats before and after traffic, Flush, Close.
func TestSessionHandle(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(7),
	}
	ext := New(ts.Client().Transport, StaticPassword("hunter2", opts))

	s := ext.Session("handle-doc")
	if s.DocID() != "handle-doc" {
		t.Fatalf("DocID = %q", s.DocID())
	}
	// Before any traffic: lazily created, so everything reads empty.
	if s.Editor() != nil {
		t.Error("Editor non-nil before first mediated request")
	}
	if s.Degraded() {
		t.Error("Degraded true before first mediated request")
	}
	if st := s.Stats(); st.Degraded || st.Pending != 0 {
		t.Errorf("Stats before traffic = %+v", st)
	}
	if n := ext.SessionCount(); n != 0 {
		t.Fatalf("SessionCount = %d before traffic", n)
	}

	client := gdocs.NewClient(ext.Client(), ts.URL, "handle-doc")
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("session state")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	if s.Editor() == nil {
		t.Error("Editor nil after mediated save")
	}
	if n := ext.SessionCount(); n != 1 {
		t.Errorf("SessionCount = %d, want 1", n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if s.Degraded() {
		t.Error("healthy flushed session reported degraded")
	}
	if st := s.Stats(); st.Saved != 1 || st.Pending != 0 || st.ServerVersion != 1 {
		t.Errorf("Stats after flush = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n := ext.SessionCount(); n != 0 {
		t.Errorf("SessionCount = %d after Close", n)
	}
	// Closing an already-closed (or never-opened) session is a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
