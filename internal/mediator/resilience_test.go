package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// faultyTransport is a scriptable base transport: it can fail the next N
// requests (or all of them while down), either with a transport error or
// with an injected HTTP status, and can hang requests until their context
// ends, reporting each hung request's error on hung when that is set.
type faultyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	failNext int  // fail this many upcoming requests
	down     bool // fail everything while set
	status   int  // 0 = transport error, else injected status
	hangNext int  // hang this many upcoming requests until ctx done
	hung     chan error
	hits     int
}

var errInjected = errors.New("faultyTransport: injected failure")

func (f *faultyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	f.hits++
	hang := f.hangNext > 0
	if hang {
		f.hangNext--
	}
	fail := !hang && (f.down || f.failNext > 0)
	if !f.down && f.failNext > 0 && !hang {
		f.failNext--
	}
	status, hung := f.status, f.hung
	f.mu.Unlock()

	if hang {
		<-req.Context().Done()
		err := req.Context().Err()
		if hung != nil {
			hung <- err
		}
		return nil, err
	}
	if fail {
		if status != 0 {
			return synthesize(req, status, "faultyTransport: injected status"), nil
		}
		return nil, errInjected
	}
	return f.base.RoundTrip(req)
}

func (f *faultyTransport) set(fn func(*faultyTransport)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(f)
}

func (f *faultyTransport) hitCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.hits
}

// resilientHarness wires server + faulty transport + extension.
type resilientHarness struct {
	server *gdocs.Server
	ts     *httptest.Server
	flaky  *faultyTransport
	ext    *Extension
	client *gdocs.Client
}

func newResilientHarness(t *testing.T) *resilientHarness {
	t.Helper()
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	flaky := &faultyTransport{base: ts.Client().Transport}
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(777),
	}
	ext := New(flaky, StaticPassword("hunter2", opts))
	client := gdocs.NewClient(ext.Client(), ts.URL, "resilient-doc")
	return &resilientHarness{server: server, ts: ts, flaky: flaky, ext: ext, client: client}
}

func (h *resilientHarness) seed(t *testing.T, text string) {
	t.Helper()
	if err := h.client.Create(); err != nil {
		t.Fatalf("seed create: %v", err)
	}
	h.client.SetText(text)
	if err := h.client.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}
	flush(t, h.ext, h.client.DocID())
}

// TestRetryRecoversTransientErrors: a save whose first two sends hit
// transport errors is re-sent by the writer after each backoff step and
// lands; each re-send counts as one retry.
func TestRetryRecoversTransientErrors(t *testing.T) {
	h := newResilientHarness(t)
	h.seed(t, "the quick brown fox")

	h.flaky.set(func(f *faultyTransport) { f.failNext = 2 })
	if err := h.client.Insert(0, "Note: "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("save through transient failures: %v", err)
	}
	flush(t, h.ext, h.client.DocID())
	if got := h.ext.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
	if h.ext.Session(h.client.DocID()).Degraded() {
		t.Error("successfully retried save left the document degraded")
	}
	plainCheck(t, h, "Note: the quick brown fox")
}

func TestRetryRecoversInjected5xxAnd429(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusTooManyRequests} {
		h := newResilientHarness(t)
		h.seed(t, "retry me")
		h.flaky.set(func(f *faultyTransport) { f.failNext, f.status = 2, status })
		if err := h.client.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := h.client.Save(); err != nil {
			t.Fatalf("status %d: save: %v", status, err)
		}
		flush(t, h.ext, h.client.DocID())
		if got := h.ext.Stats().Retries; got != 2 {
			t.Errorf("status %d: Retries = %d, want 2", status, got)
		}
		plainCheck(t, h, "xretry me")
	}
}

// TestRetryExhaustionSurfacesStatus: with the server hard-down, a load or
// save that has no local state to serve goes out once — no retry policy
// stands in front of a first touch — and must surface the server's answer
// rather than invent a document.
func TestRetryExhaustionSurfacesStatus(t *testing.T) {
	// A first touch with no local state cannot be served locally: the
	// server's answer (a 500) or the transport error (status 0) must reach
	// the client as such — never as the extension blocking the request —
	// for a load and for a save alike.
	for _, status := range []int{http.StatusInternalServerError, 0} {
		t.Run(fmt.Sprintf("status=%d", status), func(t *testing.T) {
			h := newResilientHarness(t)
			h.seed(t, "doomed")
			sess := h.ext.Session(h.client.DocID())
			if err := sess.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			h.flaky.set(func(f *faultyTransport) { f.down, f.status = true, status })
			check := func(op string, hits int, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Fatalf("%s without local state succeeded with the server hard-down", op)
				case errors.Is(err, gdocs.ErrBlocked):
					t.Errorf("%s: %v; an outage must not look like a block", op, err)
				case status == 0 && !errors.Is(err, errInjected):
					t.Errorf("%s: %v does not carry the transport error", op, err)
				case status != 0 && !strings.Contains(err.Error(), strconv.Itoa(status)):
					t.Errorf("%s: %v does not surface the %d", op, err, status)
				}
				if sent := h.flaky.hitCount() - hits; sent != 1 {
					t.Errorf("%s went out %d times, want once", op, sent)
				}
			}
			hits := h.flaky.hitCount()
			check("load", hits, h.client.Load())
			if err := h.client.Insert(0, "x"); err != nil {
				t.Fatal(err)
			}
			hits = h.flaky.hitCount()
			check("save", hits, h.client.Save())

			s := h.ext.Stats()
			if s.Retries != 0 {
				t.Errorf("Retries = %d, want 0: a first touch is not retried", s.Retries)
			}
			if s.DegradedLoads != 0 || s.QueuedSaves != 1 {
				t.Errorf("stats %+v: a refused first touch must not load or queue", s)
			}
		})
	}
}

// writerLoops counts the goroutines running ext's writer loop.
func writerLoops(ext *Extension) int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	return strings.Count(string(buf[:n]), fmt.Sprintf("(*Extension).writerLoop(%p", ext))
}

// TestCloseCancelsHungSave: Close ends a save round trip to a server that
// never answers. The hung request sees its context cancelled and the
// writer goroutine exits, instead of both (and the session's editor)
// living forever.
func TestCloseCancelsHungSave(t *testing.T) {
	h := newResilientHarness(t)
	h.seed(t, "slow server")
	hung := make(chan error, 1)
	h.flaky.set(func(f *faultyTransport) { f.hangNext, f.hung = 1, hung })
	hits := h.flaky.hitCount()
	if err := h.client.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("local save: %v", err)
	}
	for deadline := time.Now().Add(5 * time.Second); h.flaky.hitCount() == hits; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer never sent the save")
		}
	}
	if n := writerLoops(h.ext); n != 1 {
		t.Fatalf("%d writer goroutines before Close, want 1", n)
	}

	if err := h.ext.Session(h.client.DocID()).Close(); err == nil {
		t.Error("Close with the save still in flight reported no unsent save")
	}
	select {
	case err := <-hung:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("hung round trip ended with %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the hung round trip running")
	}
	for deadline := time.Now().Add(5 * time.Second); writerLoops(h.ext) != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the writer goroutine outlived Close")
		}
	}
}

// lossyTransport delivers every request, records each save's idempotency
// token and body, and while loseNext is positive throws away the
// response of a save the server has already applied, returning a
// transport error instead — the lost-ack case.
type lossyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	loseNext int
	saves    []sentSave
}

type sentSave struct{ id, body string }

var errLostResponse = errors.New("lossyTransport: response lost")

func (l *lossyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	save := req.Method == http.MethodPost && req.URL.Path == gdocs.PathDoc
	if save {
		rc, err := req.GetBody()
		if err != nil {
			return nil, err
		}
		body, _ := io.ReadAll(rc)
		l.mu.Lock()
		l.saves = append(l.saves, sentSave{req.Header.Get(gdocs.HeaderSaveID), string(body)})
		l.mu.Unlock()
	}
	resp, err := l.base.RoundTrip(req)
	if err != nil || !save {
		return resp, err
	}
	l.mu.Lock()
	lose := l.loseNext > 0
	if lose {
		l.loseNext--
	}
	l.mu.Unlock()
	if lose {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return nil, errLostResponse
	}
	return resp, nil
}

// TestLostSaveResponseResentOnce: the server applies a save but its
// response never arrives. The writer re-sends the identical save under the
// same idempotency token, and the server applies it exactly once.
func TestLostSaveResponseResentOnce(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	lossy := &lossyTransport{base: ts.Client().Transport}
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(31)}
	ext := New(lossy, StaticPassword("hunter2", opts))
	h := &resilientHarness{server: server, ts: ts, ext: ext,
		client: gdocs.NewClient(ext.Client(), ts.URL, "lossy-doc")}
	h.seed(t, "the ack went missing")
	_, v0, err := server.Content(context.Background(), "lossy-doc")
	if err != nil {
		t.Fatal(err)
	}

	lossy.mu.Lock()
	lossy.loseNext, lossy.saves = 1, nil
	lossy.mu.Unlock()
	if err := h.client.Insert(0, "lost: "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("local save: %v", err)
	}
	flush(t, ext, "lossy-doc")

	lossy.mu.Lock()
	saves := lossy.saves
	lossy.mu.Unlock()
	if len(saves) != 2 {
		t.Fatalf("%d saves sent, want the lost one and its re-send", len(saves))
	}
	if saves[0].id == "" || saves[1].id != saves[0].id {
		t.Errorf("re-send carries save id %q, first send %q", saves[1].id, saves[0].id)
	}
	if saves[1].body != saves[0].body {
		t.Error("re-send body differs from the first send")
	}
	if _, v, _ := server.Content(context.Background(), "lossy-doc"); v != v0+1 {
		t.Errorf("server version %d -> %d, want one bump", v0, v)
	}
	if got := ext.Stats().Retries; got != 1 {
		t.Errorf("Retries = %d, want 1", got)
	}
	plainCheck(t, h, "lost: the ack went missing")
}

// TestWriterBacksOffWhileServerDown wedges the backend — every save gets
// a 503, or the transport errors — while the user keeps saving at
// keystroke rate, with no retry policy. The writer's failure streak must
// pace it: the transport sees about one attempt per backoff step, not one
// per keystroke, while acks and loads are marked degraded. Once the
// server answers, the queue drains and the stored text is the client's.
func TestWriterBacksOffWhileServerDown(t *testing.T) {
	for _, status := range []int{http.StatusServiceUnavailable, 0} {
		server := gdocs.NewServer()
		ts := httptest.NewServer(server)
		defer ts.Close()
		flaky := &faultyTransport{base: ts.Client().Transport}
		opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(5)}
		// A queue deep enough that every keystroke appends — and so wakes
		// the writer — instead of coalescing into the tail.
		ext := New(flaky, StaticPassword("hunter2", opts), WithPipeline(1024))
		h := &resilientHarness{server: server, ts: ts, flaky: flaky, ext: ext,
			client: gdocs.NewClient(ext.Client(), ts.URL, "wedged-doc")}
		h.seed(t, "meet at the old mill at midnight")

		flaky.set(func(f *faultyTransport) { f.down, f.status, f.hits = true, status, 0 })
		const window = 300 * time.Millisecond
		start := time.Now()
		keystrokes := 0
		for time.Since(start) < window {
			if err := h.client.Insert(0, "k"); err != nil {
				t.Fatal(err)
			}
			if err := h.client.Save(); err != nil {
				t.Fatalf("status %d: save with the server down: %v", status, err)
			}
			keystrokes++
			time.Sleep(time.Millisecond)
		}
		elapsed := time.Since(start)
		flaky.mu.Lock()
		hits := flaky.hits
		flaky.mu.Unlock()
		// One attempt opens the streak, then one per elapsed backoff step.
		steps := 1
		for spent := time.Duration(0); spent < elapsed; steps++ {
			spent += writerBackoff(steps)
		}
		if hits > steps+2 {
			t.Errorf("status %d: %d attempts over %d keystrokes in %v; backoff allows about %d",
				status, hits, keystrokes, elapsed, steps)
		}
		if keystrokes < 2*(steps+2) {
			t.Fatalf("status %d: only %d keystrokes in %v, too few to tell", status, keystrokes, elapsed)
		}
		if !h.client.Degraded() {
			t.Errorf("status %d: ack with the server down not marked degraded", status)
		}
		if !ext.Session("wedged-doc").Degraded() {
			t.Errorf("status %d: session not degraded with the server down", status)
		}
		want := h.client.Text()
		if err := h.client.Load(); err != nil {
			t.Fatalf("status %d: load with the server down: %v", status, err)
		}
		if h.client.Text() != want || !h.client.Degraded() {
			t.Errorf("status %d: degraded load = %q (degraded %v), want %q", status, h.client.Text(), h.client.Degraded(), want)
		}
		if st := ext.Stats(); st.DegradedSaves == 0 || st.DegradedLoads != 1 {
			t.Errorf("status %d: DegradedSaves/Loads = %d/%d, want >0/1", status, st.DegradedSaves, st.DegradedLoads)
		}

		flaky.set(func(f *faultyTransport) { f.down = false })
		flush(t, ext, "wedged-doc")
		if ext.Session("wedged-doc").Degraded() {
			t.Errorf("status %d: session still degraded after the queue drained", status)
		}
		plainCheck(t, h, want)
	}
}

// plainCheck verifies the server-stored container decrypts to want and a
// fresh mediated session sees the same text.
func plainCheck(t *testing.T, h *resilientHarness, want string) {
	t.Helper()
	stored, _, err := h.server.Content(context.Background(), h.client.DocID())
	if err != nil {
		t.Fatalf("server content: %v", err)
	}
	plain, err := core.DecryptWith("hunter2", stored, core.Options{})
	if err != nil {
		t.Fatalf("stored container does not decrypt: %v", err)
	}
	if plain != want {
		t.Errorf("server plaintext = %q, want %q", plain, want)
	}
	fresh := New(h.ts.Client().Transport, StaticPassword("hunter2", core.Options{}))
	fc := gdocs.NewClient(fresh.Client(), h.ts.URL, h.client.DocID())
	if err := fc.Load(); err != nil {
		t.Fatalf("fresh load: %v", err)
	}
	if fc.Text() != want {
		t.Errorf("fresh session text = %q, want %q", fc.Text(), want)
	}
}

func TestInfraFailureClassification(t *testing.T) {
	req, _ := http.NewRequest(http.MethodGet, "http://x/", nil)
	cases := []struct {
		name string
		resp *http.Response
		err  error
		want bool
	}{
		{"transport error", nil, errInjected, true},
		{"500", synthesize(req, 500, ""), nil, true},
		{"429", synthesize(req, 429, ""), nil, true},
		{"409 conflict is logical", synthesize(req, 409, ""), nil, false},
		{"403 blocked is logical", synthesize(req, 403, ""), nil, false},
		{"200", synthesize(req, 200, ""), nil, false},
	}
	for _, tc := range cases {
		if got := infraFailure(tc.resp, tc.err); got != tc.want {
			t.Errorf("%s: infraFailure = %v, want %v", tc.name, got, tc.want)
		}
	}
}
