package mediator

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// with an injected HTTP status, and can hang attempts until their context
// expires.
type faultyTransport struct {
	base http.RoundTripper

	mu       sync.Mutex
	failNext int  // fail this many upcoming requests
	down     bool // fail everything while set
	status   int  // 0 = transport error, else injected status
	hangNext int  // hang this many upcoming requests until ctx done
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
	status := f.status
	f.mu.Unlock()

	if hang {
		<-req.Context().Done()
		return nil, req.Context().Err()
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

// resilientHarness wires server + faulty transport + resilient extension.
type resilientHarness struct {
	server *gdocs.Server
	ts     *httptest.Server
	flaky  *faultyTransport
	ext    *Extension
	client *gdocs.Client
}

func newResilientHarness(t *testing.T, res Resilience) *resilientHarness {
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
	ext := New(flaky, StaticPassword("hunter2", opts), WithResilience(res))
	client := gdocs.NewClient(ext.Client(), ts.URL, "resilient-doc")
	return &resilientHarness{server: server, ts: ts, flaky: flaky, ext: ext, client: client}
}

func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        1,
	}
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

func TestResilienceWithDefaults(t *testing.T) {
	r := Resilience{}.withDefaults()
	want := DefaultResilience()
	if r != want {
		t.Errorf("withDefaults = %+v, want %+v", r, want)
	}
}

func TestRetryRecoversTransientErrors(t *testing.T) {
	h := newResilientHarness(t, Resilience{Retry: fastRetry(4)})
	h.seed(t, "the quick brown fox")

	h.flaky.set(func(f *faultyTransport) { f.failNext = 2 })
	if err := h.client.Insert(0, "Note: "); err != nil {
		t.Fatal(err)
	}
	if err := h.client.Save(); err != nil {
		t.Fatalf("save through transient failures: %v", err)
	}
	flush(t, h.ext, h.client.DocID())
	if got := h.ext.Stats().Retries; got < 2 {
		t.Errorf("Retries = %d, want >= 2", got)
	}
	if h.ext.Session(h.client.DocID()).Degraded() {
		t.Error("successfully retried save left the document degraded")
	}
	plainCheck(t, h, "Note: the quick brown fox")
}

func TestRetryRecoversInjected5xxAnd429(t *testing.T) {
	for _, status := range []int{http.StatusInternalServerError, http.StatusTooManyRequests} {
		h := newResilientHarness(t, Resilience{Retry: fastRetry(4)})
		h.seed(t, "retry me")
		h.flaky.set(func(f *faultyTransport) { f.failNext, f.status = 2, status })
		if err := h.client.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := h.client.Save(); err != nil {
			t.Fatalf("status %d: save: %v", status, err)
		}
		flush(t, h.ext, h.client.DocID())
		if got := h.ext.Stats().Retries; got < 2 {
			t.Errorf("status %d: Retries = %d, want >= 2", status, got)
		}
		plainCheck(t, h, "xretry me")
	}
}

// TestRetryExhaustionSurfacesStatus: with the server hard-down, a load
// that has no local state to serve must surface the server's final
// status once the retries run out, rather than invent a document.
func TestRetryExhaustionSurfacesStatus(t *testing.T) {
	// A first touch with no local state cannot be served locally: the
	// server's final answer (an exhausted 500) or the transport error
	// (status 0) must reach the client as such — never as the extension
	// blocking the request — for a load and for a save alike.
	for _, status := range []int{http.StatusInternalServerError, 0} {
		t.Run(fmt.Sprintf("status=%d", status), func(t *testing.T) {
			h := newResilientHarness(t, Resilience{Retry: fastRetry(3)})
			h.seed(t, "doomed")
			sess := h.ext.Session(h.client.DocID())
			if err := sess.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			h.flaky.set(func(f *faultyTransport) { f.down, f.status = true, status })
			check := func(op string, err error) {
				t.Helper()
				switch {
				case err == nil:
					t.Fatalf("%s without local state succeeded with the server hard-down", op)
				case errors.Is(err, gdocs.ErrBlocked):
					t.Errorf("%s: %v; an outage must not look like a block", op, err)
				case status == 0 && !errors.Is(err, errInjected):
					t.Errorf("%s: %v does not carry the transport error", op, err)
				case status != 0 && !strings.Contains(err.Error(), strconv.Itoa(status)):
					t.Errorf("%s: %v does not surface the final %d", op, err, status)
				}
			}
			check("load", h.client.Load())
			if err := h.client.Insert(0, "x"); err != nil {
				t.Fatal(err)
			}
			check("save", h.client.Save())

			s := h.ext.Stats()
			if s.RetryGiveups < 2 {
				t.Errorf("RetryGiveups = %d, want >= 2", s.RetryGiveups)
			}
			if s.Retries < 4 {
				t.Errorf("Retries = %d, want >= 4 (3 attempts each)", s.Retries)
			}
			if s.DegradedLoads != 0 || s.QueuedSaves != 1 {
				t.Errorf("stats %+v: a refused first touch must not load or queue", s)
			}
		})
	}
}

func TestTryTimeoutBoundsHungAttempts(t *testing.T) {
	res := Resilience{Retry: fastRetry(3)}
	res.Retry.TryTimeout = 30 * time.Millisecond
	h := newResilientHarness(t, res)
	h.seed(t, "slow server")

	// The first attempt hangs until its per-attempt budget expires; the
	// retry goes through. Without TryTimeout this save would block forever.
	h.flaky.set(func(f *faultyTransport) { f.hangNext = 1 })
	if err := h.client.Insert(0, "x"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := h.client.Save(); err != nil {
		t.Fatalf("save after hung attempt: %v", err)
	}
	flush(t, h.ext, h.client.DocID())
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("save took %v; per-attempt budget not applied", elapsed)
	}
	if got := h.ext.Stats().Retries; got < 1 {
		t.Errorf("Retries = %d, want >= 1", got)
	}
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

func TestBackoffScheduleDeterministicAndBounded(t *testing.T) {
	mk := func(seed int64) *Extension {
		return New(http.DefaultTransport, StaticPassword("x", core.Options{}),
			WithResilience(Resilience{Retry: RetryPolicy{
				MaxAttempts: 4,
				BaseBackoff: 5 * time.Millisecond,
				MaxBackoff:  80 * time.Millisecond,
				Seed:        seed,
			}}))
	}
	a, b := mk(9), mk(9)
	prevA, prevB := time.Duration(0), time.Duration(0)
	for i := 0; i < 50; i++ {
		da := a.nextBackoff(prevA)
		db := b.nextBackoff(prevB)
		if da != db {
			t.Fatalf("step %d: same seed drew %v vs %v", i, da, db)
		}
		if da < 5*time.Millisecond || da > 80*time.Millisecond {
			t.Fatalf("step %d: backoff %v outside [base, max]", i, da)
		}
		prevA, prevB = da, db
	}
	c := mk(10)
	prevC, distinct := time.Duration(0), false
	prevA = 0
	for i := 0; i < 50; i++ {
		da, dc := a.nextBackoff(prevA), c.nextBackoff(prevC)
		if da != dc {
			distinct = true
		}
		prevA, prevC = da, dc
	}
	if !distinct {
		t.Error("different seeds produced identical 50-step schedules")
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
