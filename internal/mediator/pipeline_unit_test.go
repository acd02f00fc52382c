package mediator

import (
	"net/http"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
)

func unitExtension() *Extension {
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(1),
	}
	return New(http.DefaultTransport, StaticPassword("hunter2", opts))
}

func TestWriterBackoff(t *testing.T) {
	cases := []struct {
		streak int
		want   time.Duration
	}{
		{0, 5 * time.Millisecond},
		{1, 5 * time.Millisecond},
		{2, 10 * time.Millisecond},
		{4, 40 * time.Millisecond},
		{10, time.Second},  // doubling overshoots the ceiling
		{100, time.Second}, // and stays clamped
	}
	for _, c := range cases {
		if got := writerBackoff(c.streak); got != c.want {
			t.Errorf("writerBackoff(%d) = %v, want %v", c.streak, got, c.want)
		}
	}
}

func TestWaitOrWake(t *testing.T) {
	// Timer path: a tiny delay with no wake signal just sleeps.
	start := time.Now()
	waitOrWake(make(chan struct{}, 1), time.Millisecond)
	if time.Since(start) < time.Millisecond {
		t.Error("waitOrWake returned before the timer fired")
	}
	// Wake path: a pending kick returns long before the timer.
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	start = time.Now()
	waitOrWake(wake, time.Minute)
	if time.Since(start) > 10*time.Second {
		t.Error("waitOrWake ignored the wake signal")
	}
}

func TestHistRing(t *testing.T) {
	pl := &plState{sv: 0}
	for i := 1; i <= 3; i++ {
		pl.sv = i
		pl.recordHistLocked("wire-" + string(rune('0'+i)))
	}

	if deltas, ok := pl.deltasSinceLocked(3); !ok || len(deltas) != 0 {
		t.Errorf("deltasSince(sv) = %v, %v; want empty, true", deltas, ok)
	}
	if _, ok := pl.deltasSinceLocked(4); ok {
		t.Error("deltasSince(future) reported covered")
	}
	deltas, ok := pl.deltasSinceLocked(1)
	if !ok || len(deltas) != 2 || deltas[0] != "wire-2" || deltas[1] != "wire-3" {
		t.Errorf("deltasSince(1) = %v, %v", deltas, ok)
	}
	if deltas, ok = pl.deltasSinceLocked(0); !ok || len(deltas) != 3 {
		t.Errorf("deltasSince(0) = %v, %v; want all 3", deltas, ok)
	}
	// A span starting before the ring's oldest entry is not covered.
	if _, ok = pl.deltasSinceLocked(-1); ok {
		t.Error("deltasSince before ring start reported covered")
	}

	pl.clearHistLocked()
	if _, ok = pl.deltasSinceLocked(1); ok {
		t.Error("cleared ring still reported coverage")
	}
	if pl.histBytes != 0 || len(pl.hist) != 0 {
		t.Errorf("clearHistLocked left hist=%d bytes=%d", len(pl.hist), pl.histBytes)
	}
}

func TestHistRingEviction(t *testing.T) {
	pl := &plState{}
	big := make([]byte, maxPlHistBytes/2+1)
	for i := range big {
		big[i] = 'x'
	}
	for i := 1; i <= 3; i++ {
		pl.sv = i
		pl.recordHistLocked(string(big))
	}
	if len(pl.hist) != 1 {
		t.Fatalf("byte cap kept %d entries, want 1", len(pl.hist))
	}
	// The surviving entry is the newest; older spans are uncovered.
	if _, ok := pl.deltasSinceLocked(1); ok {
		t.Error("evicted span reported covered")
	}
	if deltas, ok := pl.deltasSinceLocked(2); !ok || len(deltas) != 1 {
		t.Errorf("deltasSince(2) = %d deltas, %v; want 1, true", len(deltas), ok)
	}
}

func TestCollapseQueueLocked(t *testing.T) {
	e := unitExtension()
	sess := &session{pl: &plState{
		srvPlain: "server holds this",
		plain:    "local view wins",
		queue:    []*plEntry{{}, {}, {}},
	}}
	sess.mu.Lock()
	e.collapseQueueLocked(sess)
	sess.mu.Unlock()

	pl := sess.pl
	if len(pl.queue) != 1 {
		t.Fatalf("queue = %d entries after collapse, want 1", len(pl.queue))
	}
	ent := pl.queue[0]
	if !ent.full || ent.before != "server holds this" || ent.after != "local view wins" {
		t.Errorf("collapsed entry = %+v", ent)
	}
	if ent.id == "" {
		t.Error("collapsed entry has no idempotency token")
	}
	if pl.stats.ConflictResyncs != 1 {
		t.Errorf("ConflictResyncs = %d, want 1", pl.stats.ConflictResyncs)
	}
	if st := e.Stats(); st.ConflictResyncs != 1 || st.QueueDepth != -2 {
		t.Errorf("extension stats = %+v", st)
	}
}

func TestDropQueueLocked(t *testing.T) {
	e := unitExtension()
	idle := make(chan struct{})
	sess := &session{pl: &plState{
		queue:   []*plEntry{{}, {}},
		rejects: 7,
		idle:    []chan struct{}{idle},
	}}
	sess.mu.Lock()
	e.dropQueueLocked(sess)
	sess.mu.Unlock()

	pl := sess.pl
	if len(pl.queue) != 0 || pl.rejects != 0 {
		t.Errorf("queue=%d rejects=%d after drop", len(pl.queue), pl.rejects)
	}
	if pl.stats.Dropped != 2 {
		t.Errorf("Dropped = %d, want 2", pl.stats.Dropped)
	}
	if st := e.Stats(); st.DroppedSaves != 2 {
		t.Errorf("DroppedSaves = %d, want 2", st.DroppedSaves)
	}
	select {
	case <-idle:
	default:
		t.Error("drop with empty queue did not release Flush waiters")
	}
}

func TestReopenShadowLockedEmptyMirror(t *testing.T) {
	e := unitExtension()
	sess := &session{pl: &plState{srvTransport: ""}}
	sess.mu.Lock()
	plain, err := e.reopenShadowLocked(sess, "shadow-doc", sess.pl.srvTransport)
	sess.mu.Unlock()
	if err != nil || plain != "" {
		t.Fatalf("reopen from empty mirror: (%q, %v)", plain, err)
	}
	if sess.ed != nil {
		t.Error("empty mirror left a shadow editor behind")
	}
}

// TestWriterDelay pins the admission floor on the backoff step: a reject's
// Retry-After hint delays the next attempt past a shorter step, never
// shortens a longer one, and is capped at the 1s ceiling.
func TestWriterDelay(t *testing.T) {
	cases := []struct {
		streak int
		hint   time.Duration
		want   time.Duration
	}{
		{1, 0, 5 * time.Millisecond},
		{1, 200 * time.Millisecond, 200 * time.Millisecond},
		{4, 2 * time.Millisecond, 40 * time.Millisecond},
		{1, time.Second, time.Second},
		{1, 30 * time.Second, time.Second},
		{100, 30 * time.Second, time.Second},
	}
	for _, c := range cases {
		if got := writerDelay(c.streak, c.hint); got != c.want {
			t.Errorf("writerDelay(%d, %v) = %v, want %v", c.streak, c.hint, got, c.want)
		}
	}
}
