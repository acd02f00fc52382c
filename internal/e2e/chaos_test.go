package e2e

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
	"privedit/internal/trace"
	"privedit/internal/workload"
)

// chaosStorm is the e2e fault profile: its outright-failure rate is 26%,
// above the 20% bar the acceptance criterion sets.
func chaosStorm(seed int64) netsim.FaultProfile {
	return netsim.FaultProfile{
		Seed:             seed,
		DropRate:         0.08,
		DropResponseRate: 0.04,
		Error5xxRate:     0.06,
		ThrottleRate:     0.04,
		TimeoutRate:      0.04,
		CorruptRate:      0.05,
		TimeoutDelay:     100 * time.Microsecond,
	}
}

// TestChaosSharedDocConvergence is the tentpole end-to-end proof: two
// concurrent sessions fight over ONE document through the extension,
// whose writer re-sends failed saves, while a seeded fault storm (>20% request failures) eats their
// traffic — drops, lost responses, 5xx, 429, timeouts, corruption. Every
// op waits for its durable ack while the faults are on, so the storm
// reaches every save. After the storm lifts and the queue drains, both
// sessions, a fresh mediated session, and an independent decrypt of the
// server's stored container must all agree on the same plaintext. Run
// with -race.
func TestChaosSharedDocConvergence(t *testing.T) {
	profile := chaosStorm(20110615)
	if profile.FailureRate() < 0.20 {
		t.Fatalf("storm failure rate %.2f below the 20%% acceptance bar", profile.FailureRate())
	}

	server := gdocs.NewServer()
	server.EnableObservation()
	ts := httptest.NewServer(server)
	defer ts.Close()

	faults := netsim.NewFaultTransport(ts.Client().Transport, profile)
	faults.SetEnabled(false) // clean network while seeding

	const password = "chaos-e2e-pw"
	ext := mediator.New(faults,
		mediator.StaticPassword(password, core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}))

	const docID = "chaos-shared-doc"
	seed := gdocs.NewClient(ext.Client(), ts.URL, docID)
	if err := seed.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	seed.SetText("shared chaos base: " + workload.NewGen(99).Document(2000))
	if err := seed.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}
	flushDoc(t, ext, docID)

	// The storm: two sessions edit concurrently through the same extension
	// while >20% of requests fail.
	faults.SetEnabled(true)
	const sessions = 2
	const opsPerSession = 25
	clients := make([]*gdocs.Client, sessions)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		clients[s] = gdocs.NewClient(ext.Client(), ts.URL, docID)
		wg.Add(1)
		go func(s int, c *gdocs.Client) {
			defer wg.Done()
			gen := workload.NewGen(int64(7000 + s))
			_ = c.Load() // may be eaten by the storm; later ops reload
			for op := 0; op < opsPerSession; op++ {
				sp := gen.Edit(c.Text(), workload.InsertsAndDeletes)
				if err := c.Replace(sp.Pos, sp.Del, sp.Ins); err != nil {
					_ = c.Load()
					continue
				}
				if err := c.Sync(); err != nil {
					// Failed or conflicted under fire: reload (possibly a
					// degraded view) and keep editing.
					_ = c.Load()
				}
				// The durable ack: wait until the server holds the save.
				if err := flushCtx(ext, docID); err != nil {
					t.Errorf("session %d op %d: flush: %v", s, op, err)
					return
				}
			}
		}(s, clients[s])
	}
	wg.Wait()
	storm := faults.Stats()
	if storm.Injected() == 0 {
		t.Fatal("the storm injected nothing; the test proved nothing")
	}
	t.Logf("storm: %d requests, %d faults (%d drops, %d lost responses, %d 5xx, %d 429, %d timeouts, %d corruptions)",
		storm.Requests, storm.Injected(), storm.Drops, storm.DropResponses,
		storm.Errors5xx, storm.Throttles, storm.Timeouts, storm.Corruptions)

	// Calm: lift the faults and let every session settle: push any
	// unsaved edit and drain the queue.
	faults.SetEnabled(false)
	for s, c := range clients {
		settled := false
		for attempt := 0; attempt < 20 && !settled; attempt++ {
			if err := c.Sync(); err != nil {
				_ = c.Load()
			}
			flushDoc(t, ext, docID)
			if !ext.Session(docID).Degraded() && !c.Dirty() {
				settled = true
			}
		}
		if !settled {
			t.Fatalf("session %d never settled after the storm", s)
		}
	}

	// Liveness after the storm: both sessions append a final marker and
	// sync it cleanly.
	for s, c := range clients {
		if err := c.Load(); err != nil {
			t.Fatalf("session %d post-storm load: %v", s, err)
		}
		if err := c.Insert(len(c.Text()), fmt.Sprintf("<final-%d>", s)); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatalf("session %d final sync: %v", s, err)
		}
	}

	// Convergence, three ways. (1) Both sessions see the same text.
	for _, c := range clients {
		if err := c.Load(); err != nil {
			t.Fatalf("final load: %v", err)
		}
	}
	if clients[0].Text() != clients[1].Text() {
		t.Fatalf("sessions diverged:\nA %q\nB %q", clients[0].Text(), clients[1].Text())
	}
	want := clients[0].Text()
	for s := 0; s < sessions; s++ {
		if !strings.Contains(want, fmt.Sprintf("<final-%d>", s)) {
			t.Errorf("final text lost session %d's post-storm marker", s)
		}
	}

	// (2) The server's stored ciphertext decrypts to exactly that text.
	flushDoc(t, ext, docID)
	stored, _, err := server.Content(context.Background(), docID)
	if err != nil {
		t.Fatalf("server content: %v", err)
	}
	plain, err := core.DecryptWith(password, stored, core.Options{})
	if err != nil {
		t.Fatalf("stored container does not decrypt after the storm: %v", err)
	}
	if plain != want {
		t.Errorf("server plaintext diverges from the sessions' view")
	}

	// (3) A brand-new mediated session agrees too.
	fresh := mediator.New(ts.Client().Transport, mediator.StaticPassword(password, core.Options{}))
	fc := gdocs.NewClient(fresh.Client(), ts.URL, docID)
	if err := fc.Load(); err != nil {
		t.Fatalf("fresh load: %v", err)
	}
	if fc.Text() != want {
		t.Errorf("fresh session diverges from the writers' view")
	}

	// And through it all the server saw only ciphertext.
	if strings.Contains(server.Observed(), "shared chaos base:") {
		t.Fatal("plaintext leaked to the server during the storm")
	}
}

// stormCounts is what a seed pins: every fault the transport injected
// during the storm, and the storm's op totals.
type stormCounts struct {
	Faults   netsim.FaultStats
	Ops      int64
	OpErrors int64
	Reloads  int64
}

// TestChaosDistinctDocsUnderStorm is the chaos gate: concurrent sessions,
// each on its own document, edit through one mediating extension over a
// seeded fault storm (drops, lost responses, 5xx, 429, timeouts,
// corruption, latency spikes). Every op, the first load included, waits
// for its durable ack while the faults are on, so the storm reaches every
// save. After the calm, each document must converge three ways and keep
// only its own marker, and no acknowledged save may have been dropped.
//
// Each row pins its seed's request stream exactly. Every fault decision
// is a pure function of (seed, request shape, occurrence), and each op
// drains before the next begins, so a document's request sequence depends
// only on the fault sequence: the writer's backoff changes when a re-send
// happens, never which requests are made. The counts are the same on
// every run, under -race too, and a change to what goes on the wire moves
// them. Run with -race -count=N (make chaos-smoke).
func TestChaosDistinctDocsUnderStorm(t *testing.T) {
	ciFault := netsim.FaultProfile{
		Seed:             2011,
		DropRate:         0.06,
		DropResponseRate: 0.04,
		Error5xxRate:     0.05,
		ThrottleRate:     0.03,
		TimeoutRate:      0.03,
		CorruptRate:      0.02,
		JitterRate:       0.05,
	}
	ci := stormCounts{
		Faults: netsim.FaultStats{Requests: 214, Drops: 13, DropResponses: 9, Errors5xx: 11,
			Throttles: 6, Timeouts: 8, Corruptions: 5, JitterSpikes: 22},
		Ops: 160, Reloads: 8,
	}
	rows := []struct {
		name     string
		sessions int
		ops      int
		fault    netsim.FaultProfile
		traced   bool
		want     stormCounts
	}{
		{"ci", 4, 40, ciFault, false, ci},
		// Tracing rides along the requests but never changes them.
		{"ci-traced", 4, 40, ciFault, true, ci},
		{"nightly", 8, 80, netsim.FaultProfile{
			Seed:             20110615,
			DropRate:         0.08,
			DropResponseRate: 0.05,
			Error5xxRate:     0.07,
			ThrottleRate:     0.04,
			TimeoutRate:      0.04,
			CorruptRate:      0.04,
			JitterRate:       0.06,
		}, false, stormCounts{
			Faults: netsim.FaultStats{Requests: 935, Drops: 84, DropResponses: 44, Errors5xx: 56,
				Throttles: 39, Timeouts: 43, Corruptions: 39, JitterSpikes: 58},
			Ops: 640, Reloads: 40,
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var tc *traceCapture
			if row.traced {
				tc = captureTraces()
				defer tc.stop()
			}
			got := runDistinctStorm(t, row.sessions, row.ops, row.fault, row.traced)
			if got != row.want {
				t.Errorf("seed %d made a different request stream than pinned:\n got %+v\nwant %+v",
					row.fault.Seed, got, row.want)
			}
			if got.Faults.Requests < got.Ops {
				t.Errorf("storm saw %d requests for %d ops: the faults reached nothing", got.Faults.Requests, got.Ops)
			}
			if tc != nil {
				tc.check(t)
			}
		})
	}
}

// runDistinctStorm seeds one RPC (b = 8) document per session, a marker
// plus 20,000 chars, over a clean network, runs the storm (every 16th op
// a reload), then lifts the faults and checks every document. Every op
// opens an edit_op root, a no-op unless the caller enabled tracing; with
// traced, the server also joins the client's traces.
func runDistinctStorm(t *testing.T, sessions, ops int, profile netsim.FaultProfile, traced bool) stormCounts {
	t.Helper()
	server := gdocs.NewServer()
	var handler http.Handler = server
	if traced {
		handler = trace.Middleware(server)
	}
	ts := httptest.NewServer(handler)
	defer ts.Close()

	faults := netsim.NewFaultTransport(ts.Client().Transport, profile)
	faults.SetEnabled(false) // clean network while seeding

	const password = "chaos-pw"
	ext := mediator.New(faults,
		mediator.StaticPassword(password, core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}))
	httpc := ext.Client()
	docID := func(s int) string { return fmt.Sprintf("chaos-doc-%d", s) }
	marker := func(s int) string { return fmt.Sprintf("STORM-MARKER-%d ", s) }

	gen := workload.NewGen(profile.Seed)
	for s := 0; s < sessions; s++ {
		c := gdocs.NewClient(httpc, ts.URL, docID(s))
		if err := c.Create(); err != nil {
			t.Fatalf("create %s: %v", docID(s), err)
		}
		c.SetText(marker(s) + gen.Document(20_000))
		if err := c.Save(); err != nil {
			t.Fatalf("seed %s: %v", docID(s), err)
		}
		flushDoc(t, ext, docID(s))
	}

	faults.SetEnabled(true)
	var (
		opsDone, opErrors, reloads atomic.Int64
		wg                         sync.WaitGroup
	)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g := workload.NewGen(profile.Seed + int64(s) + 1)
			id := docID(s)
			c := gdocs.NewClient(httpc, ts.URL, id)
			// The load's catch-up is the session's first trip through
			// the storm; a failed one is counted and later ops reload.
			if err := c.Load(); err != nil {
				opErrors.Add(1)
			}
			if err := flushCtx(ext, id); err != nil {
				opErrors.Add(1)
			}
			for op := 1; op <= ops; op++ {
				reload := op%16 == 0
				octx, osp := trace.Default.Root(context.Background(), trace.SpanEditOp)
				osp.Annotate("doc", id)
				c.WithContext(octx)
				var err error
				if reload {
					err = c.Load()
				} else {
					sp := g.Edit(c.Text(), workload.InsertsAndDeletes)
					if err = c.Replace(sp.Pos, sp.Del, sp.Ins); err == nil {
						err = c.Sync()
					}
				}
				if err == nil {
					err = flushCtx(ext, id)
				}
				osp.End()
				if err != nil {
					// Reload (possibly a degraded view) and keep editing.
					opErrors.Add(1)
					c.WithContext(context.Background())
					_ = c.Load()
					_ = flushCtx(ext, id)
					continue
				}
				opsDone.Add(1)
				if reload {
					reloads.Add(1)
				}
			}
		}(s)
	}
	wg.Wait()
	counts := stormCounts{Faults: faults.Stats(), Ops: opsDone.Load(), OpErrors: opErrors.Load(), Reloads: reloads.Load()}

	// Calm: lift the faults, settle each document, and check it three
	// ways: a settled client, an independent decrypt of the stored
	// container, and a fresh mediated session.
	faults.SetEnabled(false)
	for s := 0; s < sessions; s++ {
		id := docID(s)
		settle := gdocs.NewClient(httpc, ts.URL, id)
		if err := settle.Load(); err != nil {
			t.Fatalf("%s settle load: %v", id, err)
		}
		if err := settle.Sync(); err != nil {
			t.Fatalf("%s settle sync: %v", id, err)
		}
		flushDoc(t, ext, id)
		if ext.Session(id).Degraded() {
			t.Fatalf("%s still degraded after the storm", id)
		}

		stored, _, err := server.Content(context.Background(), id)
		if err != nil {
			t.Fatalf("%s content: %v", id, err)
		}
		plain, err := core.DecryptWith(password, stored, core.Options{})
		if err != nil {
			t.Fatalf("%s ciphertext broken after the storm: %v", id, err)
		}
		if plain != settle.Text() {
			t.Errorf("%s: stored plaintext diverges from the settled client", id)
		}

		fresh := mediator.New(ts.Client().Transport, mediator.StaticPassword(password, core.Options{}))
		fc := gdocs.NewClient(fresh.Client(), ts.URL, id)
		if err := fc.Load(); err != nil {
			t.Fatalf("%s fresh load: %v", id, err)
		}
		_ = fresh.Session(id).Close() // a load only: nothing queued
		if fc.Text() != plain {
			t.Errorf("%s: fresh session diverges from the stored plaintext", id)
		}

		for other := 0; other < sessions; other++ {
			if has := strings.Contains(plain, marker(other)); has != (other == s) {
				t.Errorf("%s holds marker %d = %v: cross-document bleed under faults", id, other, has)
			}
		}
	}
	if dropped := ext.Stats().DroppedSaves; dropped != 0 {
		t.Errorf("%d acknowledged saves dropped", dropped)
	}
	return counts
}

// traceCapture turns the default tracer on and exports every completed
// trace to a collector and to a JSONL buffer.
type traceCapture struct {
	col   trace.Collector
	jsonl bytes.Buffer
	jw    *trace.JSONLWriter
	stop  func() // removes both sinks and restores the tracer's state
}

func captureTraces() *traceCapture {
	tc := &traceCapture{}
	tc.jw = trace.NewJSONLWriter(&tc.jsonl)
	prev := trace.Default.Enabled()
	trace.Default.SetEnabled(true)
	removeCol := trace.Default.AddSink(tc.col.Collect)
	removeJW := trace.Default.AddSink(tc.jw.Write)
	tc.stop = func() {
		removeCol()
		removeJW()
		trace.Default.SetEnabled(prev)
	}
	return tc
}

// check stops the capture and checks what the storm exported: a writer
// drain trace holding a delta save's transform and save spans, one
// holding a seeding full save's encrypt span, and a JSONL line that
// decodes as a trace for every collected trace.
func (tc *traceCapture) check(t *testing.T) {
	t.Helper()
	// A trace finalizes a beat after its client observes the response (the
	// server half of the tree is still closing): wait for the count to
	// settle.
	for prev, deadline := -1, time.Now().Add(2*time.Second); time.Now().Before(deadline); {
		n := tc.col.Len()
		if n == prev {
			break
		}
		prev = n
		time.Sleep(20 * time.Millisecond)
	}
	tc.stop()
	if err := tc.jw.Close(); err != nil {
		t.Fatalf("JSONL export: %v", err)
	}

	var deltaSave, fullSave bool
	for _, tr := range tc.col.Snapshot() {
		if tr.Root != trace.SpanWriterDrain {
			continue
		}
		names := map[string]bool{}
		for _, sp := range tr.Spans {
			names[sp.Name] = true
		}
		deltaSave = deltaSave || (names[trace.SpanTransform] && names[trace.SpanSave])
		fullSave = fullSave || names[trace.SpanEncrypt]
	}
	if !deltaSave {
		t.Errorf("no %s trace holds both a %s and a %s span", trace.SpanWriterDrain, trace.SpanTransform, trace.SpanSave)
	}
	if !fullSave {
		t.Errorf("no %s trace holds an %s span", trace.SpanWriterDrain, trace.SpanEncrypt)
	}

	lines := strings.Split(strings.TrimSuffix(tc.jsonl.String(), "\n"), "\n")
	for i, line := range lines {
		var tr trace.Trace
		if err := json.Unmarshal([]byte(line), &tr); err != nil || tr.TraceID == "" {
			t.Fatalf("JSONL line %d is not a trace (%v): %.80q", i, err, line)
		}
	}
	if len(lines) < tc.col.Len() {
		t.Errorf("JSONL export holds %d traces, the collector %d", len(lines), tc.col.Len())
	}
}

// flushCtx waits, bounded, for docID's queued saves to reach the server.
func flushCtx(ext *mediator.Extension, docID string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return ext.Session(docID).Flush(ctx)
}

// flushDoc is flushCtx for the test's own goroutine: a failure is fatal.
func flushDoc(t *testing.T, ext *mediator.Extension, docID string) {
	t.Helper()
	if err := flushCtx(ext, docID); err != nil {
		t.Fatalf("flush %s: %v", docID, err)
	}
}
