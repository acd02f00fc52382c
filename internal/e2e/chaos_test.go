package e2e

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
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
// concurrent sessions fight over ONE document through a resilient
// extension while a seeded fault storm (>20% request failures) eats their
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
		mediator.StaticPassword(password, core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}),
		mediator.WithResilience(mediator.Resilience{
			Retry: mediator.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 1},
		}))

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

// TestChaosDistinctDocsUnderStorm drives the library chaos path the CLI
// uses (bench.RunChaos exercises it separately); here we pin that a
// resilient extension serving several documents through one storm keeps
// every document isolated and convergent. Run with -race.
func TestChaosDistinctDocsUnderStorm(t *testing.T) {
	profile := chaosStorm(424242)
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	faults := netsim.NewFaultTransport(ts.Client().Transport, profile)
	faults.SetEnabled(false)

	const password = "chaos-multi-pw"
	ext := mediator.New(faults,
		mediator.StaticPassword(password, core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}),
		mediator.WithResilience(mediator.Resilience{
			Retry: mediator.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 8 * time.Millisecond, Seed: 2},
		}))

	const docs = 3
	for d := 0; d < docs; d++ {
		c := gdocs.NewClient(ext.Client(), ts.URL, fmt.Sprintf("storm-doc-%d", d))
		if err := c.Create(); err != nil {
			t.Fatalf("create %d: %v", d, err)
		}
		c.SetText(fmt.Sprintf("STORM-MARKER-%d ", d) + workload.NewGen(int64(d)).Document(1500))
		if err := c.Save(); err != nil {
			t.Fatalf("seed %d: %v", d, err)
		}
		flushDoc(t, ext, fmt.Sprintf("storm-doc-%d", d))
	}

	faults.SetEnabled(true)
	var wg sync.WaitGroup
	finals := make([]string, docs)
	for d := 0; d < docs; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			docID := fmt.Sprintf("storm-doc-%d", d)
			c := gdocs.NewClient(ext.Client(), ts.URL, docID)
			_ = c.Load()
			gen := workload.NewGen(int64(3000 + d))
			for op := 0; op < 20; op++ {
				sp := gen.Edit(c.Text(), workload.InsertsAndDeletes)
				if err := c.Replace(sp.Pos, sp.Del, sp.Ins); err != nil {
					_ = c.Load()
					continue
				}
				if err := c.Sync(); err != nil {
					_ = c.Load()
				}
				if err := flushCtx(ext, docID); err != nil {
					t.Errorf("doc %d op %d: flush: %v", d, op, err)
					return
				}
			}
		}(d)
	}
	wg.Wait()

	faults.SetEnabled(false)
	for d := 0; d < docs; d++ {
		docID := fmt.Sprintf("storm-doc-%d", d)
		c := gdocs.NewClient(ext.Client(), ts.URL, docID)
		if err := c.Load(); err != nil {
			t.Fatalf("doc %d settle load: %v", d, err)
		}
		flushDoc(t, ext, docID)
		if ext.Session(docID).Degraded() {
			t.Fatalf("doc %d still degraded after the storm", d)
		}
		finals[d] = c.Text()

		stored, _, err := server.Content(context.Background(), docID)
		if err != nil {
			t.Fatalf("content %d: %v", d, err)
		}
		plain, err := core.DecryptWith(password, stored, core.Options{})
		if err != nil {
			t.Fatalf("doc %d ciphertext broken after storm: %v", d, err)
		}
		if plain != finals[d] {
			t.Errorf("doc %d: stored plaintext diverges from session view", d)
		}
		if !strings.Contains(plain, fmt.Sprintf("STORM-MARKER-%d ", d)) {
			t.Errorf("doc %d lost its marker", d)
		}
		for other := 0; other < docs; other++ {
			if other != d && strings.Contains(plain, fmt.Sprintf("STORM-MARKER-%d ", other)) {
				t.Errorf("doc %d contains doc %d's marker: cross-document bleed under faults", d, other)
			}
		}
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
