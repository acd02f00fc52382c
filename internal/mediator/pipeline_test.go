package mediator

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/stego"
)

// decryptStored reads the server's container for docID and decrypts it,
// decoding the stego prose layer first when the session used it.
func decryptStored(t *testing.T, server *gdocs.Server, docID, pw string, stegoOn bool) string {
	t.Helper()
	stored, _, err := server.Content(context.Background(), docID)
	if err != nil {
		t.Fatalf("server content: %v", err)
	}
	if stegoOn {
		transport, err := stego.Decode(stored)
		if err != nil {
			t.Fatalf("stego decode: %v", err)
		}
		stored = transport
	}
	plain, err := core.Decrypt(pw, stored)
	if err != nil {
		t.Fatalf("decrypt stored container: %v", err)
	}
	return plain
}

// pipeWorld is one trial's cast: a server plus three writers, each with
// their own extension (sharing only the password) and client.
type pipeWorld struct {
	server  *gdocs.Server
	ts      *httptest.Server
	exts    [3]*Extension
	clients [3]*gdocs.Client
	gates   [3]*gatedTransport
}

func newPipeWorld(t *testing.T, docID string, seed int64, stegoOn bool, depth int) *pipeWorld {
	t.Helper()
	w := &pipeWorld{server: gdocs.NewServer()}
	w.ts = httptest.NewServer(w.server)
	t.Cleanup(w.ts.Close)
	for i := range w.exts {
		opts := core.Options{
			Scheme:     core.ConfidentialityIntegrity,
			BlockChars: 8,
			Nonces:     crypt.NewSeededNonceSource(uint64(seed) + uint64(i)),
		}
		extOpts := []Option{WithPipeline(depth)}
		if stegoOn {
			extOpts = append(extOpts, WithStego())
		}
		w.gates[i] = &gatedTransport{base: w.ts.Client().Transport}
		w.exts[i] = New(w.gates[i], StaticPassword("fuzz-pw", opts), extOpts...)
		w.clients[i] = gdocs.NewClient(w.exts[i].Client(), w.ts.URL, docID)
	}
	return w
}

// TestPipelineConvergesWithResyncOracle is the property fuzz for the
// OT-first save path: three writers make conflicting edits through
// encrypting extensions (transform-merge on rejected saves), and the
// converged document must be byte-identical to a resync oracle — a
// plaintext model running the same edit script with three plain clients
// on their own server and no mediator, where every conflict is resolved
// by the client's fetch-merge-retry Sync. The matrix covers both codecs
// and both queue regimes: depth 1 forces every burst to coalesce through
// delta.Compose, depth 8 keeps entries distinct so the writer transforms
// them one by one.
func TestPipelineConvergesWithResyncOracle(t *testing.T) {
	cases := []struct {
		name  string
		stego bool
		depth int
	}{
		{"base32/coalescing", false, 1},
		{"base32/deep-queue", false, 8},
		{"stego/coalescing", true, 1},
		{"stego/deep-queue", true, 8},
	}
	for ci, tc := range cases {
		tc, ci := tc, ci
		t.Run(tc.name, func(t *testing.T) {
			for trial := 0; trial < 8; trial++ {
				runOracleTrial(t, tc.stego, tc.depth, int64(1000*ci+trial))
			}
		})
	}
}

// plainWorld is the fuzz's reference model: three plain clients on their
// own server, with no mediator and no encryption.
type plainWorld struct {
	server  *gdocs.Server
	clients [3]*gdocs.Client
}

func newPlainWorld(t *testing.T, docID string) *plainWorld {
	t.Helper()
	w := &plainWorld{server: gdocs.NewServer()}
	ts := httptest.NewServer(w.server)
	t.Cleanup(ts.Close)
	for i := range w.clients {
		w.clients[i] = gdocs.NewClient(ts.Client(), ts.URL, docID)
	}
	return w
}

// writerPools gives each fuzz writer a private pool of characters,
// disjoint from the others and from the base document; every insert
// consumes one FRESH character, so no character ever appears twice in
// the document. That keeps every Myers diff exactly unambiguous, which
// is what makes the two worlds comparable byte-for-byte: with repeated
// characters, an equivalent diff can slide an edit across equal
// neighbours, and transforming equivalent-but-shifted deltas yields
// different — equally valid — merge orders. With all-distinct content,
// any divergence is a genuine transform bug.
var writerPools = [3]string{"abcdefghijkl", "mnopqrstuvwx", "ABCDEFGHIJKL"}

func runOracleTrial(t *testing.T, stegoOn bool, depth int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	docID := fmt.Sprintf("fuzz-doc-%d", seed)
	pipe := newPipeWorld(t, docID, seed, stegoOn, depth)
	oracle := newPlainWorld(t, docID)

	// Seed both worlds with the same base document: every character
	// distinct, sharing nothing with the writers' pools.
	const base = "MNOPQRSTUVWXYZ0123456789#%!?"
	for _, c := range []*gdocs.Client{pipe.clients[0], oracle.clients[0]} {
		if err := c.Create(); err != nil {
			t.Fatalf("seed %d: create: %v", seed, err)
		}
		c.SetText(base)
		if err := c.Save(); err != nil {
			t.Fatalf("seed %d: base save: %v", seed, err)
		}
	}
	flushCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := pipe.exts[0].Session(docID).Flush(flushCtx); err != nil {
		t.Fatalf("seed %d: base flush: %v", seed, err)
	}
	for i := 1; i < 3; i++ {
		if err := pipe.clients[i].Load(); err != nil {
			t.Fatalf("seed %d: pipe load %d: %v", seed, i, err)
		}
		if err := oracle.clients[i].Load(); err != nil {
			t.Fatalf("seed %d: oracle load %d: %v", seed, i, err)
		}
	}
	// Quiesce every mediator (Flush also consumes the idle catch-up the
	// loads just requested) so no background repair can reorder the
	// round's deterministic save interleaving.
	for i := range pipe.exts {
		if err := pipe.exts[i].Session(docID).Flush(flushCtx); err != nil {
			t.Fatalf("seed %d: quiesce %d: %v", seed, i, err)
		}
	}

	var tokens [3]int // per-writer unique-token counters
	for round := 0; round < 3; round++ {
		// Every writer edits from its round-start (stale) view, then
		// drains before the next writer drains — the writer order is a
		// random permutation per round, but identical in both worlds, so
		// arrival order at the server is deterministic and both worlds
		// transform against the same interleaved server deltas.
		for _, i := range rng.Perm(3) {
			// Gate the writer's backend for the whole burst: the queue
			// holds every save of the burst when the gate reopens, so the
			// conflict repair rebases the burst's composed net delta in
			// one transform — the same single-shot merge the oracle's
			// Sync computes. (Without the gate the writer races ahead,
			// rebasing a prefix of the burst against the server and the
			// remainder against the repaired lineage; both interleavings
			// converge, but iterated transforms may order position ties
			// differently than the one-shot merge, and the worlds would
			// disagree on adjacent concurrent inserts.)
			pipe.gates[i].close()
			edits := 1 + rng.Intn(3)
			for e := 0; e < edits; e++ {
				txt := pipe.clients[i].Text()
				if otxt := oracle.clients[i].Text(); otxt != txt {
					t.Fatalf("seed %d round %d: worlds diverged before edit: pipe %q oracle %q", seed, round, txt, otxt)
				}
				pos := rng.Intn(len(txt) + 1)
				del := 0
				if pos < len(txt) {
					del = rng.Intn(min(4, len(txt)-pos) + 1)
				}
				ins := string(writerPools[i][tokens[i]])
				tokens[i]++
				if err := pipe.clients[i].Replace(pos, del, ins); err != nil {
					t.Fatalf("seed %d: pipe replace: %v", seed, err)
				}
				// Saves local-ack instantly and enqueue; at depth 1
				// every burst beyond the first save coalesces.
				if err := pipe.clients[i].Save(); err != nil {
					t.Fatalf("seed %d: pipe save: %v", seed, err)
				}
				if err := oracle.clients[i].Replace(pos, del, ins); err != nil {
					t.Fatalf("seed %d: oracle replace: %v", seed, err)
				}
			}
			pipe.gates[i].open()
			if err := pipe.exts[i].Session(docID).Flush(flushCtx); err != nil {
				t.Fatalf("seed %d round %d: flush writer %d: %v", seed, round, i, err)
			}
			// The oracle pushes the same burst as one delta; conflicts
			// resolve through the client's fetch-merge-retry Sync.
			if err := oracle.clients[i].Sync(); err != nil {
				t.Fatalf("seed %d round %d: oracle sync %d: %v", seed, round, i, err)
			}
		}

		pipeText := convergePipe(t, pipe, docID, stegoOn, seed, round)
		for i := 0; i < 3; i++ {
			if err := oracle.clients[i].Refresh(); err != nil {
				t.Fatalf("seed %d round %d: oracle refresh %d: %v", seed, round, i, err)
			}
		}
		oracleText := oracle.clients[0].Text()
		for i := 1; i < 3; i++ {
			if got := oracle.clients[i].Text(); got != oracleText {
				t.Fatalf("seed %d round %d: oracle clients diverged: %q vs %q", seed, round, got, oracleText)
			}
		}
		if srv, _, err := oracle.server.Content(context.Background(), docID); err != nil || srv != oracleText {
			t.Fatalf("seed %d round %d: oracle server (%q, %v) != clients %q", seed, round, srv, err, oracleText)
		}
		if pipeText != oracleText {
			t.Fatalf("seed %d round %d: transform-merged text diverged from resync oracle:\n pipe   %q\n oracle %q",
				seed, round, pipeText, oracleText)
		}
	}
}

// convergePipe flushes and refreshes the encrypted world until all three
// clients and the decrypted server container agree, and returns the
// converged text. The idle catch-up that realigns a behind mediator is
// asynchronous, so agreement can take a few refresh passes.
func convergePipe(t *testing.T, w *pipeWorld, docID string, stegoOn bool, seed int64, round int) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	deadline := time.Now().Add(15 * time.Second)
	for {
		for i := range w.clients {
			if err := w.exts[i].Session(docID).Flush(ctx); err != nil {
				t.Fatalf("seed %d round %d: converge flush %d: %v", seed, round, i, err)
			}
			if err := w.clients[i].Refresh(); err != nil {
				t.Fatalf("seed %d round %d: converge refresh %d: %v", seed, round, i, err)
			}
		}
		text := w.clients[0].Text()
		if w.clients[1].Text() == text && w.clients[2].Text() == text &&
			decryptStored(t, w.server, docID, "fuzz-pw", stegoOn) == text {
			// One more quiescing pass: the refreshes above requested idle
			// catch-ups; consume them so the next round's saves cannot race
			// a background repair.
			for i := range w.exts {
				if err := w.exts[i].Session(docID).Flush(ctx); err != nil {
					t.Fatalf("seed %d round %d: quiesce flush %d: %v", seed, round, i, err)
				}
			}
			return text
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed %d round %d: encrypted world failed to converge: %q / %q / %q / server %q",
				seed, round, w.clients[0].Text(), w.clients[1].Text(), w.clients[2].Text(),
				decryptStored(t, w.server, docID, "fuzz-pw", stegoOn))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gatedTransport blocks every round trip while the gate is closed,
// simulating a backend that stops answering without erroring.
type gatedTransport struct {
	base    http.RoundTripper
	mu      sync.Mutex
	gate    chan struct{} // non-nil while closed; receive unblocks
	blocked int           // round trips that have waited at a closed gate
}

func (g *gatedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	ch := g.gate
	if ch != nil {
		g.blocked++
	}
	g.mu.Unlock()
	if ch != nil {
		select {
		case <-ch:
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	return g.base.RoundTrip(req)
}

func (g *gatedTransport) close() { g.mu.Lock(); g.gate = make(chan struct{}); g.mu.Unlock() }
func (g *gatedTransport) open() {
	g.mu.Lock()
	ch := g.gate
	g.gate = nil
	g.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// TestFlushWaitsForInflightCatchup pins Flush as a barrier against an
// idle catch-up that is still fetching: the writer clears its catch-up
// request before it unlocks to fetch, and a Flush that returned during
// the fetch would let the client save against a version the repair is
// about to bump.
func TestFlushWaitsForInflightCatchup(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()
	gated := &gatedTransport{base: ts.Client().Transport}
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(31)}
	ext := New(gated, StaticPassword("pw", opts))
	client := gdocs.NewClient(ext.Client(), ts.URL, "catchup-doc")
	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("before the catch-up")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	sess := ext.Session("catchup-doc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// Refresh asks the writer for a catch-up; wait until its fetch is
	// parked at the closed gate.
	gated.close()
	if err := client.Refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for {
		gated.mu.Lock()
		n := gated.blocked
		gated.mu.Unlock()
		if n > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("catch-up fetch never reached the transport")
		}
		time.Sleep(time.Millisecond)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if err := sess.Flush(short); err == nil {
		t.Fatal("Flush returned while the idle catch-up was still fetching")
	}
	gated.open()
	if err := sess.Flush(ctx); err != nil {
		t.Fatalf("flush after the catch-up: %v", err)
	}
}

// TestRefusedSavesAreNotDurable pins how a save the server refuses for
// good (here its size quota) is reported: the save acks locally, the
// writer drops it after repeated refusals, and the next Flush — or, with
// no Flush, Close — fails, once, instead of passing the edit off as
// durable.
func TestRefusedSavesAreNotDurable(t *testing.T) {
	for _, flushFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("flush=%v", flushFirst), func(t *testing.T) {
			server := gdocs.NewServer()
			server.SetMaxBytes(4096)
			ts := httptest.NewServer(server)
			defer ts.Close()
			opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(41)}
			ext := New(ts.Client().Transport, StaticPassword("pw", opts))
			client := gdocs.NewClient(ext.Client(), ts.URL, "quota-doc")
			if err := client.Create(); err != nil {
				t.Fatalf("create: %v", err)
			}
			client.SetText(strings.Repeat("over quota ", 400))
			if err := client.Save(); err != nil {
				t.Fatalf("save should ack locally: %v", err)
			}
			sess := ext.Session("quota-doc")
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if flushFirst {
				if err := sess.Flush(ctx); err == nil || !strings.Contains(err.Error(), "413") {
					t.Fatalf("flush: %v, want the 413 refusal reported", err)
				}
				if err := sess.Flush(ctx); err != nil {
					t.Errorf("second flush: %v, want the refusal reported only once", err)
				}
				if err := sess.Close(); err != nil {
					t.Errorf("close: %v, want nothing left to report", err)
				}
				return
			}
			for sess.Stats().Dropped == 0 {
				if ctx.Err() != nil {
					t.Fatal("the writer never dropped the refused save")
				}
				time.Sleep(time.Millisecond)
			}
			if err := sess.Close(); err == nil || !strings.Contains(err.Error(), "1 saves never reached") {
				t.Errorf("close: %v, want the dropped save reported", err)
			}
		})
	}
}

// TestSlowBackendNeverBlocksLocalEdits is the queue's liveness property,
// meant for -race runs: with the backend wedged and the pipeline queue at
// max depth, local edits and saves must keep completing immediately (new
// saves coalesce into the queue tail instead of waiting for a slot), and
// once the backend recovers everything drains and converges.
func TestSlowBackendNeverBlocksLocalEdits(t *testing.T) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()
	gated := &gatedTransport{base: ts.Client().Transport}

	const depth = 2
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(777)}
	ext := New(gated, StaticPassword("slow-pw", opts), WithPipeline(depth))
	client := gdocs.NewClient(ext.Client(), ts.URL, "slow-doc")

	if err := client.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	client.SetText("base text for the slow backend liveness test")
	if err := client.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := ext.Session("slow-doc").Flush(ctx); err != nil {
		t.Fatalf("base flush: %v", err)
	}

	// Wedge the backend, then hammer local edits. Every save must return
	// promptly even though nothing can reach the server: the first fills
	// the in-flight slot, the next fill the queue, and the rest coalesce.
	gated.close()
	const edits = 150
	start := time.Now()
	var worst time.Duration
	for i := 0; i < edits; i++ {
		if err := client.Insert(0, fmt.Sprintf("e%d.", i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		s0 := time.Now()
		if err := client.Save(); err != nil {
			t.Fatalf("save %d with backend wedged: %v", i, err)
		}
		if d := time.Since(s0); d > worst {
			worst = d
		}
	}
	elapsed := time.Since(start)
	// Generous bounds: a single blocked round trip would alone exceed
	// these, so any lock held across the network shows up immediately.
	if worst > 2*time.Second {
		t.Errorf("slowest local save took %v with the backend wedged; the queue is blocking edits", worst)
	}
	if elapsed > 10*time.Second {
		t.Errorf("%d local saves took %v with the backend wedged", edits, elapsed)
	}
	st := ext.Session("slow-doc").Stats()
	if st.Pending > depth {
		t.Errorf("queue depth %d exceeds configured max %d", st.Pending, depth)
	}
	if st.Coalesced == 0 {
		t.Errorf("expected saves beyond depth %d to coalesce, stats = %+v", depth, st)
	}
	if !ext.Session("slow-doc").Degraded() {
		t.Error("session not degraded while backend wedged with a full queue")
	}

	// Recovery: open the gate, drain, and prove byte convergence.
	want := client.Text()
	gated.open()
	if err := ext.Session("slow-doc").Flush(ctx); err != nil {
		t.Fatalf("drain flush: %v", err)
	}
	if got := decryptStored(t, server, "slow-doc", "slow-pw", false); got != want {
		t.Errorf("server text after drain = %q, want %q", got, want)
	}
	if err := client.Refresh(); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if client.Text() != want {
		t.Errorf("client text after drain = %q, want %q", client.Text(), want)
	}
}
