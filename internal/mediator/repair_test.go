package mediator

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unsafe"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
)

// TestConflictRepairReopensOnlyTheEdit drives one version conflict on a
// 20,000-character document (RPC, b = 8, about 2,500 records) and pins
// what the repair costs: re-opening the shadow editor over the server's
// new container must decode and verify only the records the two edits
// changed, never the whole container. It also pins the invariant that
// replaced the shadow's plaintext reads: a transformed entry's sentPlain
// is its after string itself, not a copy rebuilt from the editor.
func TestConflictRepairReopensOnlyTheEdit(t *testing.T) {
	obs.Enable()
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()
	const docID = "repair-cost-doc"
	opts := func(seed uint64) core.Options {
		return core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(seed)}
	}
	extA := New(ts.Client().Transport, StaticPassword("pw", opts(51)))
	gateB := &gatedTransport{base: ts.Client().Transport}
	extB := New(gateB, StaticPassword("pw", opts(52)))
	ca := gdocs.NewClient(extA.Client(), ts.URL, docID)
	cb := gdocs.NewClient(extB.Client(), ts.URL, docID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	text := strings.Repeat("the quick brown fox jumps over a lazy dog ", 477)[:20000]
	if err := ca.Create(); err != nil {
		t.Fatal(err)
	}
	ca.SetText(text)
	if err := ca.Save(); err != nil {
		t.Fatal(err)
	}
	if err := extA.Session(docID).Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cb.Load(); err != nil {
		t.Fatal(err)
	}
	if err := extB.Session(docID).Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// A's edit lands first; B's edit, far from it, goes out against the
	// old version and is rejected.
	if err := ca.Replace(15000, 5, "REMOTE"); err != nil {
		t.Fatal(err)
	}
	if err := ca.Save(); err != nil {
		t.Fatal(err)
	}
	if err := extA.Session(docID).Flush(ctx); err != nil {
		t.Fatal(err)
	}
	gateB.close()
	if err := cb.Replace(5000, 3, "LOCAL"); err != nil {
		t.Fatal(err)
	}
	if err := cb.Save(); err != nil {
		t.Fatal(err)
	}
	for {
		gateB.mu.Lock()
		n := gateB.blocked
		gateB.mu.Unlock()
		if n > 0 {
			break
		}
		if ctx.Err() != nil {
			t.Fatal("B's save never reached the transport")
		}
		time.Sleep(time.Millisecond)
	}
	sess := extB.sessions[docID]
	sess.mu.Lock()
	ent := sess.pl.queue[0]
	if ent.sentPlain != ent.after || unsafe.StringData(ent.sentPlain) != unsafe.StringData(ent.after) {
		t.Error("sentPlain is not the entry's after string")
	}
	if sess.shadow != ent.after || sess.ed.Plaintext() != sess.shadow {
		t.Error("the shadow's tracked plaintext is not what its editor holds")
	}
	sess.mu.Unlock()

	opened := obs.Default.Value("privedit_block_records_opened_total")
	gateB.open()
	if err := extB.Session(docID).Flush(ctx); err != nil {
		t.Fatal(err)
	}
	opened = obs.Default.Value("privedit_block_records_opened_total") - opened
	if st := extB.Session(docID).Stats(); st.OTMerges != 1 || st.ConflictResyncs != 0 {
		t.Fatalf("stats %+v, want exactly one OT-merged conflict", st)
	}
	// Each edit rewrites its own blocks and one left neighbour; the repair
	// reverts B's and takes in A's. A whole re-open would be ~2,500.
	if opened < 1 || opened > 16 {
		t.Errorf("repair opened %v records, want a handful", opened)
	}
	want := text[:5000] + "LOCAL" + text[5003:15000] + "REMOTE" + text[15005:]
	if got := decryptStored(t, server, docID, "pw", false); got != want {
		t.Error("merged document differs from both edits applied")
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.shadow != sess.pl.srvPlain || sess.ed.Plaintext() != sess.shadow {
		t.Error("after the repair the shadow's tracked plaintext is not what its editor holds")
	}
}
