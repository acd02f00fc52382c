package mediator

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// edit is one Replace on a client's working copy.
type edit struct {
	pos, n int
	text   string
}

func apply(t *testing.T, c *gdocs.Client, edits ...edit) {
	t.Helper()
	for _, e := range edits {
		if err := c.Replace(e.pos, e.n, e.text); err != nil {
			t.Fatalf("replace %+v: %v", e, err)
		}
	}
}

// startPair opens docID for alice and bob through httpc: a creator saves
// base, then each of them loads it and makes the session's full-content
// save, so their next saves are deltas, and both end at the same version.
func startPair(t *testing.T, httpc *http.Client, url, docID, base string) (alice, bob *gdocs.Client) {
	t.Helper()
	creator := gdocs.NewClient(httpc, url, docID)
	if err := creator.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	creator.SetText(base)
	if err := creator.Save(); err != nil {
		t.Fatalf("base save: %v", err)
	}
	alice = gdocs.NewClient(httpc, url, docID)
	bob = gdocs.NewClient(httpc, url, docID)
	for _, c := range []*gdocs.Client{alice, bob} {
		if err := c.Load(); err != nil {
			t.Fatalf("load: %v", err)
		}
		if err := c.Save(); err != nil {
			t.Fatalf("session save: %v", err)
		}
	}
	// Against a plain server bob's full save bumped the version.
	if err := alice.Refresh(); err != nil {
		t.Fatalf("alice refresh: %v", err)
	}
	return alice, bob
}

func newMergeExtension(ts *httptest.Server, opts ...Option) *Extension {
	return New(ts.Client().Transport, StaticPassword("merge-pw", core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(77),
	}), opts...)
}

// TestStaleDeltaSaveMergesLikeSync: a delta save from a client whose view
// is behind is merged by the extension on ingest, acked at once, and
// lands on the same text, byte for byte, as Client.Sync's
// fetch-merge-retry against a plain server. Same-position inserts
// exercise the tie rule: the edit already applied comes first.
func TestStaleDeltaSaveMergesLikeSync(t *testing.T) {
	const base = "The quick brown fox jumps"
	cases := []struct {
		name  string
		alice []edit // each saved on its own
		bob   []edit // saved as one burst, from the stale view
		want  string
	}{
		{"same-position inserts", []edit{{4, 0, "very "}}, []edit{{4, 0, "so "}},
			"The very so quick brown fox jumps"},
		{"insert inside a concurrent delete", []edit{{4, 6, ""}}, []edit{{6, 0, "XX"}},
			"The XXbrown fox jumps"},
		{"two unseen saves, overlapping replaces", []edit{{0, 3, "A"}, {8, 5, "red"}},
			[]edit{{10, 9, "grey cat"}, {0, 0, ">"}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			docID := "merge-doc"

			// The reference: plain clients on a plain server, where bob's
			// stale save conflicts and Sync merges it.
			plainSrv := httptest.NewServer(gdocs.NewServer())
			defer plainSrv.Close()
			pa, pb := startPair(t, plainSrv.Client(), plainSrv.URL, docID, base)
			for _, e := range tc.alice {
				apply(t, pa, e)
				if err := pa.Save(); err != nil {
					t.Fatalf("plain alice save: %v", err)
				}
			}
			apply(t, pb, tc.bob...)
			if err := pb.Save(); !errors.Is(err, gdocs.ErrConflict) {
				t.Fatalf("plain bob stale save = %v, want a conflict", err)
			}
			if err := pb.Sync(); err != nil {
				t.Fatalf("plain bob sync: %v", err)
			}
			want := pb.Text()
			if tc.want != "" && want != tc.want {
				t.Fatalf("Sync merged to %q, want %q", want, tc.want)
			}

			// Both users behind one extension: bob's stale save is merged
			// on ingest, with no conflict.
			h := newHarness(t, core.ConfidentialityIntegrity, nil)
			ext := newMergeExtension(h.ts)
			ma, mb := startPair(t, ext.Client(), h.ts.URL, docID, base)
			for _, e := range tc.alice {
				apply(t, ma, e)
				if err := ma.Save(); err != nil {
					t.Fatalf("mediated alice save: %v", err)
				}
			}
			apply(t, mb, tc.bob...)
			if err := mb.Save(); err != nil {
				t.Fatalf("mediated bob stale save: %v", err)
			}
			if got := mb.Text(); got != want {
				t.Errorf("merged on ingest to %q, Sync to %q", got, want)
			}
			if mb.Dirty() {
				t.Error("bob dirty after the merged save")
			}
			flush(t, ext, docID)
			if err := ma.Refresh(); err != nil {
				t.Fatalf("alice refresh: %v", err)
			}
			if got := ma.Text(); got != want {
				t.Errorf("alice sees %q, bob %q", got, want)
			}
			if got := decryptStored(t, h.server, docID, "merge-pw", false); got != want {
				t.Errorf("server holds %q, want %q", got, want)
			}
		})
	}
}

// TestStaleDeltaSaveRingGapConflicts: when the extension's catch-up ring
// no longer reaches back to a stale save's version — here bob's session
// was closed, and the new one starts at the server's version with an
// empty ring — the save still gets a 409, and Sync converges over a full
// fetch.
func TestStaleDeltaSaveRingGapConflicts(t *testing.T) {
	const docID = "gap-doc"
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	extA, extB := newMergeExtension(h.ts), newMergeExtension(h.ts)
	alice := gdocs.NewClient(extA.Client(), h.ts.URL, docID)
	if err := alice.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	alice.SetText("HEAD middle TAIL")
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	flush(t, extA, docID)
	bob := gdocs.NewClient(extB.Client(), h.ts.URL, docID)
	if err := bob.Load(); err != nil {
		t.Fatalf("bob load: %v", err)
	}
	if err := bob.Save(); err != nil {
		t.Fatalf("bob session save: %v", err)
	}
	flush(t, extB, docID)

	apply(t, alice, edit{0, 4, "FRONT"})
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	flush(t, extA, docID)
	if err := extB.Session(docID).Close(); err != nil {
		t.Fatalf("close bob's session: %v", err)
	}

	apply(t, bob, edit{12, 4, "BACK"})
	if err := bob.Save(); !errors.Is(err, gdocs.ErrConflict) {
		t.Fatalf("bob save across a ring gap = %v, want a conflict", err)
	}
	if err := bob.Sync(); err != nil {
		t.Fatalf("bob sync: %v", err)
	}
	const want = "FRONT middle BACK"
	if got := bob.Text(); got != want {
		t.Errorf("bob = %q, want %q", got, want)
	}
	flush(t, extB, docID)
	if got := decryptStored(t, h.server, docID, "merge-pw", false); got != want {
		t.Errorf("server holds %q, want %q", got, want)
	}
}

// TestStaleDeltaSaveCanonicalized: with the covert-channel mitigator on,
// the rebased delta is canonicalized against the extension's current
// text like any other save, so what is queued and recorded is the
// minimal diff, not the transform's spelling of it.
func TestStaleDeltaSaveCanonicalized(t *testing.T) {
	const docID = "canon-doc"
	for _, canon := range []bool{false, true} {
		h := newHarness(t, core.ConfidentialityIntegrity, nil)
		mit := covert.New(covert.Config{CanonicalizeDeltas: canon}, crypt.NewSeededNonceSource(9))
		ext := newMergeExtension(h.ts, WithMitigator(mit))
		alice, bob := startPair(t, ext.Client(), h.ts.URL, docID, "yz")
		apply(t, alice, edit{1, 0, "y"})
		if err := alice.Save(); err != nil {
			t.Fatalf("alice save: %v", err)
		}
		// Bob replaces the first "y" of his stale view. Rebased over
		// alice's insert, the transform deletes the first "y" of "yyz" and
		// inserts after the second; the minimal diff of the same merge
		// keeps the first and deletes the second.
		apply(t, bob, edit{0, 1, "z"})
		if err := bob.Save(); err != nil {
			t.Fatalf("bob stale save: %v", err)
		}
		const merged = "yzz"
		if got := bob.Text(); got != merged {
			t.Errorf("canon=%v: bob = %q, want %q", canon, got, merged)
		}
		sess := ext.sessionFor(docID)
		sess.mu.Lock()
		recorded := sess.pl.hist[len(sess.pl.hist)-1].delta
		sess.mu.Unlock()
		want := "-1\t=1\t+z"
		if canon {
			want = "=1\t-1\t+z"
		}
		if recorded != want {
			t.Errorf("canon=%v: recorded %q, want %q", canon, recorded, want)
		}
		flush(t, ext, docID)
		if got := decryptStored(t, h.server, docID, "merge-pw", false); got != merged {
			t.Errorf("canon=%v: server holds %q", canon, got)
		}
	}
}

// catchupCounter counts the delta catch-up responses an extension
// serves its own client.
type catchupCounter struct {
	base http.RoundTripper
	n    int
}

func (c *catchupCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err == nil && resp.Header.Get(gdocs.HeaderDeltas) != "" {
		c.n++
	}
	return resp, err
}

// TestStaleFullSaveSyncsOverCatchup: a stale full-content save (the first
// save of a session, made after someone else saved) still conflicts, and
// Sync recovers through the extension's GET /Doc?since= catch-up, served
// from the ring rather than as the whole document.
func TestStaleFullSaveSyncsOverCatchup(t *testing.T) {
	const docID = "full-doc"
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	ext := newMergeExtension(h.ts)
	alice := gdocs.NewClient(ext.Client(), h.ts.URL, docID)
	if err := alice.Create(); err != nil {
		t.Fatalf("create: %v", err)
	}
	alice.SetText("HEAD middle TAIL")
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	counter := &catchupCounter{base: ext}
	bob := gdocs.NewClient(&http.Client{Transport: counter}, h.ts.URL, docID)
	if err := bob.Load(); err != nil {
		t.Fatalf("bob load: %v", err)
	}
	apply(t, alice, edit{0, 4, "FRONT"})
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	apply(t, bob, edit{12, 4, "BACK"})
	if err := bob.Save(); !errors.Is(err, gdocs.ErrConflict) {
		t.Fatalf("bob stale full save = %v, want a conflict", err)
	}
	if err := bob.Sync(); err != nil {
		t.Fatalf("bob sync: %v", err)
	}
	const want = "FRONT middle BACK"
	if got := bob.Text(); got != want {
		t.Errorf("bob = %q, want %q", got, want)
	}
	if counter.n != 1 {
		t.Errorf("bob's Sync got %d delta catch-ups, want 1", counter.n)
	}
	flush(t, ext, docID)
	if got := decryptStored(t, h.server, docID, "merge-pw", false); got != want {
		t.Errorf("server holds %q, want %q", got, want)
	}
}
