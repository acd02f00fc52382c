package mediator

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
)

// harness wires a simulated Google Documents server, a mediating
// extension, and a client application together.
type harness struct {
	server *gdocs.Server
	ts     *httptest.Server
	ext    *Extension
	client *gdocs.Client
}

func newHarness(t *testing.T, scheme core.Scheme, mit *covert.Mitigator) *harness {
	t.Helper()
	server := gdocs.NewServer()
	server.EnableObservation()
	ts := httptest.NewServer(server)
	t.Cleanup(ts.Close)
	opts := core.Options{
		Scheme:     scheme,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(12345),
	}
	ext := New(ts.Client().Transport, StaticPassword("hunter2", opts), WithMitigator(mit))
	client := gdocs.NewClient(ext.Client(), ts.URL, "private-doc")
	return &harness{server: server, ts: ts, ext: ext, client: client}
}

// flush waits until ext has carried every queued save of docID to the
// server; a test reads server state or opens a second extension only
// after it.
func flush(t *testing.T, ext *Extension, docID string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ext.Session(docID).Flush(ctx); err != nil {
		t.Fatalf("flush %s: %v", docID, err)
	}
}

// assertNoLeak fails if any fragment of plaintext reached the server.
func (h *harness) assertNoLeak(t *testing.T, plaintexts ...string) {
	t.Helper()
	observed := h.server.Observed()
	for _, p := range plaintexts {
		for i := 0; i+4 <= len(p); i++ {
			frag := p[i : i+4]
			if strings.Contains(observed, frag) {
				t.Fatalf("plaintext fragment %q leaked to the server", frag)
			}
		}
	}
}

func TestEndToEndEditingSession(t *testing.T) {
	for _, scheme := range []core.Scheme{core.ConfidentialityOnly, core.ConfidentialityIntegrity} {
		t.Run(scheme.String(), func(t *testing.T) {
			h := newHarness(t, scheme, nil)
			secret := "Attack at dawn. The password to the vault is 77-99-13."

			if err := h.client.Create(); err != nil {
				t.Fatalf("Create: %v", err)
			}
			h.client.SetText(secret)
			if err := h.client.Save(); err != nil { // full save -> encrypted
				t.Fatalf("full save: %v", err)
			}
			if err := h.client.Insert(15, "Bring rope. "); err != nil {
				t.Fatal(err)
			}
			if err := h.client.Save(); err != nil { // delta save -> transformed
				t.Fatalf("delta save: %v", err)
			}
			if err := h.client.Replace(0, 6, "Defend"); err != nil {
				t.Fatal(err)
			}
			if err := h.client.Save(); err != nil {
				t.Fatalf("third save: %v", err)
			}

			want := h.client.Text()
			flush(t, h.ext, "private-doc")
			// Server stores only ciphertext.
			stored, _, err := h.server.Content(context.Background(), "private-doc")
			if err != nil {
				t.Fatalf("server content: %v", err)
			}
			if strings.Contains(stored, "dawn") || strings.Contains(stored, "vault") {
				t.Error("server stores plaintext")
			}
			h.assertNoLeak(t, secret, want)

			// The stored container decrypts to the client's text.
			got, err := core.Decrypt("hunter2", stored)
			if err != nil {
				t.Fatalf("decrypt stored: %v", err)
			}
			if got != want {
				t.Errorf("stored container decrypts to %q, want %q", got, want)
			}

			st := h.ext.Stats()
			if st.FullEncrypts != 1 || st.DeltasTransformed != 2 {
				t.Errorf("stats = %+v", st)
			}
		})
	}
}

func TestLoadDecryptsForNewSession(t *testing.T) {
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("persistent secret")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	flush(t, h.ext, "private-doc")

	// A second session (fresh extension, same password) loads the doc.
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8, Nonces: crypt.NewSeededNonceSource(777)}
	ext2 := New(h.ts.Client().Transport, StaticPassword("hunter2", opts))
	client2 := gdocs.NewClient(ext2.Client(), h.ts.URL, "private-doc")
	if err := client2.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if client2.Text() != "persistent secret" {
		t.Errorf("second session sees %q", client2.Text())
	}
	// And can continue editing incrementally.
	if err := client2.Insert(0, "still "); err != nil {
		t.Fatal(err)
	}
	if err := client2.Save(); err != nil { // session's first save: full
		t.Fatalf("save: %v", err)
	}
	if err := client2.Insert(0, "and "); err != nil {
		t.Fatal(err)
	}
	if err := client2.Save(); err != nil { // delta
		t.Fatalf("delta save: %v", err)
	}
	flush(t, ext2, "private-doc")
	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	got, err := core.Decrypt("hunter2", stored)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if got != "and still persistent secret" {
		t.Errorf("final = %q", got)
	}
}

func TestWrongPasswordOnLoad(t *testing.T) {
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("locked away")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	flush(t, h.ext, "private-doc")
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, Nonces: crypt.NewSeededNonceSource(1)}
	extWrong := New(h.ts.Client().Transport, StaticPassword("not the password", opts))
	// Every attempt is blocked, derives the key again (a key that failed
	// its check is never cached) and counts a password failure.
	obs.Enable()
	for attempt := 1; attempt <= 2; attempt++ {
		failures, derivations := metricPasswordFailures.Value(), metricKeyDerivations.Value()
		clientWrong := gdocs.NewClient(extWrong.Client(), h.ts.URL, "private-doc")
		if err := clientWrong.Load(); !errors.Is(err, gdocs.ErrBlocked) {
			t.Errorf("attempt %d: wrong-password load = %v, want ErrBlocked", attempt, err)
		}
		if f, d := metricPasswordFailures.Value()-failures, metricKeyDerivations.Value()-derivations; f != 1 || d != 1 {
			t.Errorf("attempt %d: password failures +%d, key derivations +%d, want +1 each", attempt, f, d)
		}
	}
}

func TestUnknownRequestsBlocked(t *testing.T) {
	// §VII-A features that need server-side plaintext must never leave
	// the client: translate, spell check, drawing, export.
	h := newHarness(t, core.ConfidentialityOnly, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("secret words")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	flush(t, h.ext, "private-doc")
	for _, path := range []string{gdocs.PathTranslate, gdocs.PathSpell, gdocs.PathDrawing, gdocs.PathExport} {
		if _, err := h.client.Feature(path); !errors.Is(err, gdocs.ErrBlocked) {
			t.Errorf("feature %s = %v, want ErrBlocked", path, err)
		}
	}
	if h.ext.Stats().Blocked != 4 {
		t.Errorf("blocked count = %d, want 4", h.ext.Stats().Blocked)
	}
	h.assertNoLeak(t, "secret words")
}

func TestAckContentBlanked(t *testing.T) {
	// The client must work from a blank contentFromServer/Hash (§IV-A):
	// the extension acks locally with the version alone, and the server's
	// own acks to its versioned saves carry no ciphertext echo either.
	h := newHarness(t, core.ConfidentialityOnly, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("abc")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	// The client's view of the version still advances (field preserved).
	if h.client.Version() != 1 {
		t.Errorf("version = %d, want 1", h.client.Version())
	}
}

func TestTamperedContainerRejectedOnLoad(t *testing.T) {
	// A malicious server modifies the stored ciphertext; with RPC the
	// extension detects it at load time.
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("integrity matters here")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	flush(t, h.ext, "private-doc")
	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	// Malicious server swaps the first two data records. RPC containers
	// here: 101-char prefix, then 52 transport chars per 32-byte record.
	const prefix, recLen = 101, 52
	if len(stored) < prefix+3*recLen {
		t.Fatalf("container unexpectedly small (%d chars)", len(stored))
	}
	r1 := stored[prefix : prefix+recLen]
	r2 := stored[prefix+recLen : prefix+2*recLen]
	tampered := stored[:prefix] + r2 + r1 + stored[prefix+2*recLen:]
	if _, err := h.server.SetContents(context.Background(), "private-doc", tampered, -1); err != nil {
		t.Fatalf("tamper: %v", err)
	}

	opts := core.Options{Scheme: core.ConfidentialityIntegrity, Nonces: crypt.NewSeededNonceSource(3)}
	ext2 := New(h.ts.Client().Transport, StaticPassword("hunter2", opts))
	client2 := gdocs.NewClient(ext2.Client(), h.ts.URL, "private-doc")
	if err := client2.Load(); !errors.Is(err, gdocs.ErrBlocked) {
		t.Errorf("tampered load = %v, want ErrBlocked (integrity failure)", err)
	}
}

func TestMaliciousClientDeltaCanonicalized(t *testing.T) {
	// §VI-B's covert channel: a malicious client encodes Ord(q) in
	// redundant insert/delete pairs. With the mitigator installed, the
	// ciphertext delta the server sees is identical to the one an honest
	// client would have produced.
	mit := covert.New(covert.Config{CanonicalizeDeltas: true}, crypt.NewSeededNonceSource(9))
	h := newHarness(t, core.ConfidentialityOnly, mit)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("covert channel base text")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Malicious delta: the insertion of a 17-character word fragmented
	// into 17 one-character inserts, so the op count encodes Ord(q)=17.
	// (The paper's insert-then-delete trick is a variant of the same
	// op-sequence channel.)
	var mal delta.Delta
	word := "qqqqqqqqqqqqqqqqq"
	for _, ch := range word {
		mal = append(mal, delta.InsertOp(string(ch)))
	}
	if _, err := h.client.SaveRawDelta(mal); err != nil {
		t.Fatalf("SaveRawDelta: %v", err)
	}
	flush(t, h.ext, "private-doc")
	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	got, err := core.Decrypt("hunter2", stored)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if got != word+"covert channel base text" {
		t.Errorf("content after malicious delta = %q", got)
	}
	// The canonicalized ciphertext delta must not reveal 17 separate ops:
	// the mediator's editor saw one merged insert. We can't observe the
	// wire directly here, but the server-side observation log records the
	// delta; count its operations.
	observed := h.server.Observed()
	lines := strings.Split(observed, "\n")
	last := ""
	for _, l := range lines {
		if strings.Contains(l, "=") || strings.Contains(l, "+") {
			last = l
		}
	}
	if n := strings.Count(last, "\t"); n > 6 {
		t.Errorf("ciphertext delta has %d+1 ops; canonicalization failed", n)
	}
}

func TestPaddingFieldIgnoredByServer(t *testing.T) {
	mit := covert.New(covert.Config{PadQuantum: 128}, crypt.NewSeededNonceSource(10))
	h := newHarness(t, core.ConfidentialityOnly, mit)
	if err := h.client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	h.client.SetText("padded save")
	if err := h.client.Save(); err != nil {
		t.Fatalf("save with padding: %v", err)
	}
	flush(t, h.ext, "private-doc")
	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	got, err := core.Decrypt("hunter2", stored)
	if err != nil || got != "padded save" {
		t.Errorf("padded save result = (%q, %v)", got, err)
	}
}

func TestPerDocumentEditors(t *testing.T) {
	h := newHarness(t, core.ConfidentialityOnly, nil)
	c1 := gdocs.NewClient(h.ext.Client(), h.ts.URL, "doc-a")
	c2 := gdocs.NewClient(h.ext.Client(), h.ts.URL, "doc-b")
	if err := c1.Create(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Create(); err != nil {
		t.Fatal(err)
	}
	c1.SetText("alpha")
	c2.SetText("beta")
	if err := c1.Save(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Save(); err != nil {
		t.Fatal(err)
	}
	flush(t, h.ext, "doc-a")
	flush(t, h.ext, "doc-b")
	edA, edB := h.ext.Session("doc-a").Editor(), h.ext.Session("doc-b").Editor()
	if edA == nil || edB == nil {
		t.Fatal("missing per-document editors")
	}
	if edA == edB {
		t.Error("documents share an editor")
	}
	sA, _, _ := h.server.Content(context.Background(), "doc-a")
	sB, _, _ := h.server.Content(context.Background(), "doc-b")
	gA, err := core.Decrypt("hunter2", sA)
	if err != nil || gA != "alpha" {
		t.Errorf("doc-a = (%q, %v)", gA, err)
	}
	gB, err := core.Decrypt("hunter2", sB)
	if err != nil || gB != "beta" {
		t.Errorf("doc-b = (%q, %v)", gB, err)
	}
}

func TestCollaborationThroughSharedPassword(t *testing.T) {
	// §IV-C: sharing = share the document plus the password out of band.
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	if err := h.client.Create(); err != nil {
		t.Fatal(err)
	}
	h.client.SetText("shared secret doc")
	if err := h.client.Save(); err != nil {
		t.Fatal(err)
	}
	flush(t, h.ext, "private-doc")

	// Friend with the right password: reads fine.
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, Nonces: crypt.NewSeededNonceSource(2)}
	extFriend := New(h.ts.Client().Transport, StaticPassword("hunter2", opts))
	friend := gdocs.NewClient(extFriend.Client(), h.ts.URL, "private-doc")
	if err := friend.Load(); err != nil {
		t.Fatalf("friend load: %v", err)
	}
	if friend.Text() != "shared secret doc" {
		t.Errorf("friend sees %q", friend.Text())
	}

	// Server (no password) sees only ciphertext.
	stored, _, _ := h.server.Content(context.Background(), "private-doc")
	if strings.Contains(stored, "shared") {
		t.Error("server can read the shared doc")
	}
}
