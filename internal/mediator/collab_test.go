package mediator

import (
	"context"
	"errors"
	"testing"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
)

// TestEncryptedCollaborationWithSync runs two users with independent
// extensions (sharing only the password) editing the same encrypted
// document concurrently — all without the server ever seeing plaintext.
// This goes beyond the paper's §VII-A (which stopped at "simultaneous
// editing leads to conflicts"): a save that loses the race at the server
// is merged by the extension's queue with delta.Transform, and a client
// that edits a stale view recovers through its own OT merge (Sync) over
// the extension's catch-up deltas.
func TestEncryptedCollaborationWithSync(t *testing.T) {
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(4242),
	}
	extA := New(h.ts.Client().Transport, StaticPassword("hunter2", opts))
	extB := New(h.ts.Client().Transport, StaticPassword("hunter2", opts))
	alice := gdocs.NewClient(extA.Client(), h.ts.URL, "pad")
	bob := gdocs.NewClient(extB.Client(), h.ts.URL, "pad")

	if err := alice.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	alice.SetText("HEAD middle TAIL")
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	flush(t, extA, "pad")
	if err := bob.Load(); err != nil {
		t.Fatalf("bob load: %v", err)
	}
	if bob.Text() != "HEAD middle TAIL" {
		t.Fatalf("bob sees %q", bob.Text())
	}
	flush(t, extB, "pad")

	// Concurrent saves: alice rewrites the head, bob the tail. Bob's save
	// reaches the server second, conflicts there, and his extension merges
	// it over alice's.
	if err := alice.Replace(0, 4, "FRONT"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Save(); err != nil {
		t.Fatalf("alice save: %v", err)
	}
	flush(t, extA, "pad")
	if err := bob.Replace(12, 4, "BACK"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Save(); err != nil {
		t.Fatalf("bob save: %v", err)
	}
	flush(t, extB, "pad")
	if st := extB.Stats(); st.OTMerges != 1 {
		t.Errorf("bob's extension OTMerges = %d, want 1", st.OTMerges)
	}
	if err := bob.Refresh(); err != nil {
		t.Fatalf("bob refresh: %v", err)
	}
	if bob.Text() != "FRONT middle BACK" {
		t.Errorf("merged = %q, want both edits", bob.Text())
	}

	// Alice's extension folds bob's save in on an idle catch-up; alice,
	// who kept editing her stale view, gets a conflict and merges it with
	// Sync.
	if err := alice.Refresh(); err != nil {
		t.Fatalf("alice refresh: %v", err)
	}
	flush(t, extA, "pad")
	if err := alice.Insert(0, ">"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Save(); !errors.Is(err, gdocs.ErrConflict) {
		t.Fatalf("alice stale save = %v, want conflict first", err)
	}
	if err := alice.Sync(); err != nil {
		t.Fatalf("alice sync: %v", err)
	}
	const want = ">FRONT middle BACK"
	if alice.Text() != want {
		t.Errorf("alice merged = %q, want %q", alice.Text(), want)
	}
	flush(t, extA, "pad")
	if err := bob.Refresh(); err != nil {
		t.Fatalf("bob refresh: %v", err)
	}
	flush(t, extB, "pad")
	if err := bob.Refresh(); err != nil {
		t.Fatalf("bob refresh: %v", err)
	}
	if bob.Text() != want {
		t.Errorf("bob %q, want %q", bob.Text(), want)
	}

	// Throughout all of this the server saw only ciphertext.
	h.assertNoLeak(t, "HEAD middle TAIL", "FRONT middle BACK")
	stored, _, err := h.server.Content(context.Background(), "pad")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	got, err := core.Decrypt("hunter2", stored)
	if err != nil || got != want {
		t.Errorf("server container = (%q, %v)", got, err)
	}
}
