package mediator

import (
	"context"
	"strings"
	"testing"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/stego"
)

// newGdocsClient builds a fresh client on the harness's server, routed
// through the given extension.
func newGdocsClient(ext *Extension, h *harness) *gdocs.Client {
	return gdocs.NewClient(ext.Client(), h.ts.URL, "private-doc")
}

func TestStegoSessionEndToEnd(t *testing.T) {
	h := newHarness(t, core.ConfidentialityIntegrity, nil)
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}
	ext := New(h.ts.Client().Transport, StaticPassword("hunter2", opts), WithStego())
	client := newGdocsClient(ext, h)

	secret := "the merger closes friday; keep it quiet"
	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	client.SetText(secret)
	if err := client.Save(); err != nil {
		t.Fatalf("full save: %v", err)
	}
	if err := client.Insert(0, "URGENT: "); err != nil {
		t.Fatal(err)
	}
	if err := client.Save(); err != nil {
		t.Fatalf("delta save: %v", err)
	}
	flush(t, ext, "private-doc")

	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	// The stored document reads as lowercase word prose, not ciphertext.
	if !stego.LooksInnocuous(stored) {
		t.Errorf("stored document does not look innocuous: %.60q", stored)
	}
	if strings.Contains(stored, "merger") || strings.Contains(stored, "URGENT") {
		t.Error("plaintext leaked into stego prose")
	}

	// A fresh stego-enabled session reads it back.
	ext2 := New(h.ts.Client().Transport, StaticPassword("hunter2", opts), WithStego())
	client2 := newGdocsClient(ext2, h)
	if err := client2.Load(); err != nil {
		t.Fatalf("stego load: %v", err)
	}
	if client2.Text() != "URGENT: "+secret {
		t.Errorf("stego round trip = %q", client2.Text())
	}

	// Decoding by hand also works: prose -> Base32 -> plaintext.
	transport, err := stego.Decode(stored)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	plain, err := core.Decrypt("hunter2", transport)
	if err != nil {
		t.Fatalf("Decrypt: %v", err)
	}
	if plain != "URGENT: "+secret {
		t.Errorf("manual decode = %q", plain)
	}
}

func TestStegoDeltasStayAligned(t *testing.T) {
	// Many incremental saves through the stego layer: the server-held
	// prose must track the editor state the whole way.
	h := newHarness(t, core.ConfidentialityOnly, nil)
	opts := core.Options{Scheme: core.ConfidentialityOnly, BlockChars: 4}
	ext := New(h.ts.Client().Transport, StaticPassword("hunter2", opts), WithStego())
	client := newGdocsClient(ext, h)

	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	client.SetText("abcdefghij")
	if err := client.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	for i := 0; i < 25; i++ {
		if err := client.Insert(i%len(client.Text()), "x"); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 && len(client.Text()) > 2 {
			if err := client.Delete(0, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := client.Save(); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	flush(t, ext, "private-doc")
	stored, _, err := h.server.Content(context.Background(), "private-doc")
	if err != nil {
		t.Fatalf("content: %v", err)
	}
	transport, err := stego.Decode(stored)
	if err != nil {
		t.Fatalf("decode after %d saves: %v", 25, err)
	}
	plain, err := core.Decrypt("hunter2", transport)
	if err != nil {
		t.Fatalf("decrypt: %v", err)
	}
	if plain != client.Text() {
		t.Errorf("server prose decodes to %q, client has %q", plain, client.Text())
	}
}
