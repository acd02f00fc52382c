package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"time"

	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
)

// FuncRow is one feature probe: how it behaves without and with the
// extension installed.
type FuncRow struct {
	Feature   string
	Plain     string
	Encrypted string
}

// FuncResult reproduces the functionality findings of §VII-A.
type FuncResult struct {
	Rows []FuncRow
}

// Functionality probes every feature against a plain client and a mediated
// client, reproducing §VII-A: saves, loads, and passive-reader refresh
// keep working; translation, spell checking, drawing, and export break
// (blocked). Simultaneous editing conflicts on the plain arm, as the
// paper reports; the extension's save queue merges it instead.
func Functionality(cfg Config) (FuncResult, error) {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	opts := core.Options{
		Scheme:     core.ConfidentialityIntegrity,
		BlockChars: 8,
		Nonces:     crypt.NewSeededNonceSource(uint64(cfg.Seed) + 900),
	}
	ext := mediator.New(ts.Client().Transport, mediator.StaticPassword("bench-pw", opts))

	plain := gdocs.NewClient(ts.Client(), ts.URL, "plain-doc")
	enc := gdocs.NewClient(ext.Client(), ts.URL, "enc-doc")

	status := func(err error) string {
		switch {
		case err == nil:
			return "works"
		case errors.Is(err, gdocs.ErrBlocked):
			return "blocked"
		case errors.Is(err, gdocs.ErrConflict):
			return "conflicts"
		default:
			return "fails: " + err.Error()
		}
	}

	var rows []FuncRow
	probe := func(feature string, plainErr, encErr error) {
		rows = append(rows, FuncRow{Feature: feature, Plain: status(plainErr), Encrypted: status(encErr)})
	}

	// Create + full save.
	pe := plain.Create()
	ee := enc.Create()
	probe("create document", pe, ee)
	plain.SetText("the plain document body for functionality probes")
	enc.SetText("the encrypted document body for functionality probes")
	probe("save (full contents)", plain.Save(), enc.Save())

	// Incremental save.
	_ = plain.Insert(4, "edited ")
	_ = enc.Insert(4, "edited ")
	probe("save (incremental delta)", plain.Save(), enc.Save())

	// Load in a fresh session, once the first extension's saves are on
	// the server.
	flush := func(e *mediator.Extension) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return e.Session("enc-doc").Flush(ctx)
	}
	if err := flush(ext); err != nil {
		return FuncResult{}, fmt.Errorf("functionality: flush: %w", err)
	}
	plain2 := gdocs.NewClient(ts.Client(), ts.URL, "plain-doc")
	ext2 := mediator.New(ts.Client().Transport, mediator.StaticPassword("bench-pw", opts))
	enc2 := gdocs.NewClient(ext2.Client(), ts.URL, "enc-doc")
	pe = plain2.Load()
	ee = enc2.Load()
	if ee == nil && enc2.Text() != enc.Text() {
		ee = fmt.Errorf("decrypted text mismatch")
	}
	probe("load document", pe, ee)

	// Passive reader refresh.
	probe("passive reader refresh", plain2.Refresh(), enc2.Refresh())

	// Server-side features.
	for _, f := range []struct{ name, path string }{
		{"translate", gdocs.PathTranslate},
		{"spell check", gdocs.PathSpell},
		{"draw pictures", gdocs.PathDrawing},
		{"export document", gdocs.PathExport},
	} {
		_, pe := plain.Feature(f.path)
		_, ee := enc.Feature(f.path)
		probe(f.name, pe, ee)
	}

	// Simultaneous editing: two sessions save over the same base. The
	// plain protocol's optimistic concurrency rejects the second save.
	// Through the extension both saves ack locally, and the second
	// extension's queue merges its save over the first (OT-first); the
	// probe proves the merge by decrypting what the server holds.
	probeConflict := func(client *gdocs.Client, other *gdocs.Client) error {
		if err := other.Insert(0, "X"); err != nil {
			return err
		}
		if err := other.Save(); err != nil {
			return err
		}
		if err := client.Insert(0, "Y"); err != nil {
			return err
		}
		return client.Save()
	}
	pe = probeConflict(plain2, plain)
	merged := status(probeConflict(enc2, enc))
	if merged == "works" {
		merged = "merges"
		ferr := flush(ext)
		if ferr == nil {
			ferr = flush(ext2)
		}
		var text string
		if ferr == nil {
			var stored string
			if stored, _, ferr = server.Content(context.Background(), "enc-doc"); ferr == nil {
				text, ferr = core.Decrypt("bench-pw", stored)
			}
		}
		if ferr != nil {
			merged = status(ferr)
		} else if !strings.Contains(text, "X") || !strings.Contains(text, "Y") {
			merged = "loses an edit"
		}
	}
	rows = append(rows, FuncRow{Feature: "simultaneous editing", Plain: status(pe), Encrypted: merged})

	return FuncResult{Rows: rows}, nil
}

// String renders the functionality table.
func (r FuncResult) String() string {
	var b strings.Builder
	b.WriteString("Functionality (section VII-A): feature behavior without/with the extension\n")
	fmt.Fprintf(&b, "%-26s %-12s %-12s\n", "feature", "plain", "encrypted")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s %-12s %-12s\n", row.Feature, row.Plain, row.Encrypted)
	}
	return b.String()
}
