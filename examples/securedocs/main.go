// Securedocs: a full private editing session against the simulated Google
// Documents service — the scenario of the paper's Figure 1.
//
// The pieces, exactly as in the paper:
//
//	client  — the word-processor application (knows nothing of crypto)
//	extension — intercepts all traffic, encrypts docContents, transforms
//	            deltas, drops unknown requests
//	server  — the untrusted provider: stores whatever it is sent
//
// Run: go run ./examples/securedocs
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"strings"
	"time"

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
)

func main() {
	// The untrusted provider, with its "what did I see?" log enabled.
	server := gdocs.NewServer()
	server.EnableObservation()
	ts := httptest.NewServer(server)
	defer ts.Close()

	// The extension: per-document password, RPC mode, all covert-channel
	// mitigations on.
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}
	mit := covert.New(covert.Config{CanonicalizeDeltas: true, PadQuantum: 64}, nil)
	ext := mediator.New(ts.Client().Transport, mediator.StaticPassword("tax-season-2011", opts), mediator.WithMitigator(mit))

	// The unmodified client application, routed through the extension.
	client := gdocs.NewClient(ext.Client(), ts.URL, "tax-return")

	must(client.Create())
	client.SetText("2010 tax return. Gross income: $94,310. Deductions: home office, 2 dependents.")
	must(client.Save()) // first save: full docContents, encrypted in flight

	must(client.Insert(17, "DRAFT. "))
	must(client.Save()) // incremental save: delta transformed to cdelta

	must(client.Replace(0, 4, "2011"))
	must(client.Save())

	fmt.Printf("the user sees:   %q\n\n", client.Text())

	// Saves ack locally; wait until the extension has pushed them all.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	must(ext.Session("tax-return").Flush(ctx))

	stored, _, err := server.Content(context.Background(), "tax-return")
	must(err)
	fmt.Printf("the server sees: %.100s... (%d chars)\n\n", stored, len(stored))

	// Prove confidentiality: no fragment of the document reached the
	// server in the clear.
	leaked := false
	for _, secret := range []string{"94,310", "income", "dependents", "tax return"} {
		if strings.Contains(server.Observed(), secret) {
			fmt.Printf("LEAK: %q visible to the server!\n", secret)
			leaked = true
		}
	}
	if !leaked {
		fmt.Println("confidentiality: no plaintext fragment ever reached the server")
	}

	// Prove the server-side features that would need plaintext are cut off.
	if _, err := client.Feature(gdocs.PathSpell); err != nil {
		fmt.Printf("spell check:     %v (blocked by the extension, as in section VII-A)\n", err)
	}

	// Prove integrity: the provider alters the stored ciphertext...
	tampered := []byte(stored)
	tampered[len(tampered)/2] ^= 1
	// (the provider can always write to its own store)
	_, err = server.SetContents(context.Background(), "tax-return", string(tampered), -1)
	must(err)

	// ...and the next session refuses the document.
	ext2 := mediator.New(ts.Client().Transport, mediator.StaticPassword("tax-season-2011", opts))
	client2 := gdocs.NewClient(ext2.Client(), ts.URL, "tax-return")
	if err := client2.Load(); err != nil {
		fmt.Printf("integrity:       tampered document rejected on load: %v\n", err)
	}

	fmt.Printf("\nextension stats: %+v\n", ext.Stats())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
