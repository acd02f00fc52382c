// Collab: sharing an encrypted document between users, reproducing the
// collaborative-editing findings of §VII-A:
//
//   - sharing works by sharing the document plus the password out of band
//     (§IV-C);
//   - passive readers get content refreshing;
//   - simultaneous editing by different parties led to conflicts in the
//     paper's prototype. Here each user's extension queues saves and
//     merges a save that lost the race at the server over the winner's
//     (operational transformation on plaintext deltas), so both edits
//     survive while the server still sees only ciphertext.
//
// Run: go run ./examples/collab
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
)

// user is one person's browser: a client application behind its own
// extension.
type user struct {
	ext *mediator.Extension
	*gdocs.Client
}

// flush waits until the user's extension has carried every queued save
// to the server and folded in what other users wrote.
func (u user) flush() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	must(u.ext.Session(u.DocID()).Flush(ctx))
}

// refresh re-reads the document: the first refresh asks the extension to
// catch up with the server, the second shows the result.
func (u user) refresh() {
	must(u.Refresh())
	u.flush()
	must(u.Refresh())
}

func main() {
	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	const password = "shared-via-secure-channel"
	opts := core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: 8}
	newUser := func(doc string) user {
		ext := mediator.New(ts.Client().Transport, mediator.StaticPassword(password, opts))
		return user{ext, gdocs.NewClient(ext.Client(), ts.URL, doc)}
	}

	// Alice creates and fills the shared document.
	alice := newUser("meeting-notes")
	must(alice.Create())
	alice.SetText("Agenda: 1. budget 2. roadmap 3. hiring.")
	must(alice.Save())
	alice.flush()
	fmt.Printf("alice wrote:  %q\n", alice.Text())

	// Bob (has the password) opens it and reads the plaintext.
	bob := newUser("meeting-notes")
	must(bob.Load())
	fmt.Printf("bob reads:    %q\n", bob.Text())

	// Alice keeps editing; Bob, a passive reader, refreshes and sees it.
	must(alice.Insert(len(alice.Text()), " 4. AOB."))
	must(alice.Save())
	alice.flush()
	bob.refresh()
	fmt.Printf("bob refreshes: %q\n", bob.Text())

	// Eve (no password) gets nothing useful.
	stored, _, err := server.Content(context.Background(), "meeting-notes")
	must(err)
	if _, err := core.Decrypt("guessed-password", stored); err != nil {
		fmt.Printf("eve (wrong password): %v\n", err)
	}

	// Simultaneous editing: both edit from the same base. Alice's save
	// reaches the server first; bob's is rejected there as stale, and his
	// extension transforms it over alice's edit and saves the merge.
	must(alice.Insert(0, "[v2] "))
	must(bob.Insert(len(bob.Text()), " [bob was here]"))
	must(alice.Save())
	must(bob.Save())
	alice.flush()
	bob.flush()
	fmt.Printf("bob's simultaneous edit: merged by his extension (%d OT merge; section VII-A reported a conflict)\n",
		bob.ext.Stats().OTMerges)

	alice.refresh()
	bob.refresh()
	fmt.Printf("after the merge, both see: %q\n", alice.Text())
	if alice.Text() != bob.Text() {
		log.Fatal("clients diverged")
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
