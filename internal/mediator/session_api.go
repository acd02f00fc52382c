// The Session handle: the public per-document API of the extension — the
// shadow editor, the degraded flag, the save queue's lifecycle (Flush,
// Close), and a per-document stats view.
package mediator

import (
	"context"

	"privedit/internal/core"
)

// Session is a handle on one document's mediation state. It is cheap to
// create (no I/O, no allocation beyond the handle) and safe for
// concurrent use; all state lives in the Extension.
type Session struct {
	e     *Extension
	docID string
}

// Session returns a handle on docID's mediation state. The underlying
// per-document session is created lazily by the first mediated request,
// so a handle can be taken before any traffic flows.
func (e *Extension) Session(docID string) *Session {
	return &Session{e: e, docID: docID}
}

// DocID returns the document this handle mediates.
func (s *Session) DocID() string { return s.docID }

// Editor exposes the document's encryption state (tests and tooling).
// Nil until the first mediated request builds it.
func (s *Session) Editor() *core.Editor {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.ed
}

// Degraded reports whether the document is currently behind the server:
// its writer is failing or saves are still queued.
func (s *Session) Degraded() bool {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.pl != nil && sess.pl.degradedLocked()
}

// Flush blocks until the document's session is fully quiescent — every
// queued save acknowledged by the server and any pending idle catch-up
// folded into the local lineage — or ctx expires. It fails if saves were
// dropped since the last Flush or Close reported drops: the server
// refused them for good, so edits acknowledged locally are not durable.
func (s *Session) Flush(ctx context.Context) error {
	return s.e.flushSession(ctx, s.docID)
}

// Close tears down the document's session: the writer goroutine exits
// and the session record is removed, so a later request starts fresh
// from the server's state. Queued-but-unsent saves are dropped and
// reported as an error, together with any refused saves no Flush has
// reported — Flush first for a graceful close.
func (s *Session) Close() error {
	return s.e.closeSession(s.docID)
}

// Stats returns the per-document save queue counters.
func (s *Session) Stats() SessionStats {
	e := s.e
	e.mu.RLock()
	sess := e.sessions[s.docID]
	e.mu.RUnlock()
	if sess == nil {
		return SessionStats{}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	pl := sess.pl
	if pl == nil {
		return SessionStats{}
	}
	st := pl.stats
	st.Pending = len(pl.queue)
	st.Degraded = pl.degradedLocked()
	st.LocalVersion = pl.sv
	st.ServerVersion = pl.srvVersion
	return st
}
