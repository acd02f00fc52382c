package gdocs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"privedit/internal/delta"
	"privedit/internal/diff"
	"privedit/internal/trace"
)

// Client errors.
var (
	// ErrConflict is returned when the server rejects a delta because the
	// stored content changed underneath the client — the simultaneous
	// editing conflict of §VII-A.
	ErrConflict = errors.New("gdocs: edit conflict")
	// ErrNotFound is returned for unknown documents.
	ErrNotFound = errors.New("gdocs: document not found")
	// ErrBlocked is returned when the mediating extension refused to let
	// a request leave the client.
	ErrBlocked = errors.New("gdocs: request blocked by extension")
	// ErrTooLarge is returned when the server enforces its size limit.
	ErrTooLarge = errors.New("gdocs: document too large")
)

// Client simulates the browser-side Google Documents application: it keeps
// the user's working copy, tracks the last content acknowledged by the
// server, and saves either the full document (first save of a session) or
// a delta (every later save) — exactly the traffic pattern of §IV-A.
// A Client is safe for concurrent use: the autosave timer runs alongside
// user edits, as in the real application.
type Client struct {
	mu    sync.Mutex
	httpc *http.Client
	base  string
	docID string
	ctx   context.Context // base context for outgoing requests

	local     string // what the user sees and edits
	lastSaved string // content as of the last acknowledged save
	inSession bool   // a session starts with a full-content save
	sentFull  bool   // whether the full save already happened
	version   int
	degraded  bool // last response was synthesized by a degraded mediator
}

// NewClient creates a client for one document. httpc may carry the
// mediating extension as its Transport; base is the server URL.
func NewClient(httpc *http.Client, base, docID string) *Client {
	return &Client{httpc: httpc, base: base, docID: docID, ctx: context.Background()}
}

// WithContext sets the base context attached to every outgoing request and
// returns the client. Cancelling the context aborts in-flight requests —
// including the simulated netsim delay and the server-side store operation
// — and the chaos harness uses it to run each operation under its own
// trace.
func (c *Client) WithContext(ctx context.Context) *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if ctx == nil {
		ctx = context.Background()
	}
	c.ctx = ctx
	return c
}

// DocID returns the document id.
func (c *Client) DocID() string { return c.docID }

// Version returns the last server version the client saw.
func (c *Client) Version() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Text returns the user's working copy.
func (c *Client) Text() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.local
}

// Dirty reports whether unsaved edits exist.
func (c *Client) Dirty() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dirtyLocked()
}

// Degraded reports whether the last successful save or load was served
// locally by a degraded mediating extension (HeaderDegraded set) rather
// than acknowledged by the server. A degraded save is queued inside the
// extension and becomes durable only once the server answers again and
// the queue drains.
func (c *Client) Degraded() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.degraded
}

func (c *Client) dirtyLocked() bool { return c.local != c.lastSaved }

// getDoc issues the document GET under ctx (a descendant of the client's
// base context so trace spans nest under the caller's operation).
func (c *Client) getDoc(ctx context.Context) (*http.Response, error) {
	u := c.base + PathDoc + "?" + url.Values{FieldDocID: {c.docID}}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	trace.SetRequestHeader(req)
	return c.httpc.Do(req)
}

func (c *Client) checkStatus(resp *http.Response, body string) error {
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return ErrConflict
	case http.StatusNotFound:
		return ErrNotFound
	case http.StatusForbidden:
		return ErrBlocked
	case http.StatusRequestEntityTooLarge:
		return ErrTooLarge
	default:
		return fmt.Errorf("gdocs: server status %d: %s", resp.StatusCode, strings.TrimSpace(body))
	}
}

func (c *Client) post(ctx context.Context, path string, form url.Values) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path,
		strings.NewReader(form.Encode()))
	if err != nil {
		return "", fmt.Errorf("gdocs: post %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	trace.SetRequestHeader(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return "", fmt.Errorf("gdocs: post %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("gdocs: read response: %w", err)
	}
	if err := c.checkStatus(resp, string(raw)); err != nil {
		return "", err
	}
	c.degraded = resp.Header.Get(HeaderDegraded) != ""
	return string(raw), nil
}

// Create registers a new, empty document on the server and begins an
// editing session on it.
func (c *Client) Create() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	form := url.Values{FieldDocID: {c.docID}}
	if _, err := c.post(c.ctx, PathCreate, form); err != nil {
		return err
	}
	c.local = ""
	c.lastSaved = ""
	c.inSession = true
	c.sentFull = false
	return nil
}

// Load opens an existing document and begins an editing session: the next
// save will carry the full document contents, as the paper observed for
// the first save of every session.
func (c *Client) Load() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, sp := trace.Start(c.ctx, trace.SpanClientLoad)
	defer sp.End()
	sp.Annotate("doc", c.docID)
	resp, err := c.getDoc(ctx)
	if err != nil {
		return fmt.Errorf("gdocs: load: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("gdocs: read load response: %w", err)
	}
	if err := c.checkStatus(resp, string(raw)); err != nil {
		return err
	}
	c.degraded = resp.Header.Get(HeaderDegraded) != ""
	if v := resp.Header.Get(HeaderDocVersion); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			c.version = parsed
		}
	}
	c.local = string(raw)
	c.lastSaved = c.local
	c.inSession = true
	c.sentFull = false
	return nil
}

// Refresh re-reads the server content without starting a new session: the
// passive-reader refresh that keeps working under encryption (§VII-A).
// It fails with ErrConflict if the client has unsaved local edits.
func (c *Client) Refresh() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirtyLocked() {
		return ErrConflict
	}
	ctx, sp := trace.Start(c.ctx, trace.SpanClientLoad)
	defer sp.End()
	sp.Annotate("doc", c.docID)
	sp.Annotate("op", "refresh")
	resp, err := c.getDoc(ctx)
	if err != nil {
		return fmt.Errorf("gdocs: refresh: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("gdocs: read refresh response: %w", err)
	}
	if err := c.checkStatus(resp, string(raw)); err != nil {
		return err
	}
	c.degraded = resp.Header.Get(HeaderDegraded) != ""
	if v := resp.Header.Get(HeaderDocVersion); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			c.version = parsed
		}
	}
	c.local = string(raw)
	c.lastSaved = c.local
	return nil
}

// Insert edits the working copy: insert text at pos.
func (c *Client) Insert(pos int, text string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.insertLocked(pos, text)
}

func (c *Client) insertLocked(pos int, text string) error {
	if pos < 0 || pos > len(c.local) {
		return fmt.Errorf("gdocs: insert at %d in %d-char document", pos, len(c.local))
	}
	c.local = c.local[:pos] + text + c.local[pos:]
	return nil
}

// Delete edits the working copy: remove n characters at pos.
func (c *Client) Delete(pos, n int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteLocked(pos, n)
}

func (c *Client) deleteLocked(pos, n int) error {
	if pos < 0 || n < 0 || pos+n > len(c.local) {
		return fmt.Errorf("gdocs: delete %d at %d in %d-char document", n, pos, len(c.local))
	}
	c.local = c.local[:pos] + c.local[pos+n:]
	return nil
}

// Replace edits the working copy: replace n characters at pos with text.
func (c *Client) Replace(pos, n int, text string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.deleteLocked(pos, n); err != nil {
		return err
	}
	return c.insertLocked(pos, text)
}

// SetText replaces the whole working copy.
func (c *Client) SetText(text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.local = text
}

// PendingDelta returns the delta the next save would send (empty if clean).
func (c *Client) PendingDelta() delta.Delta {
	c.mu.Lock()
	defer c.mu.Unlock()
	return diff.Diff(c.lastSaved, c.local)
}

// Save pushes local edits to the server: the first save of a session sends
// docContents with the whole document; later saves send only the delta.
func (c *Client) Save() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.saveLocked(c.ctx)
}

func (c *Client) saveLocked(ctx context.Context) error {
	if !c.inSession {
		return errors.New("gdocs: no editing session (call Create or Load)")
	}
	if c.sentFull && !c.dirtyLocked() {
		return nil
	}
	sctx, sp := trace.Start(ctx, trace.SpanClientSave)
	defer sp.End()
	sp.Annotate("doc", c.docID)
	form := url.Values{FieldDocID: {c.docID}}
	form.Set(FieldVersion, strconv.Itoa(c.version))
	if !c.sentFull {
		form.Set(FieldDocContents, c.local)
	} else {
		_, dsp := trace.Start(sctx, trace.SpanDiff)
		d := diff.Diff(c.lastSaved, c.local)
		dsp.End()
		form.Set(FieldDelta, d.String())
	}
	body, err := c.post(sctx, PathDoc, form)
	if err != nil {
		return err
	}
	ack, err := ParseAck(body)
	if err != nil {
		return err
	}
	c.version = ack.Version
	c.lastSaved = c.local
	c.sentFull = true
	return nil
}

// SaveRawDelta sends an arbitrary delta, bypassing the local edit model.
// This exists to model a (possibly malicious) client that constructs its
// own delta sequences — the covert-channel scenario of §VI-B — and for
// protocol tests.
func (c *Client) SaveRawDelta(d delta.Delta) (Ack, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	form := url.Values{FieldDocID: {c.docID}, FieldDelta: {d.String()}}
	body, err := c.post(c.ctx, PathDoc, form)
	if err != nil {
		return Ack{}, err
	}
	ack, err := ParseAck(body)
	if err != nil {
		return Ack{}, err
	}
	c.version = ack.Version
	return ack, nil
}

// Feature invokes one of the server-side feature endpoints (§VII-A):
// translate, spell check, drawing, export. With the extension installed
// these requests are blocked (ErrBlocked).
func (c *Client) Feature(path string) (string, error) {
	return c.post(c.ctx, path, url.Values{FieldDocID: {c.docID}})
}

// StartAutosave issues Save every interval until the returned stop
// function is called, modeling the client-side timeout saves of §IV-A.
// Errors are delivered to onErr (which may be nil).
func (c *Client) StartAutosave(interval time.Duration, onErr func(error)) (stop func()) {
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if err := c.Save(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
	return func() { close(done) }
}

// fetchLocked re-reads the server's current content and version without
// altering the session state.
func (c *Client) fetchLocked(ctx context.Context) (string, int, error) {
	resp, err := c.getDoc(ctx)
	if err != nil {
		return "", 0, fmt.Errorf("gdocs: fetch: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, fmt.Errorf("gdocs: read fetch response: %w", err)
	}
	if err := c.checkStatus(resp, string(raw)); err != nil {
		return "", 0, err
	}
	version := c.version
	if v := resp.Header.Get(HeaderDocVersion); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			version = parsed
		}
	}
	return string(raw), version, nil
}

// fetchSinceLocked is the catch-up variant of fetchLocked: it asks the
// server (or the pipelined mediator) for the deltas applied after the
// client's version. When the response is a delta catch-up, the returned
// serverDelta is their composition against lastSaved — recovery can
// transform over it directly instead of re-diffing two whole documents,
// which for long-diverged copies costs a full Myers run. On any shortfall
// (history gap, unusable body) it degrades to the plain full fetch with
// viaDeltas=false.
func (c *Client) fetchSinceLocked(ctx context.Context) (base string, version int, serverDelta delta.Delta, viaDeltas bool, err error) {
	u := c.base + PathDoc + "?" + url.Values{
		FieldDocID: {c.docID},
		FieldSince: {strconv.Itoa(c.version)},
	}.Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", 0, nil, false, err
	}
	trace.SetRequestHeader(req)
	resp, err := c.httpc.Do(req)
	if err != nil {
		return "", 0, nil, false, fmt.Errorf("gdocs: fetch: %w", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, nil, false, fmt.Errorf("gdocs: read fetch response: %w", err)
	}
	if err := c.checkStatus(resp, string(raw)); err != nil {
		return "", 0, nil, false, err
	}
	version = c.version
	if v := resp.Header.Get(HeaderDocVersion); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			version = parsed
		}
	}
	if resp.Header.Get(HeaderDeltas) == "" {
		return string(raw), version, nil, false, nil
	}
	if cu, perr := ParseCatchup(string(raw)); perr == nil {
		base = c.lastSaved
		var acc delta.Delta
		good := true
		for i, w := range cu.Deltas {
			d, derr := delta.Parse(w)
			if derr == nil {
				if i == 0 {
					acc = d
				} else {
					acc, derr = delta.Compose(acc, d, len(c.lastSaved))
				}
			}
			if derr == nil {
				base, derr = d.Apply(base)
			}
			if derr != nil {
				good = false
				break
			}
		}
		if good {
			return base, cu.Version, acc, true, nil
		}
	}
	// The catch-up body was unusable (corruption, inapplicable deltas):
	// fall back to a whole-document fetch.
	base, version, err = c.fetchLocked(ctx)
	return base, version, nil, false, err
}

// Sync saves local edits, resolving version conflicts by merging: on a
// conflict the client fetches the server's current content, expresses both
// parties' changes as deltas against the last common base, and transforms
// its own delta over the server's (delta.Transform — the inclusion
// transformation of operational transformation). Both sides' insertions
// survive; text deleted by either side stays deleted; the server's
// insertions win position ties.
//
// The merge happens entirely client-side on plaintext, so it composes with
// the encrypting extension: the server still only ever sees ciphertext.
// (SPORC gets stronger guarantees by redesigning the server; the paper
// §VII-A contrasts that approach with this tool's no-server-changes goal.)
func (c *Client) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, sp := trace.Start(c.ctx, trace.SpanClientSync)
	defer sp.End()
	sp.Annotate("doc", c.docID)
	const maxAttempts = 4
	for attempt := 0; attempt < maxAttempts; attempt++ {
		err := c.saveLocked(ctx)
		if err == nil {
			return nil
		}
		if !errors.Is(err, ErrConflict) {
			return err
		}
		sp.Annotate("conflict", "1")
		rctx, rsp := trace.Start(ctx, trace.SpanResync)
		base, version, serverDelta, viaDeltas, err := c.fetchSinceLocked(rctx)
		if err != nil {
			rsp.End()
			return err
		}
		myDelta := diff.Diff(c.lastSaved, c.local)
		if !viaDeltas {
			serverDelta = diff.Diff(c.lastSaved, base)
		}
		merged, mergeErr := delta.Merge(c.lastSaved, myDelta, serverDelta, false)
		if mergeErr != nil {
			// Should not happen for valid deltas; fall back to local-wins.
			merged = c.local
		}
		rsp.End()
		c.local = merged
		c.lastSaved = base
		c.version = version
		c.sentFull = true // a valid base exists; next save is a delta
	}
	return ErrConflict
}
