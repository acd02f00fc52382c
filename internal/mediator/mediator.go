// Package mediator implements the paper's browser extension (Figure 1,
// Figure 2) as an http.RoundTripper: it intercepts every request the
// client application makes, encrypts the document content in save
// requests, transforms incremental deltas into ciphertext deltas, decrypts
// document loads, and drops every request it does not recognize — "for
// security, all requests other than those that can be interpreted and
// encrypted must be blocked" (§III).
//
// The extension holds one core.Editor per document: "the enc_scheme object
// provides three public interfaces: encrypt, decrypt, and transform_delta.
// It also maintains a copy of the state of the ciphertext document which
// is needed to transform the delta" (§IV-B).
package mediator

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

	"privedit/internal/core"
	"privedit/internal/covert"
	"privedit/internal/crypt"
	"privedit/internal/delta"
	"privedit/internal/diff"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

// Telemetry for the extension's request mediation (Figure 2). No-ops until
// obs.Enable().
var (
	metricOps = func(op string) *obs.Counter {
		return obs.NewCounter("privedit_mediator_ops_total",
			"Requests mediated by the extension, by outcome.", "op", op)
	}
	metricOpFull    = metricOps("full_encrypt")
	metricOpDelta   = metricOps("delta_transform")
	metricOpLoad    = metricOps("load_decrypt")
	metricOpPass    = metricOps("pass")
	metricOpBlocked = metricOps("blocked")
	metricOpQueued  = metricOps("queued_save")

	metricEncryptLatency = obs.NewHistogram("privedit_mediator_encrypt_seconds",
		"Full-content encryption latency inside the extension (incl. stego), seconds.", obs.TimeBuckets)
	metricDecryptLatency = obs.NewHistogram("privedit_mediator_decrypt_seconds",
		"Document-load decryption latency inside the extension (incl. stego), seconds.", obs.TimeBuckets)
	metricPasswordFailures = obs.NewCounter("privedit_mediator_password_failures_total",
		"Failed attempts to derive or verify a document key (wrong password or provider error).")
	metricDeltaPlainBytes = obs.NewCounter("privedit_mediator_delta_plain_bytes_total",
		"Plaintext delta bytes submitted by the client application.")
	metricDeltaCipherBytes = obs.NewCounter("privedit_mediator_delta_cipher_bytes_total",
		"Ciphertext delta bytes actually sent to the server.")
	metricDeltaOpsCoalesced = obs.NewCounter("privedit_mediator_delta_ops_coalesced_total",
		"Plaintext delta operations folded away by coalescing before transform_delta.")

	metricQueueDepth = obs.NewGauge("privedit_mediator_queue_depth",
		"Saves currently queued in per-document pipelines across all sessions.")
	metricOTMerges = obs.NewCounter("privedit_mediator_ot_merges_total",
		"Rejected saves repaired by transforming the queue over server catch-up deltas.")
	metricConflictResyncs = obs.NewCounter("privedit_mediator_conflict_resyncs_total",
		"Rejected saves that fell back to a full refetch-and-resync.")
	metricQueueCoalesced = obs.NewCounter("privedit_mediator_queue_coalesced_total",
		"Saves folded into the pipeline queue tail because the queue was at max depth.")
)

// PasswordProvider supplies the per-document password and encryption
// options, standing in for the prototype's password dialog (§IV-C).
type PasswordProvider func(docID string) (password string, opts core.Options, err error)

// StaticPassword is a PasswordProvider that uses one password and one set
// of options for every document.
func StaticPassword(password string, opts core.Options) PasswordProvider {
	return func(string) (string, core.Options, error) { return password, opts, nil }
}

// Stats counts what the extension did, for the evaluation harness. A
// snapshot is internally consistent: every field is read under one lock,
// so a reader never sees, say, a queued save whose queue-depth increment
// is missing.
type Stats struct {
	FullEncrypts      int // docContents saves encrypted
	DeltasTransformed int // delta saves transformed
	LoadsDecrypted    int // document loads decrypted
	Passed            int // recognized non-content requests forwarded
	Blocked           int // unrecognized requests dropped
	PlainBytesIn      int // plaintext characters submitted by the client
	CipherBytesOut    int // ciphertext characters actually sent

	Retries          int // retry attempts beyond the first try
	RetryGiveups     int // round trips that exhausted the retry budget
	AdmissionRetries int // retries caused by typed admission rejects (429/503 + HeaderRetryable)
	DegradedSaves    int // saves acknowledged while the document's writer was failing
	DegradedLoads    int // loads served while the document's writer was failing

	QueuedSaves     int // saves accepted into a per-document pipeline queue
	QueueCoalesced  int // saves folded into the queue tail at max depth
	QueueDepth      int // saves currently queued across all documents
	OTMerges        int // rejected saves repaired by delta.Transform catch-up
	ConflictResyncs int // rejected saves that fell back to a full resync
	DroppedSaves    int // queued saves abandoned after repeated rejection
}

// session is the per-document mediation state: the shadow encryption
// editor, the save queue, and the lock that guards both. core.Editor is
// not safe for concurrent use; the lock is never held across a network
// round trip, so edits to one document ack locally while its writer
// goroutine talks to the server, and distinct documents proceed fully in
// parallel.
type session struct {
	mu sync.Mutex
	ed *core.Editor // shadow editor tracking the server's acked lineage
	pl *plState     // save queue and local view, nil until first touch
}

// Extension is the mediating extension. Install it as the Transport of the
// client application's http.Client. It is safe for concurrent use and
// manages any number of per-document sessions behind one RoundTripper.
type Extension struct {
	base      http.RoundTripper
	passwords PasswordProvider
	mitigator *covert.Mitigator
	useStego  bool
	res       *resilience // nil = one attempt per round trip
	pipeDepth int         // max per-document queue depth
	saveToken uint64      // random per-extension idempotency-token prefix

	mu       sync.RWMutex
	sessions map[string]*session
	rngMu    sync.Mutex // guards res.rng (backoff jitter)

	statsMu sync.Mutex
	stats   Stats
}

var _ http.RoundTripper = (*Extension)(nil)

// Option customizes an Extension.
type Option func(*Extension)

// WithStego stores documents as word prose instead of Base32 (the §VI
// "availability" extension), so a provider scanning for
// encrypted-looking content finds none. See internal/stego for the
// honest limits of this.
func WithStego() Option {
	return func(e *Extension) { e.useStego = true }
}

// WithMitigator installs the §VI-B covert-channel countermeasures
// (padding, delay, delta canonicalization).
func WithMitigator(m *covert.Mitigator) Option {
	return func(e *Extension) { e.mitigator = m }
}

// DefaultInflight is the per-document queue depth New uses, and the one
// WithPipeline(0) selects.
const DefaultInflight = 4

// WithPipeline sets the per-document save queue depth (0 selects
// DefaultInflight). Saves are acknowledged locally and queued; a writer
// goroutine drains the queue in the background, transforming each queued
// delta against any server updates that interleaved (OT-first merge).
// Once the queue is full, new saves coalesce into its tail, so local
// editing never blocks on a slow backend. Depth 1 sends one save at a
// time, like a synchronous editor.
func WithPipeline(depth int) Option {
	return func(e *Extension) {
		if depth <= 0 {
			depth = DefaultInflight
		}
		e.pipeDepth = depth
	}
}

// New builds an extension. base is the underlying transport (nil for
// http.DefaultTransport). Covert-channel mitigation, stego encoding,
// resilience, and the save queue depth are options.
func New(base http.RoundTripper, passwords PasswordProvider, opts ...Option) *Extension {
	if base == nil {
		base = http.DefaultTransport
	}
	e := &Extension{
		base:      base,
		passwords: passwords,
		pipeDepth: DefaultInflight,
		saveToken: crypt.CryptoNonceSource{}.Nonce64(),
		sessions:  make(map[string]*session),
	}
	for _, opt := range opts {
		if opt != nil {
			opt(e)
		}
	}
	return e
}

// Client returns an http.Client routed through the extension.
func (e *Extension) Client() *http.Client {
	return &http.Client{Transport: e}
}

// bump applies a mutation to the live stats under the stats lock, so
// multi-field updates (queue depth + queued count, say) stay atomic as a
// set with respect to Stats().
func (e *Extension) bump(f func(*Stats)) {
	e.statsMu.Lock()
	f(&e.stats)
	e.statsMu.Unlock()
}

// Stats returns a consistent snapshot of the extension's counters.
func (e *Extension) Stats() Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.stats
}

// SessionCount returns the number of per-document sessions currently
// managed.
func (e *Extension) SessionCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.sessions)
}

// sessionFor returns the document's session, creating the (empty) session
// record if needed. The editor inside is created lazily under the
// session's own lock so the extension-wide map lock is never held during
// key derivation or encryption.
func (e *Extension) sessionFor(docID string) *session {
	e.mu.RLock()
	sess := e.sessions[docID]
	e.mu.RUnlock()
	if sess != nil {
		return sess
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if sess = e.sessions[docID]; sess == nil {
		sess = &session{}
		e.sessions[docID] = sess
	}
	return sess
}

// editorLocked returns the session's editor, creating fresh encryption
// state on first use. Callers must hold sess.mu.
func (e *Extension) editorLocked(sess *session, docID string) (*core.Editor, error) {
	if sess.ed != nil {
		return sess.ed, nil
	}
	password, opts, err := e.passwords(docID)
	if err != nil {
		metricPasswordFailures.Inc()
		return nil, err
	}
	ed, err := core.NewEditor(password, opts)
	if err != nil {
		return nil, err
	}
	sess.ed = ed
	return ed, nil
}

// openEditorLocked (re)opens the encryption state from a server-held
// container. Callers must hold sess.mu.
func (e *Extension) openEditorLocked(sess *session, docID, transport string) (*core.Editor, error) {
	password, _, err := e.passwords(docID)
	if err != nil {
		metricPasswordFailures.Inc()
		return nil, err
	}
	ed, err := core.OpenWith(password, transport, core.Options{})
	if err != nil {
		if errors.Is(err, core.ErrWrongPassword) {
			metricPasswordFailures.Inc()
		}
		return nil, err
	}
	sess.ed = ed
	return ed, nil
}

// synthesize builds a local response without touching the network.
func synthesize(req *http.Request, status int, msg string) *http.Response {
	return &http.Response{
		StatusCode:    status,
		Status:        fmt.Sprintf("%d %s", status, http.StatusText(status)),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(msg)),
		ContentLength: int64(len(msg)),
		Request:       req,
	}
}

// RoundTrip mediates one request: the Go rendition of Figure 2's
// onModifyRequest. It is safe for concurrent use; requests for distinct
// documents are mediated in parallel, requests for the same document
// serialize on that document's session lock, which no network round trip
// holds once the session exists.
func (e *Extension) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := req.Context().Err(); err != nil {
		// Already cancelled or timed out: don't bother encrypting work the
		// caller has abandoned.
		return nil, err
	}
	switch {
	case req.Method == http.MethodPost && req.URL.Path == gdocs.PathDoc:
		return e.mediateUpdate(req)
	case req.Method == http.MethodGet && req.URL.Path == gdocs.PathDoc:
		return e.mediateLoad(req)
	case req.Method == http.MethodPost && req.URL.Path == gdocs.PathCreate:
		return e.mediateCreate(req)
	default:
		// "Drop all unknown requests."
		e.bump(func(s *Stats) { s.Blocked++ })
		metricOpBlocked.Inc()
		return synthesize(req, http.StatusForbidden, "privedit: request blocked by extension"), nil
	}
}

// forward sends a rewritten form body to the server, through the retry
// layer when resilience is enabled. The request is rebuilt per attempt so
// every retry carries a fresh body.
func (e *Extension) forward(req *http.Request, form url.Values) (*http.Response, error) {
	body := form.Encode()
	return e.sendResilient(req.Context(), func(ctx context.Context) (*http.Request, error) {
		clone := req.Clone(ctx)
		clone.Body = io.NopCloser(strings.NewReader(body))
		clone.ContentLength = int64(len(body))
		clone.Header = req.Header.Clone()
		clone.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		return clone, nil
	})
}

func (e *Extension) mediateCreate(req *http.Request) (*http.Response, error) {
	form, err := readForm(req)
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: unreadable create request"), nil
	}
	docID := form.Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateCreate)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)
	sess := e.sessionFor(docID)
	sess.mu.Lock()
	_, err = e.editorLocked(sess, docID)
	sess.mu.Unlock()
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
	}
	e.bump(func(s *Stats) { s.Passed++ })
	metricOpPass.Inc()
	resp, err := e.forward(req, form)
	if err == nil && resp.StatusCode == http.StatusOK {
		// A successful create establishes the session's server lineage
		// (empty document at version 0) up front, so the first save can
		// already be queued and acknowledged locally.
		sess.mu.Lock()
		if sess.pl == nil {
			e.pipeBootstrapLocked(sess, docID, req.URL, "", "", 0)
		}
		sess.mu.Unlock()
	}
	return resp, err
}

// mediateUpdate is the save ingest: validate against the mediator-owned
// version, apply to the local view, enqueue, acknowledge — all without
// touching the network. The session's writer goroutine (pipeline.go)
// carries the save to the server in the background. Only the first touch
// of a document waits on the server, to learn its lineage: a server
// failure (5xx, transport error) there passes through as it does for a
// load, while a document the server refuses (not found) is blocked — a
// delta for it would otherwise go out as plaintext.
func (e *Extension) mediateUpdate(req *http.Request) (*http.Response, error) {
	form, err := readForm(req)
	if err != nil {
		return synthesize(req, http.StatusForbidden, "privedit: unreadable update request"), nil
	}
	docID := form.Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateUpdate)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)

	sess := e.sessionFor(docID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.pl == nil {
		refused, err := e.pipeBootstrapFetchLocked(sess, docID, req)
		if refused != nil && refused.StatusCode >= 500 || errors.Is(err, errUnreachable) {
			// The server is failing, not refusing this document.
			return refused, err
		}
		if refused != nil {
			refused.Body.Close()
			err = fmt.Errorf("bootstrap fetch: status %d", refused.StatusCode)
		}
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
		}
	}
	pl := sess.pl
	version, hasVersion := -1, form.Has(gdocs.FieldVersion)
	if hasVersion {
		version, _ = strconv.Atoi(form.Get(gdocs.FieldVersion))
	}
	degraded := pl.failStreak > 0

	_, qsp := trace.Start(ctx, trace.SpanEnqueue)
	defer qsp.End()

	var ent *plEntry
	switch {
	case form.Has(gdocs.FieldDocContents):
		content := form.Get(gdocs.FieldDocContents)
		if hasVersion && version != pl.sv {
			op.Annotate("conflict", "local")
			metricVersionConflicts.Inc()
			return synthesize(req, http.StatusConflict, "privedit: version conflict"), nil
		}
		if content == pl.plain && (pl.srvTransport != "" || pl.sv > 0 || len(pl.queue) > 0) {
			// No-op full save against established lineage: acknowledge the
			// current version without queueing (a bump here would make the
			// client's next delta conflict spuriously).
			return e.pipeAck(req, pl, degraded), nil
		}
		if pl.srvTransport == "" && len(pl.queue) == 0 {
			// Brand-new document: the first save must carry the full
			// container to establish the server-side lineage.
			ent = &plEntry{full: true, before: pl.plain, after: content}
		} else {
			ent = &plEntry{p: diff.Diff(pl.plain, content), before: pl.plain, after: content}
		}
		e.bump(func(s *Stats) { s.PlainBytesIn += len(content) })
		pl.plain = content

	case form.Has(gdocs.FieldDelta):
		wire := form.Get(gdocs.FieldDelta)
		if hasVersion && version != pl.sv {
			op.Annotate("conflict", "local")
			metricVersionConflicts.Inc()
			return synthesize(req, http.StatusConflict, "privedit: version conflict"), nil
		}
		pd, err := delta.Parse(wire)
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: bad delta: "+err.Error()), nil
		}
		// Coalesce bursts of adjacent edits before queueing: a run of k
		// single-character insertions becomes one insert, so transform_delta
		// performs one splice and emits one small ciphertext delta.
		if before := len(pd); before > 1 {
			pd = pd.Coalesce()
			if dropped := before - len(pd); dropped > 0 {
				metricDeltaOpsCoalesced.Add(int64(dropped))
			}
		}
		if e.mitigator != nil {
			pd, err = e.mitigator.CanonicalDelta(pl.plain, pd)
			if err != nil {
				return synthesize(req, http.StatusForbidden, "privedit: canonicalize: "+err.Error()), nil
			}
		}
		after, err := pd.Apply(pl.plain)
		if err != nil {
			// Version matched but the delta does not fit the view it
			// claims to target: surface it as a conflict so the client's
			// recovery machinery reloads.
			op.Annotate("conflict", "apply")
			metricVersionConflicts.Inc()
			return synthesize(req, http.StatusConflict, "privedit: delta does not apply: "+err.Error()), nil
		}
		ent = &plEntry{p: pd, before: pl.plain, after: after}
		e.bump(func(s *Stats) { s.PlainBytesIn += len(wire) })
		pl.plain = after

	default:
		e.bump(func(s *Stats) { s.Blocked++ })
		metricOpBlocked.Inc()
		return synthesize(req, http.StatusForbidden, "privedit: unrecognized update"), nil
	}

	pl.sv++
	if ent.p != nil {
		pl.recordHistLocked(ent.p.String())
	} else {
		pl.clearHistLocked()
	}
	e.enqueueLocked(sess, ent)
	e.bump(func(s *Stats) {
		s.QueuedSaves++
		if degraded {
			s.DegradedSaves++
		}
	})
	metricOpQueued.Inc()
	if degraded {
		op.Annotate("degraded", "save")
		metricDegradedSave.Inc()
	}
	return e.pipeAck(req, pl, degraded), nil
}

// mediateLoad serves a document load from the session's local view. The
// first load of a document fetches and decrypts the server's container
// (a refusal such as not-found passes through unmodified, and so does the
// transport error of a server that never answers); after that the
// local plaintext is authoritative — it already folds every queued save
// — so the response never waits on the network. On a quiet session the
// writer goroutine is nudged to fetch and fold in whatever other
// extensions wrote meanwhile, which a later load observes; holding a
// round trip under the session lock here is exactly the stall the queue
// exists to remove.
func (e *Extension) mediateLoad(req *http.Request) (*http.Response, error) {
	docID := req.URL.Query().Get(gdocs.FieldDocID)
	ctx, op := trace.Start(req.Context(), trace.SpanMediateLoad)
	defer op.End()
	op.Annotate("doc", docID)
	req = req.WithContext(ctx)

	sess := e.sessionFor(docID)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.pl == nil {
		refused, err := e.pipeBootstrapFetchLocked(sess, docID, req)
		if refused != nil || errors.Is(err, errUnreachable) {
			return refused, err
		}
		if err != nil {
			return synthesize(req, http.StatusForbidden, "privedit: "+err.Error()), nil
		}
	}
	pl := sess.pl
	if len(pl.queue) == 0 && !pl.inflight {
		pl.catchup = true
		kick(pl.wake)
	}
	var resp *http.Response
	if s := req.URL.Query().Get(gdocs.FieldSince); s != "" {
		if since, err := strconv.Atoi(s); err == nil {
			if wires, ok := pl.deltasSinceLocked(since); ok {
				cu := gdocs.Catchup{Deltas: wires, Version: pl.sv}
				resp = synthesize(req, http.StatusOK, cu.Encode())
				resp.Header.Set(gdocs.HeaderDeltas, "1")
			}
		}
	}
	if resp == nil {
		resp = synthesize(req, http.StatusOK, pl.plain)
	}
	resp.Header.Set(gdocs.HeaderDocVersion, strconv.Itoa(pl.sv))
	if pl.failStreak > 0 {
		op.Annotate("degraded", "load")
		resp.Header.Set(gdocs.HeaderDegraded, "1")
		e.bump(func(s *Stats) { s.DegradedLoads++ })
		metricDegradedLoad.Inc()
	}
	return resp, nil
}

func (e *Extension) applyPadding(form url.Values, payloadLen int) {
	if e.mitigator == nil {
		return
	}
	if pad := e.mitigator.PadFor(payloadLen); pad != "" {
		form.Set("pad", pad)
	}
}

func (e *Extension) applyDelay() {
	if e.mitigator != nil {
		e.mitigator.Delay()
	}
}

func readForm(req *http.Request) (url.Values, error) {
	if req.Body == nil {
		return url.Values{}, nil
	}
	raw, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	return url.ParseQuery(string(raw))
}
