// The save queue: how the extension carries saves to the server.
//
// The client never waits on the server. The extension keeps the
// document's plaintext view and its own version (sv), and a per-document
// writer goroutine talks to the server in the background:
//
//   - Saves are validated against sv, applied to the local plaintext
//     view, acknowledged immediately, and pushed onto a per-document
//     ordered queue (mediator.go's mediateUpdate).
//   - The writer drains the queue: it transforms the head entry into a
//     ciphertext delta against the shadow editor (which tracks the
//     server's acked lineage), sends it with an idempotency token, and
//     advances the server-state mirrors on ack.
//   - A rejected save (version conflict) is repaired by fetching the
//     server's missed deltas (GET /Doc?since=V), replaying them onto the
//     server-space mirror, re-opening the shadow from it, and rebasing
//     the whole queue over the remote diff with delta.Transform — the
//     inclusion transformation whose TP1 property the delta package
//     verifies. Only when that bridge fails does the writer collapse the
//     queue into one full-content save.
//   - A failed round trip (transport error, 5xx, 429) starts a failure
//     streak: the writer backs off, new saves keep acking locally with
//     the degraded header, and the queue drains once the server answers.
//
// Operational transformation over ciphertext deltas directly would be
// unsound — a ciphertext delta rewrites the container's prefix and
// trailer regions, so transforming two of them against each other
// duplicates both rewrites. All OT here happens on plaintext; ciphertext
// is regenerated from the shadow editor after every rebase.
package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"privedit/internal/delta"
	"privedit/internal/diff"
	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/stego"
	"privedit/internal/trace"
)

// metricVersionConflicts joins the gdocs server's conflict series: the
// mediator rejects stale-version saves locally, so its rejections must
// count in the same place the harness reads.
var metricVersionConflicts = obs.NewCounter("privedit_version_conflicts_total",
	"Optimistic-concurrency rejections: the client's base version no longer matched the stored one.")

// plEntry is one queued save. before/after are the plaintext on either
// side of the save; p is the plaintext delta between them (nil for a
// full-content save establishing a brand-new document's lineage). The
// wire/sent* fields cache the transformed ciphertext so a retry after an
// infrastructure failure re-sends the identical bytes under the same
// idempotency token.
type plEntry struct {
	full   bool
	before string
	after  string
	p      delta.Delta

	id string // idempotency token (HeaderSaveID)
	//taint:clean ciphertext delta (or full container when full)
	wire string
	//taint:clean server-space ciphertext mirror after this save applies
	sentTransport string
	sentPlain     string // shadow plaintext after this save applies
}

// plState is a session's local view and save queue, guarded by
// session.mu.
type plState struct {
	baseURL *url.URL // scheme+host of the backing server

	plain string // the client-facing plaintext view
	sv    int    // mediator-owned version the client sees

	// Server-acked lineage: what the server durably holds. Only the
	// writer goroutine (and the idle catch-up, which runs only when the
	// queue is empty) advance these.
	srvPlain string
	//taint:clean post-stego container bytes as stored
	srvTransport string
	srvVersion   int

	queue    []*plEntry
	inflight bool // head entry is currently being sent
	rejects  int  // consecutive permanent (non-conflict) rejections
	refused  int  // status of the refusal that last dropped the queue
	reported int  // stats.Dropped already reported by Flush or Close
	closed   bool
	catchup  bool   // an idle load asked the writer to fold in server changes
	fetching bool   // the writer is fetching an idle catch-up
	seq      uint64 // save-id counter

	// failStreak counts the writer's consecutive failed round trips; the
	// document is degraded while it is positive. retryAt is when the
	// writer may try again.
	failStreak int
	retryAt    time.Time

	// hist mirrors the server's catch-up protocol in version space sv: the
	// plaintext delta behind each recent version bump, so a client whose
	// save was rejected can transform over exactly what it missed instead
	// of re-diffing the whole document. Entries are contiguous and end at
	// sv; any bump without a recordable delta clears the ring.
	hist      []plHist
	histBytes int

	wake chan struct{}   // buffered(1): kicks the writer
	done chan struct{}   // closed by Close; ends any writer wait
	idle []chan struct{} // Flush waiters, closed when the queue drains

	stats SessionStats
}

// plHist is one catch-up ring entry: the wire delta that took the local
// view to version v.
type plHist struct {
	v int
	//taint:clean ciphertext wire delta
	wire string
}

const (
	maxPlHistEntries = 4096
	maxPlHistBytes   = 1 << 20

	// maxCoalescedOps bounds how fragmented a coalesced queue entry's
	// delta may grow before the entry snapshots to a full-content save.
	maxCoalescedOps = 512
)

// recordHistLocked appends the delta behind the bump to pl.sv, evicting
// from the front under the ring's caps. Callers hold sess.mu.
func (pl *plState) recordHistLocked(wire string) {
	pl.hist = append(pl.hist, plHist{v: pl.sv, wire: wire})
	pl.histBytes += len(wire)
	for len(pl.hist) > maxPlHistEntries || pl.histBytes > maxPlHistBytes {
		pl.histBytes -= len(pl.hist[0].wire)
		pl.hist = pl.hist[1:]
	}
}

// clearHistLocked forgets the ring after a version bump with no single
// recordable delta (full-save lineage reset). Callers hold sess.mu.
func (pl *plState) clearHistLocked() {
	pl.hist, pl.histBytes = nil, 0
}

// deltasSinceLocked returns the wire deltas taking version since to sv,
// or ok=false when the ring no longer covers the span. Callers hold
// sess.mu.
func (pl *plState) deltasSinceLocked(since int) (deltas []string, ok bool) {
	if since == pl.sv {
		return nil, true
	}
	if since > pl.sv || len(pl.hist) == 0 || since < pl.hist[0].v-1 {
		return nil, false
	}
	out := make([]string, 0, pl.sv-since)
	for _, h := range pl.hist {
		if h.v > since {
			out = append(out, h.wire)
		}
	}
	if len(out) != pl.sv-since {
		return nil, false
	}
	return out, true
}

// SessionStats is the per-document view of the pipeline counters,
// returned by Session.Stats.
type SessionStats struct {
	Pending         int  // saves currently queued (including in flight)
	Enqueued        int  // saves accepted into the queue
	Coalesced       int  // saves folded into the queue tail at max depth
	Saved           int  // queue entries acknowledged by the server
	OTMerges        int  // conflicts repaired by transforming the queue
	ConflictResyncs int  // conflicts that fell back to a full resync
	Dropped         int  // queue entries abandoned after repeated rejection
	Degraded        bool // writer failing or saves still queued
	LocalVersion    int  // version the client sees (sv)
	ServerVersion   int  // last server-acknowledged version
}

// nextSaveIDLocked mints a save idempotency token: a random
// per-extension prefix plus a per-document sequence number.
func (e *Extension) nextSaveIDLocked(pl *plState) string {
	pl.seq++
	return fmt.Sprintf("%016x-%d", e.saveToken, pl.seq)
}

// pipeBootstrapLocked installs the queue state for a session whose server
// lineage is known (mirror at version), and starts its writer goroutine.
// Callers hold sess.mu.
func (e *Extension) pipeBootstrapLocked(sess *session, docID string, u *url.URL, mirror, plain string, version int) {
	base := *u
	base.Path = ""
	base.RawQuery = ""
	sess.pl = &plState{
		baseURL:      &base,
		plain:        plain,
		sv:           version,
		srvPlain:     plain,
		srvTransport: mirror,
		srvVersion:   version,
		wake:         make(chan struct{}, 1),
		done:         make(chan struct{}),
	}
	go e.writerLoop(sess, docID)
}

// errUnreachable marks a bootstrap fetch that never got an answer from
// the server: the round trip or the body read failed. Callers pass it
// through as a transport error rather than a synthesized refusal, so a
// network outage never looks like the extension blocking the request.
var errUnreachable = errors.New("mediator: server unreachable")

// pipeBootstrapFetchLocked bootstraps a session from the server's current
// state: fetch, decode, open the shadow editor, install plState. When the
// server refuses the fetch (not found, say) its response comes back
// unread as refused and the session stays unbootstrapped; a fetch with
// no answer fails with errUnreachable. Callers hold sess.mu.
func (e *Extension) pipeBootstrapFetchLocked(sess *session, docID string, req *http.Request) (refused *http.Response, err error) {
	lctx, lsp := trace.Start(req.Context(), trace.SpanLoad)
	defer lsp.End()
	u := *req.URL
	u.Path = gdocs.PathDoc
	u.RawQuery = url.Values{gdocs.FieldDocID: {docID}}.Encode()
	resp, err := e.sendResilient(lctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errUnreachable, err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp, nil
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%w: read: %w", errUnreachable, err)
	}
	version, _ := strconv.Atoi(resp.Header.Get(gdocs.HeaderDocVersion))
	mirror := string(raw)
	transport := mirror
	if e.useStego && transport != "" {
		if transport, err = stego.Decode(transport); err != nil {
			return nil, err
		}
	}
	var plain string
	if transport != "" {
		_, dsp := trace.Start(lctx, trace.SpanDecrypt)
		sp := metricDecryptLatency.Start()
		ed, err := e.openEditorLocked(sess, docID, transport)
		if err != nil {
			dsp.End()
			return nil, err
		}
		sp.End()
		dsp.End()
		plain = ed.Plaintext()
		e.bump(func(s *Stats) { s.LoadsDecrypted++ })
		metricOpLoad.Inc()
	} else {
		// Empty document: fresh encryption state for the first save.
		if _, err := e.editorLocked(sess, docID); err != nil {
			return nil, err
		}
	}
	e.pipeBootstrapLocked(sess, docID, req.URL, mirror, plain, version)
	return nil, nil
}

// pipeAck synthesizes the local save acknowledgment.
func (e *Extension) pipeAck(req *http.Request, pl *plState, degraded bool) *http.Response {
	resp := synthesize(req, http.StatusOK, gdocs.Ack{Version: pl.sv}.Encode())
	if degraded {
		resp.Header.Set(gdocs.HeaderDegraded, "1")
	}
	return resp
}

// enqueueLocked appends a save to the pipeline queue, coalescing into the
// tail once the queue is at the configured depth — local editing never
// blocks on queue space. Callers hold sess.mu.
func (e *Extension) enqueueLocked(sess *session, ent *plEntry) {
	pl := sess.pl
	ent.id = e.nextSaveIDLocked(pl)
	if len(pl.queue) >= e.pipeDepth {
		ti := len(pl.queue) - 1
		if ti > 0 || !pl.inflight {
			// The tail is not the in-flight head: fold the new save into
			// it. The merged entry gets the new save's identity — any
			// cached transform of the old tail is discarded, and a shadow
			// that had advanced past it re-aligns from the mirror.
			t := pl.queue[ti]
			if !t.full {
				// The two deltas are consecutive (t.p ends where ent.p
				// begins), so composition chains them in O(ops) — re-diffing
				// the documents here would put a Myers run on every coalesce.
				q, err := delta.Compose(t.p, ent.p, len(t.before))
				if err != nil {
					q = diff.Diff(t.before, ent.after)
				}
				if len(q) > maxCoalescedOps {
					// A long run of edits composed into a heavily fragmented
					// delta: past this point a whole-document save is cheaper
					// to encrypt and to transform than the delta itself — the
					// classic delta-versus-snapshot crossover.
					t.full, t.p = true, nil
				} else {
					t.p = q
				}
			}
			t.after = ent.after
			t.id = ent.id
			t.wire, t.sentTransport, t.sentPlain = "", "", ""
			pl.stats.Coalesced++
			e.bump(func(s *Stats) { s.QueueCoalesced++ })
			metricQueueCoalesced.Inc()
			return
		}
		// depth 1 with the head in flight: briefly exceed the bound
		// rather than stall the editor or corrupt an in-flight send.
	}
	pl.queue = append(pl.queue, ent)
	pl.stats.Enqueued++
	e.bump(func(s *Stats) { s.QueueDepth++ })
	metricQueueDepth.Add(1)
	kick(pl.wake)
}

// kick wakes the writer goroutine without blocking.
func kick(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

// fetchServerState retrieves the server's current container, preferring
// the delta catch-up endpoint (GET /Doc?since=V): when the server's
// history still covers the span, the missed deltas are replayed onto
// curMirror instead of re-downloading the whole container. viaDeltas
// reports which path was taken.
func (e *Extension) fetchServerState(ctx context.Context, baseURL *url.URL, docID string, since int, curMirror string) (mirror string, version int, viaDeltas bool, err error) {
	u := *baseURL
	u.Path = gdocs.PathDoc
	u.RawQuery = url.Values{
		gdocs.FieldDocID: {docID},
		gdocs.FieldSince: {strconv.Itoa(since)},
	}.Encode()
	resp, err := e.sendResilient(ctx, func(ctx context.Context) (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	})
	if err != nil {
		return "", 0, false, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", 0, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", 0, false, fmt.Errorf("mediator: catch-up fetch: status %d", resp.StatusCode)
	}
	version, _ = strconv.Atoi(resp.Header.Get(gdocs.HeaderDocVersion))
	if resp.Header.Get(gdocs.HeaderDeltas) == "" {
		return string(raw), version, false, nil
	}
	cu, err := gdocs.ParseCatchup(string(raw))
	if err != nil {
		return "", 0, false, err
	}
	mirror = curMirror
	for _, w := range cu.Deltas {
		d, err := delta.Parse(w)
		if err != nil {
			return "", 0, false, err
		}
		if mirror, err = d.Apply(mirror); err != nil {
			return "", 0, false, err
		}
	}
	return mirror, cu.Version, true, nil
}

// reloadShadowLocked re-opens the shadow editor from the server-space
// mirror (decrypt-only via Reload when possible, KDF re-open otherwise),
// re-aligning it with the last server-acked state. Callers hold sess.mu.
func (e *Extension) reloadShadowLocked(sess *session, docID string) error {
	pl := sess.pl
	transport := pl.srvTransport
	if e.useStego && transport != "" {
		var err error
		if transport, err = stego.Decode(transport); err != nil {
			return err
		}
	}
	if transport == "" {
		sess.ed = nil
		return nil
	}
	if sess.ed != nil && sess.ed.Reload(transport) == nil {
		return nil
	}
	sess.ed = nil
	_, err := e.openEditorLocked(sess, docID, transport)
	return err
}

// repairLocked rebases the session onto a new server lineage: mirror (the
// server-space container at version) replaces the acked state, the shadow
// editor re-opens from it, and every queued entry is transformed over the
// remote diff so local edits survive the interleaving. On error the
// session state is unchanged except possibly the shadow editor, which the
// writer re-aligns on demand. Callers hold sess.mu.
func (e *Extension) repairLocked(ctx context.Context, sess *session, docID string, mirror string, version int) error {
	pl := sess.pl
	transport := mirror
	if e.useStego && transport != "" {
		var err error
		if transport, err = stego.Decode(transport); err != nil {
			return err
		}
	}
	var newPlain string
	if transport == "" {
		sess.ed = nil
	} else {
		if sess.ed == nil || sess.ed.Reload(transport) != nil {
			sess.ed = nil
			if _, err := e.openEditorLocked(sess, docID, transport); err != nil {
				return err
			}
		}
		newPlain = sess.ed.Plaintext()
	}

	// Merge runs of adjacent delta entries into one composed net delta
	// before bridging. Transform is TP1 but not TP2, so rebasing entries
	// one at a time could place position ties differently than rebasing
	// the same net edit in one shot — the merge makes the outcome
	// independent of how the burst happened to be split into saves (and
	// matches what a resync client would compute from a fresh diff). It
	// also means a conflict costs one retry save instead of one per
	// queued entry.
	e.mergeQueueLocked(sess)

	// Bridge the queue onto the new lineage. Invariants: entry.p and rd
	// both apply to oldBase (the old lineage before the entry); q and the
	// rebased entry apply to base (the new lineage). Remote inserts win
	// position ties on the local rebase, and the mirrored aFirst on the
	// rd-over-p call keeps the two orders TP1-convergent.
	rd := diff.Diff(pl.srvPlain, newPlain)
	oldBase := pl.srvPlain
	base := newPlain
	for _, ent := range pl.queue {
		if ent.full {
			// A full save overwrites the server wholesale; remote changes
			// before it are subsumed.
			ent.before = base
			base, oldBase, rd = ent.after, ent.after, nil
			ent.wire, ent.sentTransport, ent.sentPlain = "", "", ""
			continue
		}
		q, err := delta.Transform(ent.p, rd, len(oldBase), false)
		if err != nil {
			return err
		}
		rd2, err := delta.Transform(rd, ent.p, len(oldBase), true)
		if err != nil {
			return err
		}
		nextOld, err := ent.p.Apply(oldBase)
		if err != nil {
			return err
		}
		after, err := q.Apply(base)
		if err != nil {
			return err
		}
		ent.p, ent.before, ent.after = q, base, after
		ent.wire, ent.sentTransport, ent.sentPlain = "", "", ""
		oldBase, base, rd = nextOld, after, rd2
	}
	if base != pl.plain {
		pl.plain = base
		pl.sv++
		if rd != nil {
			// rd, transformed over the whole queue, is exactly the delta
			// from the old local view to the new one — the catch-up entry
			// for this bump.
			pl.recordHistLocked(rd.String())
		} else {
			pl.clearHistLocked()
		}
	}
	pl.srvPlain = newPlain
	pl.srvTransport = mirror
	pl.srvVersion = version
	return nil
}

// mergeQueueLocked folds runs of adjacent delta entries into single
// composed entries (full saves stay their own entries and break a run).
// Nothing is in flight when this runs — the writer merges only while it
// holds the head — so the head's wire cache can be discarded along with
// everyone else's. Entries whose composition would exceed the
// fragmentation bound are left split. Callers hold sess.mu.
func (e *Extension) mergeQueueLocked(sess *session) {
	pl := sess.pl
	if len(pl.queue) < 2 {
		return
	}
	merged := pl.queue[:1]
	for _, ent := range pl.queue[1:] {
		tail := merged[len(merged)-1]
		if tail.full || ent.full {
			merged = append(merged, ent)
			continue
		}
		q, err := delta.Compose(tail.p, ent.p, len(tail.before))
		if err != nil || len(q) > maxCoalescedOps {
			merged = append(merged, ent)
			continue
		}
		tail.p, tail.after = q, ent.after
		tail.wire, tail.sentTransport, tail.sentPlain = "", "", ""
	}
	dropped := len(pl.queue) - len(merged)
	if dropped == 0 {
		return
	}
	pl.queue = merged
	pl.stats.Coalesced += dropped
	e.bump(func(s *Stats) {
		s.QueueCoalesced += dropped
		s.QueueDepth -= dropped
	})
	metricQueueCoalesced.Add(int64(dropped))
	metricQueueDepth.Add(float64(-dropped))
}

// collapseQueueLocked is the nuclear fallback: the whole queue becomes a
// single full-content save of the current local view, which overwrites
// whatever the server holds. Callers hold sess.mu.
func (e *Extension) collapseQueueLocked(sess *session) {
	pl := sess.pl
	n := len(pl.queue)
	ent := &plEntry{full: true, before: pl.srvPlain, after: pl.plain, id: e.nextSaveIDLocked(pl)}
	pl.queue = []*plEntry{ent}
	pl.stats.ConflictResyncs++
	e.bump(func(s *Stats) {
		s.ConflictResyncs++
		s.QueueDepth += 1 - n
	})
	metricConflictResyncs.Inc()
	metricQueueDepth.Add(float64(1 - n))
}

// dequeueLocked pops the acknowledged head entry and releases Flush
// waiters once the queue is dry. Callers hold sess.mu.
func (e *Extension) dequeueLocked(sess *session) {
	pl := sess.pl
	pl.queue = pl.queue[1:]
	pl.stats.Saved++
	e.bump(func(s *Stats) { s.QueueDepth-- })
	metricQueueDepth.Add(-1)
	maybeNotifyIdleLocked(pl)
}

// dropQueueLocked abandons every queued save — the escape valve after
// repeated permanent rejections, so the writer cannot spin forever on an
// unsaveable document. The local view keeps editing; it is simply no
// longer durable. Callers hold sess.mu.
func (e *Extension) dropQueueLocked(sess *session) {
	pl := sess.pl
	n := len(pl.queue)
	pl.queue = nil
	pl.rejects = 0
	pl.stats.Dropped += n
	e.bump(func(s *Stats) {
		s.DroppedSaves += n
		s.QueueDepth -= n
	})
	metricQueueDepth.Add(float64(-n))
	maybeNotifyIdleLocked(pl)
}

// notifyIdleLocked releases Flush waiters. Callers hold sess.mu.
func notifyIdleLocked(pl *plState) {
	for _, ch := range pl.idle {
		close(ch)
	}
	pl.idle = nil
}

// idleLocked reports full quiescence: nothing queued, nothing in flight,
// and no catch-up pending or still fetching — Flush is a barrier against
// the session's whole pipeline, not just the save queue. Callers hold
// sess.mu.
func (pl *plState) idleLocked() bool {
	return len(pl.queue) == 0 && !pl.inflight && !pl.catchup && !pl.fetching
}

// degradedLocked reports whether the session is behind the server: the
// writer is failing or saves are still queued. Callers hold sess.mu.
func (pl *plState) degradedLocked() bool {
	return pl.failStreak > 0 || len(pl.queue) > 0 || pl.inflight
}

// maybeNotifyIdleLocked releases Flush waiters once the session is idle.
// Callers hold sess.mu.
func maybeNotifyIdleLocked(pl *plState) {
	if pl.idleLocked() {
		notifyIdleLocked(pl)
	}
}

// transformEntryLocked turns the head entry into wire form: ciphertext
// container for full saves, transformed (and stego-encoded) ciphertext
// delta otherwise, advancing the shadow editor and computing the mirror
// state an ack will install. Idempotent on retries — a cached wire is
// reused so the identical bytes go out under the same save id. Callers
// hold sess.mu.
func (e *Extension) transformEntryLocked(ctx context.Context, sess *session, docID string, ent *plEntry) error {
	if ent.wire != "" {
		return nil
	}
	pl := sess.pl
	if ent.full {
		ed, err := e.editorLocked(sess, docID)
		if err != nil {
			return err
		}
		_, esp := trace.Start(ctx, trace.SpanEncrypt)
		defer esp.End()
		sp := metricEncryptLatency.Start()
		ctxt, err := ed.Encrypt(ent.after)
		if err != nil {
			return err
		}
		if e.useStego {
			if ctxt, err = stego.Encode(ctxt); err != nil {
				return err
			}
		}
		sp.End()
		ent.wire = ctxt
		ent.sentTransport = ctxt
		ent.sentPlain = ent.after
		e.bump(func(s *Stats) {
			s.FullEncrypts++
			s.CipherBytesOut += len(ctxt)
		})
		metricOpFull.Inc()
		return nil
	}
	if sess.ed == nil || sess.ed.Plaintext() != ent.before {
		// The shadow drifted (a coalesce discarded a transformed entry, or
		// an earlier failure dropped it): re-align from the acked mirror.
		if err := e.reloadShadowLocked(sess, docID); err != nil {
			return err
		}
	}
	ed := sess.ed
	if ed == nil {
		return errors.New("mediator: no shadow lineage for delta save")
	}
	if ed.Plaintext() != ent.before {
		return errors.New("mediator: shadow lineage mismatch")
	}
	_, tsp := trace.Start(ctx, trace.SpanTransform)
	defer tsp.End()
	cd, err := ed.TransformDeltaOps(ent.p)
	if err != nil {
		return err
	}
	if e.useStego {
		if cd, err = stego.TransformDelta(cd); err != nil {
			return err
		}
	}
	wire := cd.String()
	st, err := cd.Apply(pl.srvTransport)
	if err != nil {
		return err
	}
	ent.wire = wire
	ent.sentTransport = st
	ent.sentPlain = ed.Plaintext()
	e.bump(func(s *Stats) {
		s.DeltasTransformed++
		s.CipherBytesOut += len(wire)
	})
	metricOpDelta.Inc()
	metricDeltaCipherBytes.Add(int64(len(wire)))
	return nil
}

// writerBackoff is the writer's pause after its streak-th consecutive
// failed round trip: 5ms doubling to a 1s ceiling.
func writerBackoff(streak int) time.Duration {
	d := 5 * time.Millisecond
	for i := 1; i < streak && d < time.Second; i++ {
		d *= 2
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}

// noteLocked feeds one writer round trip's outcome into the failure
// streak: success clears it, a failure extends it and moves the retry
// deadline one backoff step out. Callers hold sess.mu.
func (pl *plState) noteLocked(ok bool) {
	if ok {
		pl.failStreak = 0
		return
	}
	pl.failStreak++
	pl.retryAt = time.Now().Add(writerBackoff(pl.failStreak))
}

// waitOrWake sleeps for d, returning early if stop fires.
func waitOrWake(stop <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// writerLoop is the per-document writer goroutine: it drains the save
// queue in order, one in-flight request at a time, and owns every
// mutation of the server-state mirrors. It exits when the session is
// closed.
func (e *Extension) writerLoop(sess *session, docID string) {
	for {
		sess.mu.Lock()
		pl := sess.pl
		for len(pl.queue) == 0 && !pl.catchup && !pl.closed {
			sess.mu.Unlock()
			select {
			case <-pl.wake:
			case <-pl.done:
			}
			sess.mu.Lock()
		}
		if pl.closed {
			notifyIdleLocked(pl)
			sess.mu.Unlock()
			return
		}
		if wait := time.Until(pl.retryAt); pl.failStreak > 0 && wait > 0 {
			// Back off after a failure. Only Close cuts the wait short: a
			// new save just joins the queue, so a dead server sees one
			// attempt per backoff step, not one per keystroke.
			sess.mu.Unlock()
			waitOrWake(pl.done, wait)
			continue
		}
		if len(pl.queue) == 0 {
			// An idle load asked for a catch-up: fetch the server's state
			// without the lock, then fold it into the local lineage. Saves
			// enqueued during the fetch are fine — repairLocked rebases
			// whatever the queue holds, and only this goroutine moves the
			// server mirrors. fetching keeps Flush waiting until the fold
			// is done, so the client cannot save against a version the
			// repair is about to bump.
			pl.catchup, pl.fetching = false, true
			since, mirror0, baseURL := pl.srvVersion, pl.srvTransport, pl.baseURL
			sess.mu.Unlock()
			cctx := context.Background()
			mirror, version, _, err := e.fetchServerState(cctx, baseURL, docID, since, mirror0)
			sess.mu.Lock()
			pl.fetching = false
			pl.noteLocked(err == nil)
			if !pl.closed && err == nil && version != pl.srvVersion {
				_ = e.repairLocked(cctx, sess, docID, mirror, version)
			}
			if !pl.closed {
				maybeNotifyIdleLocked(pl)
			}
			sess.mu.Unlock()
			continue
		}

		ctx, root := trace.Default.Root(context.Background(), trace.SpanWriterDrain)
		root.Annotate("doc", docID)
		ent := pl.queue[0]
		if err := e.transformEntryLocked(ctx, sess, docID, ent); err != nil {
			root.Annotate("error", "transform")
			e.collapseQueueLocked(sess)
			root.End()
			sess.mu.Unlock()
			continue
		}
		pl.inflight = true
		form := url.Values{gdocs.FieldDocID: {docID}}
		form.Set(gdocs.FieldVersion, strconv.Itoa(pl.srvVersion))
		if ent.full {
			form.Set(gdocs.FieldDocContents, ent.wire)
		} else {
			form.Set(gdocs.FieldDelta, ent.wire)
		}
		e.applyPadding(form, len(ent.wire))
		baseURL := pl.baseURL
		saveID := ent.id
		sess.mu.Unlock()

		e.applyDelay()
		sctx, ssp := trace.Start(ctx, trace.SpanSave)
		resp, err := e.postForm(sctx, baseURL, gdocs.PathDoc, form, saveID)
		ssp.End()
		fail := infraFailure(resp, err)
		status, ackVersion := 0, -1
		if err == nil {
			status = resp.StatusCode
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				fail = true
			} else if status == http.StatusOK {
				if ack, aerr := gdocs.ParseAck(string(raw)); aerr == nil {
					ackVersion = ack.Version
				} else {
					fail = true
				}
			}
		}

		sess.mu.Lock()
		pl.inflight = false
		pl.noteLocked(!fail)
		switch {
		case pl.closed:
			// Closed mid-flight: do not touch the (cleared) queue.
			root.End()
			sess.mu.Unlock()

		case fail:
			root.Annotate("outcome", "infra_failure")
			root.AnnotateInt("fail_streak", int64(pl.failStreak))
			root.End()
			sess.mu.Unlock()

		case status == http.StatusOK:
			pl.rejects = 0
			pl.srvVersion = ackVersion
			pl.srvTransport = ent.sentTransport
			pl.srvPlain = ent.sentPlain
			e.dequeueLocked(sess)
			root.Annotate("outcome", "saved")
			root.End()
			sess.mu.Unlock()

		case status == http.StatusConflict:
			root.Annotate("conflict", "1")
			e.pipeRepair(ctx, sess, docID, root)
			// pipeRepair returns with sess.mu released.

		default:
			// Permanent rejection (4xx other than conflict). First try
			// collapsing to a full save — a delta the server cannot apply
			// may still be expressible as an overwrite — then give up.
			pl.rejects++
			root.Annotate("outcome", "rejected")
			root.AnnotateInt("status", int64(status))
			if pl.rejects >= 3 {
				pl.refused = status
				e.dropQueueLocked(sess)
			} else {
				e.collapseQueueLocked(sess)
			}
			root.End()
			sess.mu.Unlock()
		}
	}
}

// pipeRepair handles a server-side version conflict on the head save:
// fetch what the server applied meanwhile (delta catch-up when its
// history allows), rebase the whole queue over it via delta.Transform,
// and let the writer retry. Falls back to the full-resync collapse when
// the bridge cannot be built. Called with sess.mu held; returns with it
// released.
func (e *Extension) pipeRepair(ctx context.Context, sess *session, docID string, root *trace.Span) {
	pl := sess.pl
	since := pl.srvVersion
	mirror0 := pl.srvTransport
	baseURL := pl.baseURL
	sess.mu.Unlock()

	// Fetch without the lock: saves keep flowing into the queue and the
	// bridge below covers them too. The mirrors cannot move under us —
	// only this goroutine advances them while the queue is non-empty.
	mctx, msp := trace.Start(ctx, trace.SpanMerge)
	mirror, version, viaDeltas, err := e.fetchServerState(mctx, baseURL, docID, since, mirror0)

	sess.mu.Lock()
	defer sess.mu.Unlock()
	defer root.End()
	pl.noteLocked(err == nil)
	if pl.closed {
		msp.End()
		return
	}
	if err != nil {
		msp.Annotate("error", "fetch")
		msp.End()
		root.Annotate("outcome", "repair_fetch_failed")
		return // the failure streak paces the writer's next try
	}
	if rerr := e.repairLocked(mctx, sess, docID, mirror, version); rerr != nil {
		msp.Annotate("error", "bridge")
		msp.End()
		root.Annotate("outcome", "conflict_resync")
		// Aim the fallback full save at the fetched version so it can
		// land without another round of conflicts.
		pl.srvVersion = version
		pl.srvTransport = mirror
		e.collapseQueueLocked(sess)
		return
	}
	msp.End()
	if viaDeltas {
		root.Annotate("outcome", "ot_merge")
		pl.stats.OTMerges++
		e.bump(func(s *Stats) { s.OTMerges++ })
		metricOTMerges.Inc()
	} else {
		// The bridge worked but the server's history had a gap, so the
		// lineage came from a full re-download: count it as a resync.
		root.Annotate("outcome", "resync_merge")
		pl.stats.ConflictResyncs++
		e.bump(func(s *Stats) { s.ConflictResyncs++ })
		metricConflictResyncs.Inc()
	}
}

// flushSession blocks until the document's session is idle (or ctx
// expires). A session that was never touched has nothing queued. Saves
// the writer dropped since the last Flush or Close reported drops — the
// server refused them for good — fail the Flush: they were acknowledged
// locally but are not durable.
func (e *Extension) flushSession(ctx context.Context, docID string) error {
	e.mu.RLock()
	sess := e.sessions[docID]
	e.mu.RUnlock()
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	pl := sess.pl
	if pl == nil {
		sess.mu.Unlock()
		return nil
	}
	seen := pl.reported
	if !pl.idleLocked() {
		ch := make(chan struct{})
		pl.idle = append(pl.idle, ch)
		sess.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
		sess.mu.Lock()
	}
	defer sess.mu.Unlock()
	if n := pl.stats.Dropped - seen; n > 0 {
		pl.reported = pl.stats.Dropped
		return fmt.Errorf("mediator: flush %s: %d saves never reached the server (last refusal: status %d)", docID, n, pl.refused)
	}
	return nil
}

// closeSession tears down a document session: the writer goroutine exits,
// queued-but-unsent saves are dropped (flush first for a graceful close),
// and the session record is removed so a later touch starts fresh. The
// error counts every save that never reached the server and no Flush has
// reported: the dropped queue plus any the server refused earlier.
func (e *Extension) closeSession(docID string) error {
	e.mu.Lock()
	sess := e.sessions[docID]
	delete(e.sessions, docID)
	e.mu.Unlock()
	if sess == nil {
		return nil
	}
	sess.mu.Lock()
	var dropped int
	if pl := sess.pl; pl != nil && !pl.closed {
		queued := len(pl.queue)
		pl.closed = true
		pl.queue = nil
		pl.stats.Dropped += queued
		dropped = pl.stats.Dropped - pl.reported
		pl.reported = pl.stats.Dropped
		e.bump(func(s *Stats) {
			s.DroppedSaves += queued
			s.QueueDepth -= queued
		})
		metricQueueDepth.Add(float64(-queued))
		notifyIdleLocked(pl)
		close(pl.done)
	}
	sess.mu.Unlock()
	if dropped > 0 {
		return fmt.Errorf("mediator: close %s: %d saves never reached the server", docID, dropped)
	}
	return nil
}
