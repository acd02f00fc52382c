package gdocs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/delta"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

// Telemetry for the simulated service. No-ops until obs.Enable().
var (
	metricConflicts = obs.NewCounter("privedit_version_conflicts_total",
		"Optimistic-concurrency rejections: the client's base version no longer matched the stored one.")
	metricDocs = obs.NewGauge("privedit_server_documents",
		"Documents currently stored by the simulated service.")
	metricObservedTruncations = obs.NewCounter("privedit_observation_truncations_total",
		"Times the honest-but-curious observation log hit its cap and dropped its oldest bytes.")
)

// MaxDocBytes is the document size limit: "Google currently enforces a
// maximum file size of 500 kilobytes" (§V-C). The limit is what makes the
// ciphertext blow-up of 1-character blocks unacceptable.
const MaxDocBytes = 500 * 1024

// Server errors surfaced as HTTP statuses.
var (
	errNotFound = errors.New("gdocs: no such document")
	errConflict = errors.New("gdocs: delta does not apply to stored content")
	errTooLarge = errors.New("gdocs: document exceeds size limit")
	errStore    = errors.New("gdocs: persistence failure")
)

// Server is the simulated Google Documents service: an in-memory document
// store behind the reverse-engineered HTTP protocol. It never interprets
// document text — the property the whole approach relies on.
//
// The store is sharded (NumShards lock stripes) with a per-document RW
// lock, so concurrent requests against distinct documents never contend on
// a global lock, and concurrent readers of one document proceed together.
// Configuration (SetMaxBytes, EnableObservation, SetObservationCap) uses
// atomics and a dedicated observation-log lock, so it is safe to call while
// requests are in flight.
type Server struct {
	store *store

	maxBytes atomic.Int64
	observe  atomic.Bool

	// The observation log is cross-document by design (it models what a
	// curious provider accumulates over time), so it keeps its own lock
	// rather than riding on any document's.
	obsMu       sync.Mutex
	observed    []byte
	observedCap int

	// Admission control (nil adm = unlimited). draining flips once, when
	// the server starts refusing new work ahead of shutdown; inflight
	// counts requests between admission and response so Drain can wait
	// them out.
	adm      *admission
	draining atomic.Bool
	inflight atomic.Int64
}

// DefaultObservationCap bounds the observation log: enough for several
// maximum-size documents of history, small enough to leave on forever.
const DefaultObservationCap = 4 * MaxDocBytes

// serverConfig collects NewServer options before the store is built.
type serverConfig struct {
	backend    Backend
	cacheBytes int64
	admission  *AdmissionPolicy
	clock      func() time.Time
}

// ServerOption configures NewServer.
type ServerOption func(*serverConfig)

// WithBackend attaches a persistence backend: every accepted update is
// written through to it before the acknowledgment, documents absent from
// the resident cache are faulted in from it, and the cache becomes
// evictable (see WithCacheBytes).
func WithBackend(b Backend) ServerOption {
	return func(c *serverConfig) { c.backend = b }
}

// WithCacheBytes bounds the resident document cache (split evenly across
// the shards). Only meaningful with a backend; 0 keeps every document
// resident.
func WithCacheBytes(n int64) ServerOption {
	return func(c *serverConfig) { c.cacheBytes = n }
}

// WithAdmission enables per-client token-bucket rate limiting on the
// document endpoints.
func WithAdmission(p AdmissionPolicy) ServerOption {
	return func(c *serverConfig) { c.admission = &p }
}

// WithClock overrides the admission controller's time source (tests).
func WithClock(now func() time.Time) ServerOption {
	return func(c *serverConfig) { c.clock = now }
}

// NewServer creates a document store with the 500 KB per-document limit.
// Without options it is the original purely in-memory server.
func NewServer(opts ...ServerOption) *Server {
	var cfg serverConfig
	for _, o := range opts {
		o(&cfg)
	}
	s := &Server{
		store:       newStore(cfg.backend, cfg.cacheBytes),
		observedCap: DefaultObservationCap,
	}
	s.maxBytes.Store(MaxDocBytes)
	if cfg.admission != nil {
		s.adm = newAdmission(*cfg.admission, cfg.clock)
	}
	metricDocs.Set(float64(s.store.docs()))
	return s
}

// ResidentDocs returns how many documents are currently cache-resident
// (equal to the total store size when no backend is attached).
func (s *Server) ResidentDocs() int64 { return s.store.resident() }

// Drain puts the server into drain mode — every new document request is
// refused with a retryable 503 — waits for in-flight requests to finish
// (bounded by ctx), and flushes the persistence backend so every
// acknowledged save is on stable storage. It is the graceful half of
// shutdown; kill -9 is the other half, and recovery covers it.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		metricDraining.Set(1)
	}
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("gdocs: drain: %d requests still in flight: %w", s.inflight.Load(), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
	if s.store.backend != nil {
		if err := s.store.backend.Flush(); err != nil {
			return fmt.Errorf("gdocs: drain flush: %w", err)
		}
	}
	return nil
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetMaxBytes overrides the per-document size limit (tests). Safe to call
// with requests in flight.
func (s *Server) SetMaxBytes(n int) {
	s.maxBytes.Store(int64(n))
}

// EnableObservation turns on recording of all content the server sees,
// supporting the confidentiality leak detector. Safe to call with requests
// in flight.
func (s *Server) EnableObservation() {
	s.observe.Store(true)
}

// SetObservationCap overrides the observation log's byte cap. n <= 0
// removes the bound entirely (tests only; an unbounded log in a
// long-running server is the leak this cap exists to prevent). Safe to
// call with requests in flight.
func (s *Server) SetObservationCap(n int) {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.observedCap = n
}

// Observed returns what the (honest-but-curious) server has seen — the
// most recent observedCap bytes of it.
func (s *Server) Observed() string {
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	return string(s.observed)
}

func (s *Server) see(content string) {
	if !s.observe.Load() {
		return
	}
	s.obsMu.Lock()
	defer s.obsMu.Unlock()
	s.observed = append(s.observed, content...)
	s.observed = append(s.observed, '\n')
	if s.observedCap > 0 && len(s.observed) > s.observedCap {
		drop := len(s.observed) - s.observedCap
		s.observed = append(s.observed[:0], s.observed[drop:]...)
		metricObservedTruncations.Inc()
	}
}

// Create makes a new empty document. It fails if the id already exists.
func (s *Server) Create(ctx context.Context, docID string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.store.create(docID); err != nil {
		return err
	}
	metricDocs.Set(float64(s.store.docs()))
	return nil
}

// Content returns the stored content and version of a document.
func (s *Server) Content(ctx context.Context, docID string) (string, int, error) {
	if err := ctx.Err(); err != nil {
		return "", 0, err
	}
	_, sp := trace.Start(ctx, trace.SpanServerStore)
	defer sp.End()
	sp.Annotate("op", "content")
	sp.Annotate("doc", docID)
	doc, err := s.store.acquire(docID)
	if err != nil {
		return "", 0, fmt.Errorf("%w: %v", errStore, err)
	}
	if doc == nil {
		return "", 0, errNotFound
	}
	defer s.store.release(doc)
	doc.mu.RLock()
	defer doc.mu.RUnlock()
	return doc.content, doc.version, nil
}

// SetContents replaces a document's full content (the docContents save).
// baseVersion is the server version the client last saw; pass -1 to skip
// the optimistic-concurrency check.
func (s *Server) SetContents(ctx context.Context, docID, content string, baseVersion int) (Ack, error) {
	return s.setContents(ctx, docID, content, baseVersion, "")
}

func (s *Server) setContents(ctx context.Context, docID, content string, baseVersion int, saveID string) (Ack, error) {
	if err := ctx.Err(); err != nil {
		return Ack{}, err
	}
	_, sp := trace.Start(ctx, trace.SpanServerStore)
	defer sp.End()
	sp.Annotate("op", "set_contents")
	sp.Annotate("doc", docID)
	doc, err := s.store.acquire(docID)
	if err != nil {
		return Ack{}, fmt.Errorf("%w: %v", errStore, err)
	}
	if doc == nil {
		return Ack{}, errNotFound
	}
	defer s.store.release(doc)
	doc.mu.Lock()
	defer doc.mu.Unlock()
	if version, ok := doc.replayLocked(saveID); ok {
		// Idempotent replay: the save applied but its response was lost.
		sp.Annotate("replay", "1")
		return Ack{Version: version}, nil
	}
	if baseVersion >= 0 && baseVersion != doc.version {
		metricConflicts.Inc()
		sp.Annotate("conflict", "1")
		return Ack{}, errConflict
	}
	if int64(len(content)) > s.maxBytes.Load() {
		return Ack{}, errTooLarge
	}
	// Write-ahead: the new state must be durable before it is applied or
	// acknowledged, so kill -9 after the ack can never lose it.
	if err := s.persistLocked(doc, docID, content, doc.version+1); err != nil {
		return Ack{}, err
	}
	s.see(content)
	doc.content = content
	doc.version++
	doc.recordLocked(histEntry{id: saveID, full: true, version: doc.version})
	return Ack{
		ContentFromServer:     doc.content,
		ContentFromServerHash: ContentHash(doc.content),
		Version:               doc.version,
	}, nil
}

// persistLocked writes a document's next state through to the backend
// (when one is attached) and re-charges the cache budget for the size
// change. Callers hold doc.mu; the pin keeps the document resident.
func (s *Server) persistLocked(doc *serverDoc, docID, content string, version int) error {
	if s.store.backend == nil {
		return nil
	}
	if err := s.store.backend.Put(docID, content, version); err != nil {
		return fmt.Errorf("%w: %v", errStore, err)
	}
	s.store.resize(doc, len(content))
	return nil
}

// ApplyDelta applies an incremental update (the delta save). The server
// has no idea whether the stored text is plaintext or ciphertext; it just
// executes the edit script. baseVersion as in SetContents.
func (s *Server) ApplyDelta(ctx context.Context, docID, wire string, baseVersion int) (Ack, error) {
	return s.applyDelta(ctx, docID, wire, baseVersion, "")
}

func (s *Server) applyDelta(ctx context.Context, docID, wire string, baseVersion int, saveID string) (Ack, error) {
	if err := ctx.Err(); err != nil {
		return Ack{}, err
	}
	_, sp := trace.Start(ctx, trace.SpanServerStore)
	defer sp.End()
	sp.Annotate("op", "apply_delta")
	sp.Annotate("doc", docID)
	doc, aerr := s.store.acquire(docID)
	if aerr != nil {
		return Ack{}, fmt.Errorf("%w: %v", errStore, aerr)
	}
	if doc == nil {
		return Ack{}, errNotFound
	}
	defer s.store.release(doc)
	doc.mu.Lock()
	defer doc.mu.Unlock()
	if version, ok := doc.replayLocked(saveID); ok {
		// Idempotent replay: the save applied but its response was lost.
		sp.Annotate("replay", "1")
		return Ack{Version: version}, nil
	}
	if baseVersion >= 0 && baseVersion != doc.version {
		metricConflicts.Inc()
		sp.Annotate("conflict", "1")
		return Ack{}, errConflict
	}
	d, err := delta.Parse(wire)
	if err != nil {
		return Ack{}, fmt.Errorf("%w: %v", errConflict, err)
	}
	s.see(wire)
	updated, err := d.Apply(doc.content)
	if err != nil {
		// A delta computed against a stale version: the conflict case the
		// paper hits during simultaneous editing (§VII-A).
		metricConflicts.Inc()
		sp.Annotate("conflict", "1")
		return Ack{}, errConflict
	}
	if int64(len(updated)) > s.maxBytes.Load() {
		return Ack{}, errTooLarge
	}
	// Write-ahead: durable before applied or acknowledged.
	if err := s.persistLocked(doc, docID, updated, doc.version+1); err != nil {
		return Ack{}, err
	}
	doc.content = updated
	doc.version++
	doc.recordLocked(histEntry{id: saveID, wire: wire, version: doc.version})
	return Ack{
		ContentFromServer:     doc.content,
		ContentFromServerHash: ContentHash(doc.content),
		Version:               doc.version,
	}, nil
}

// DeltasSince returns the updates applied after version since as a
// catch-up, when the document's bounded history still covers the span and
// it contains no full-content save. ok is false when the caller must fall
// back to a full fetch.
func (s *Server) DeltasSince(ctx context.Context, docID string, since int) (Catchup, bool, error) {
	if err := ctx.Err(); err != nil {
		return Catchup{}, false, err
	}
	_, sp := trace.Start(ctx, trace.SpanServerStore)
	defer sp.End()
	sp.Annotate("op", "deltas_since")
	sp.Annotate("doc", docID)
	doc, err := s.store.acquire(docID)
	if err != nil {
		return Catchup{}, false, fmt.Errorf("%w: %v", errStore, err)
	}
	if doc == nil {
		return Catchup{}, false, errNotFound
	}
	defer s.store.release(doc)
	doc.mu.RLock()
	defer doc.mu.RUnlock()
	wires, ok := doc.deltasSinceLocked(since)
	if !ok {
		return Catchup{}, false, nil
	}
	return Catchup{Deltas: wires, Version: doc.version}, true, nil
}

// featureReply models the server-side features of §VII-A. They "work" by
// processing the stored document text — which is gibberish once the
// document is encrypted, and the requests never reach the server anyway
// because the extension blocks them.
func (s *Server) featureReply(ctx context.Context, kind, docID string) (string, error) {
	content, _, err := s.Content(ctx, docID)
	if err != nil {
		return "", err
	}
	switch kind {
	case "translate":
		// Toy "translation": uppercase the stored text.
		return strings.ToUpper(content), nil
	case "spell":
		// Toy spell check: report words longer than 12 characters.
		var odd []string
		for _, w := range strings.Fields(content) {
			if len(w) > 12 {
				odd = append(odd, w)
			}
		}
		return strings.Join(odd, ","), nil
	case "export":
		return "%PDF-FAKE%" + content, nil
	case "drawing":
		return "<svg>" + content + "</svg>", nil
	default:
		return "", fmt.Errorf("gdocs: unknown feature %q", kind)
	}
}

// ServeHTTP implements the wire protocol. Each request runs under its own
// context, so client-side timeouts and cancellations propagate into the
// store operations. Requests pass admission control first: a draining
// server and a client over its token-bucket rate both get a typed,
// retryable rejection (Retry-After + HeaderRetryable) that the mediating
// extension's retry backoff already knows how to absorb.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		rejectRetryable(w, http.StatusServiceUnavailable, time.Second, ErrDraining)
		metricAdmissionDrainRejects.Inc()
		return
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.adm != nil {
		if wait, ok := s.adm.allow(clientKey(r)); !ok {
			rejectRetryable(w, http.StatusTooManyRequests, wait, ErrRateLimited)
			metricAdmissionRateRejects.Inc()
			return
		}
	}
	ctx := r.Context()
	switch {
	case r.URL.Path == PathCreate && r.Method == http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := s.Create(ctx, r.PostForm.Get(FieldDocID)); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		fmt.Fprint(w, "ok")

	case r.URL.Path == PathDoc && r.Method == http.MethodGet:
		q := r.URL.Query()
		docID := q.Get(FieldDocID)
		if sv := q.Get(FieldSince); sv != "" {
			since, err := strconv.Atoi(sv)
			if err != nil {
				http.Error(w, "gdocs: bad since version", http.StatusBadRequest)
				return
			}
			cu, ok, err := s.DeltasSince(ctx, docID, since)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			if ok {
				w.Header().Set(HeaderDeltas, "1")
				w.Header().Set(HeaderDocVersion, strconv.Itoa(cu.Version))
				fmt.Fprint(w, cu.Encode())
				return
			}
			// History gap: fall through to the full-content response.
		}
		content, version, err := s.Content(ctx, docID)
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set(HeaderDocVersion, strconv.Itoa(version))
		fmt.Fprint(w, content)

	case r.URL.Path == PathDoc && r.Method == http.MethodPost:
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		docID := r.PostForm.Get(FieldDocID)
		if docID == "" {
			docID = r.URL.Query().Get(FieldDocID)
		}
		baseVersion := -1
		if v := r.PostForm.Get(FieldVersion); v != "" {
			parsed, err := strconv.Atoi(v)
			if err != nil {
				http.Error(w, "gdocs: bad version", http.StatusBadRequest)
				return
			}
			baseVersion = parsed
		}
		saveID := r.Header.Get(HeaderSaveID)
		var (
			ack Ack
			err error
		)
		if r.PostForm.Has(FieldDocContents) {
			ack, err = s.setContents(ctx, docID, r.PostForm.Get(FieldDocContents), baseVersion, saveID)
		} else if r.PostForm.Has(FieldDelta) {
			ack, err = s.applyDelta(ctx, docID, r.PostForm.Get(FieldDelta), baseVersion, saveID)
		} else {
			http.Error(w, "gdocs: no docContents or delta", http.StatusBadRequest)
			return
		}
		switch {
		case errors.Is(err, errNotFound):
			http.Error(w, err.Error(), http.StatusNotFound)
		case errors.Is(err, errConflict):
			http.Error(w, err.Error(), http.StatusConflict)
		case errors.Is(err, errTooLarge):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		case err != nil:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		default:
			fmt.Fprint(w, ack.Encode())
		}

	case r.Method == http.MethodPost &&
		(r.URL.Path == PathTranslate || r.URL.Path == PathSpell ||
			r.URL.Path == PathDrawing || r.URL.Path == PathExport):
		if err := r.ParseForm(); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		kind := map[string]string{
			PathTranslate: "translate",
			PathSpell:     "spell",
			PathDrawing:   "drawing",
			PathExport:    "export",
		}[r.URL.Path]
		out, err := s.featureReply(ctx, kind, r.PostForm.Get(FieldDocID))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		fmt.Fprint(w, out)

	default:
		http.Error(w, "gdocs: unknown endpoint", http.StatusNotFound)
	}
}
