package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/store"
	"privedit/internal/trace"
)

// password is every benchmark document's password. Documents are RPC
// (confidentiality + integrity) with b=8, the paper's defaults.
const password = "editbench-pw"

var docOptions = core.Options{Scheme: core.ConfidentialityIntegrity, BlockChars: core.DefaultBlockChars}

// stack is one instance of the system under test: gdocs.Server on a
// durable store.Disk (SyncAlways group commit) behind loopback HTTP, plus
// the seams the benchmark times it through. Nothing here changes what the
// program does; every seam only observes.
type stack struct {
	dir    string
	disk   *store.Disk
	server *gdocs.Server
	http   *http.Server
	served chan struct{}
	url    string

	// base is the transport every mediator sends through, capped at nproc
	// connections like the load generators.
	base *http.Transport

	// rec receives the seams' observations for the current window.
	rec atomic.Pointer[recorder]
}

// newStack opens a store in dir and starts the server on loopback. fault,
// when non-empty, names a document whose every stored state the backend
// seam corrupts by one byte (the correctness checks must catch it).
func newStack(dir string, cacheBytes, checkpointBytes int64, fault string) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store dir: %w", err)
	}
	disk, err := store.Open(dir, store.Options{Sync: store.SyncAlways, CheckpointBytes: checkpointBytes})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	st := &stack{dir: dir, disk: disk, served: make(chan struct{})}
	st.rec.Store(newRecorder())
	st.server = gdocs.NewServer(
		gdocs.WithBackend(&backendSeam{inner: disk, st: st, fault: fault}),
		gdocs.WithCacheBytes(cacheBytes))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		disk.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.url = "http://" + ln.Addr().String()
	st.http = &http.Server{Handler: &serverSeam{next: trace.Middleware(st.server), st: st}}
	go func() {
		defer close(st.served)
		_ = st.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	conns := runtime.NumCPU()
	st.base = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return st, nil
}

// close stops the server, closes the store and removes its files.
func (st *stack) close() error {
	err := st.http.Close()
	<-st.served
	st.base.CloseIdleConnections()
	if cerr := st.disk.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(st.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// newExtension builds a pipelined mediator (queue depth DefaultInflight)
// that sends through its own lower seam.
func (st *stack) newExtension() (*mediator.Extension, *lowerRT) {
	low := &lowerRT{next: st.base, st: st, acks: map[string][]time.Time{}}
	ext := mediator.New(low, mediator.StaticPassword(password, docOptions), mediator.WithPipeline(mediator.DefaultInflight))
	return ext, low
}

// client returns the HTTP client an editor uses: the upper seam in front
// of the extension.
func (st *stack) client(ext *mediator.Extension) *http.Client {
	return &http.Client{Transport: &upperRT{next: ext, st: st}}
}

// storedPlaintext opens a document's durable state with core.OpenWith.
func (st *stack) storedPlaintext(docID string) (string, error) {
	container, _, ok, err := st.disk.Get(docID)
	if err != nil {
		return "", err
	}
	if !ok {
		return "", fmt.Errorf("%s: not in the store", docID)
	}
	ed, err := core.OpenWith(password, container, core.Options{})
	if err != nil {
		return "", fmt.Errorf("%s: open stored container: %w", docID, err)
	}
	return ed.Plaintext(), nil
}

// seedDocs creates every document through a pipelined mediator — create,
// full save, flush — with nproc workers. It is the timed part of set-up.
func (st *stack) seedDocs(ids, texts []string) error {
	ext, _ := st.newExtension()
	httpc := ext.Client()
	var (
		next atomic.Int64
		mu   sync.Mutex
		errs error
		wg   sync.WaitGroup
	)
	for w := 0; w < min(runtime.NumCPU(), len(ids)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(ids); i = int(next.Add(1)) - 1 {
				if err := seedOne(ext, httpc, st.url, ids[i], texts[i]); err != nil {
					mu.Lock()
					errs = errors.Join(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

func seedOne(ext *mediator.Extension, httpc *http.Client, base, id, text string) error {
	c := gdocs.NewClient(httpc, base, id)
	if err := c.Create(); err != nil {
		return fmt.Errorf("seed %s: create: %w", id, err)
	}
	c.SetText(text)
	if err := c.Save(); err != nil {
		return fmt.Errorf("seed %s: save: %w", id, err)
	}
	sess := ext.Session(id)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := sess.Flush(ctx); err != nil {
		return fmt.Errorf("seed %s: flush: %w", id, err)
	}
	return sess.Close()
}

// recorder collects one window's seam observations: latency samples (ms)
// and totals, each under a layer name.
type recorder struct {
	mu     sync.Mutex
	durs   map[string][]float64
	totals map[string]float64
}

func newRecorder() *recorder {
	return &recorder{durs: map[string][]float64{}, totals: map[string]float64{}}
}

func (r *recorder) since(name string, start time.Time) {
	ms := float64(time.Since(start)) / float64(time.Millisecond)
	r.mu.Lock()
	r.durs[name] = append(r.durs[name], ms)
	r.mu.Unlock()
}

func (r *recorder) add(name string, n float64) {
	r.mu.Lock()
	r.totals[name] += n
	r.mu.Unlock()
}

func (r *recorder) samples(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.durs[name]
}

func (r *recorder) total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals[name]
}

// upperRT sits between the gdocs.Client and the mediator: it times the
// mediator's ingest of each save, which ends in the local ack.
type upperRT struct {
	next http.RoundTripper
	st   *stack
}

func (t *upperRT) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if req.Method == http.MethodPost && req.URL.Path == gdocs.PathDoc {
		t.st.rec.Load().since("mediator.ingest", start)
	}
	return resp, err
}

// lowerRT sits below the mediator, on the wire to the server. It times
// each request until its response body is consumed, counts bytes both
// ways, counts 409s, and logs the arrival of every 2xx save per document
// so a burst can be matched to the save that made it durable.
type lowerRT struct {
	next http.RoundTripper
	st   *stack

	mu   sync.Mutex
	acks map[string][]time.Time // per document, arrival of each 2xx save
}

func (t *lowerRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := t.st.rec.Load()
	kind, doc := "http.other", req.URL.Query().Get(gdocs.FieldDocID)
	switch {
	case req.Method == http.MethodPost && req.URL.Path == gdocs.PathDoc:
		kind = "http.save"
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req = req.Clone(req.Context())
		req.Body = io.NopCloser(bytes.NewReader(body))
		form, err := url.ParseQuery(string(body))
		if err != nil {
			return nil, err
		}
		doc = form.Get(gdocs.FieldDocID)
		rec.add("http.saves", 1)
		rec.add("http.save_req_bytes", float64(len(body)))
		if form.Has(gdocs.FieldDocContents) {
			rec.add("http.full_saves", 1)
		}
	case req.Method == http.MethodGet && req.URL.Path == gdocs.PathDoc:
		kind = "http.get"
		if req.URL.Query().Has(gdocs.FieldSince) {
			kind = "http.catchup"
		}
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if kind == "http.save" {
		switch {
		case resp.StatusCode == http.StatusOK:
			t.mu.Lock()
			t.acks[doc] = append(t.acks[doc], time.Now())
			t.mu.Unlock()
		case resp.StatusCode == http.StatusConflict:
			rec.add("http.conflicts", 1)
		}
	}
	ok := resp.StatusCode == http.StatusOK
	resp.Body = &meteredBody{ReadCloser: resp.Body, done: func(n int64) {
		if ok {
			rec.since(kind, start)
		}
		rec.add(kind+"_resp_bytes", float64(n))
	}}
	return resp, nil
}

// acked returns how many 2xx saves of doc arrived so far.
func (t *lowerRT) acked(doc string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.acks[doc])
}

// ackTime returns when the k-th (1-based) 2xx save of doc arrived.
func (t *lowerRT) ackTime(doc string, k int) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if k < 1 || k > len(t.acks[doc]) {
		return time.Time{}, false
	}
	return t.acks[doc][k-1], true
}

// meteredBody counts a response body's bytes and reports once, at EOF or
// Close, whichever comes first.
type meteredBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *meteredBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// serverSeam wraps the server's handler and times the 2xx saves and full
// loads it serves.
type serverSeam struct {
	next http.Handler
	st   *stack
}

func (s *serverSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.next.ServeHTTP(sw, r)
	if r.URL.Path != gdocs.PathDoc || sw.status != http.StatusOK {
		return
	}
	switch {
	case r.Method == http.MethodPost:
		s.st.rec.Load().since("server.save", start)
	case !r.URL.Query().Has(gdocs.FieldSince):
		s.st.rec.Load().since("server.get", start)
	}
}

type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// backendSeam decorates the server's persistence backend: it times Put and
// Get and counts the bytes written. With fault set it corrupts one byte of
// every state stored for that document — the injected fault the
// benchmark's correctness checks must catch.
type backendSeam struct {
	inner gdocs.Backend
	st    *stack
	fault string
}

func (b *backendSeam) Put(docID, content string, version int) error {
	if docID == b.fault && len(content) > 0 {
		buf := []byte(content)
		i := len(buf) / 2
		if buf[i] == 'A' {
			buf[i] = 'B'
		} else {
			buf[i] = 'A'
		}
		content = string(buf)
	}
	rec := b.st.rec.Load()
	start := time.Now()
	err := b.inner.Put(docID, content, version)
	rec.since("store.put", start)
	rec.add("store.put_bytes", float64(len(content)))
	return err
}

func (b *backendSeam) Get(docID string) (string, int, bool, error) {
	rec := b.st.rec.Load()
	start := time.Now()
	content, version, ok, err := b.inner.Get(docID)
	rec.since("store.get", start)
	return content, version, ok, err
}

func (b *backendSeam) Has(docID string) (bool, error) { return b.inner.Has(docID) }
func (b *backendSeam) Docs() int64                    { return b.inner.Docs() }
func (b *backendSeam) Flush() error                   { return b.inner.Flush() }
