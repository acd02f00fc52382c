package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"privedit/internal/blockdoc"
	"privedit/internal/core"
	"privedit/internal/crypt"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	seeded "privedit/internal/workload"
)

// opener is a closed loop of cold opens: nproc clients, each with its own
// pipelined mediator, repeatedly open a random document of a population
// larger than the server cache in a fresh mediator session and close it.
// It loads the read path — GET, cache miss, store read, Base32 decode,
// key derivation, Dec, skip-list build — and bypasses diff, the save
// queue, the writer and WAL writes.
type opener struct {
	cfg       config
	ids       []string
	texts     []string
	sums      [][sha256.Size]byte
	container int // bytes of one document's container

	users []openUser
	epoch int64
}

type openUser struct {
	ext   *mediator.Extension
	httpc *http.Client
}

func newOpen(cfg config) (*opener, error) {
	rng := seeded.NewGen(cfg.seed)
	o := &opener{cfg: cfg}
	for i := 0; i < cfg.openDocs; i++ {
		o.ids = append(o.ids, fmt.Sprintf("open-%03d", i))
		o.texts = append(o.texts, rng.Document(cfg.openChars))
		o.sums = append(o.sums, sha256.Sum256([]byte(o.texts[i])))
	}
	// Size the cache from one real container.
	ed, err := core.NewEditor(password, docOptions)
	if err != nil {
		return nil, err
	}
	c, err := ed.Encrypt(o.texts[0])
	if err != nil {
		return nil, err
	}
	o.container = len(c)
	return o, nil
}

// cacheBytes is the configured share of the population's container bytes.
func (o *opener) cacheBytes() int64 {
	return int64(o.cfg.openCacheFrac * float64(o.container*len(o.ids)))
}

func (o *opener) populate(st *stack) error { return st.seedDocs(o.ids, o.texts) }

func (o *opener) warmup() string {
	return fmt.Sprintf("%d untimed cold opens over the population (%d docs × %d chars, %d-byte containers, cache %d bytes)",
		o.cfg.openWarm, len(o.ids), o.cfg.openChars, o.container, o.cacheBytes())
}

func (o *opener) warm(st *stack) error {
	for i := 0; i < min(runtime.NumCPU(), len(o.ids)); i++ {
		ext, _ := st.newExtension()
		o.users = append(o.users, openUser{ext: ext, httpc: st.client(ext)})
	}
	w := &window{}
	o.drive(st, w, time.Time{}, o.cfg.openWarm)
	if w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up opens failed", w.failed, w.ops)
	}
	return nil
}

// drive runs every user's closed loop until deadline (or, with a zero
// deadline, until count opens are done in total) and adds them to w.
func (o *opener) drive(st *stack, w *window, deadline time.Time, count int) {
	o.epoch++
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for u := range o.users {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := seeded.NewGen(o.cfg.seed*7919 + o.epoch*104729 + int64(u))
			for n := u; ; n += len(o.users) {
				if deadline.IsZero() && n >= count || !deadline.IsZero() && !time.Now().Before(deadline) {
					return
				}
				i := rng.Intn(len(o.ids))
				begin := time.Now()
				local, durable, err := o.open(st, o.users[u], i)
				mu.Lock()
				w.ops++
				if err != nil {
					w.failed++
				} else {
					w.add(begin, local, durable)
					w.plain += float64(len(o.texts[i]))
				}
				mu.Unlock()
			}
		}(u)
	}
	wg.Wait()
}

// open is one cold open: a fresh session, Client.Load (local ack: the
// editor shows the text), Session.Flush (durable ack: the mediator's
// post-load catch-up has confirmed the version with the server), close.
// The text must hash to the seeded one.
func (o *opener) open(st *stack, u openUser, i int) (local, durable time.Duration, err error) {
	id := o.ids[i]
	start := time.Now()
	c := gdocs.NewClient(u.httpc, st.url, id)
	err = c.Load()
	local = time.Since(start)
	sess := u.ext.Session(id)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = sess.Flush(ctx)
		cancel()
	}
	durable = time.Since(start)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err == nil && sha256.Sum256([]byte(c.Text())) != o.sums[i] {
		err = fmt.Errorf("%s: opened text differs from the seeded text", id)
	}
	return local, durable, err
}

// run measures one window. Wire bytes are the response bytes of the GETs
// below the mediator, against the plaintext bytes opened.
func (o *opener) run(st *stack, w *window, d time.Duration) {
	o.drive(st, w, w.start.Add(d), 0)
	w.wire = w.rec.total("http.get_resp_bytes") + w.rec.total("http.catchup_resp_bytes")
}

// ledger times the public calls one open makes, directly on stored
// containers, after the traced window: key derivation, Base32 decode of
// the container and the whole core.OpenWith.
func (o *opener) ledger(st *stack, w *window) {
	for i := 0; i < min(o.cfg.openProbes, len(o.ids)); i++ {
		container, _, ok, err := st.disk.Get(o.ids[i])
		if err != nil || !ok {
			w.failed++
			continue
		}
		h, err := blockdoc.PeekHeader(container)
		if err != nil {
			w.failed++
			continue
		}
		start := time.Now()
		crypt.DeriveDocumentKey(password, h.Salt[:])
		w.kdf = append(w.kdf, ms(time.Since(start)))
		start = time.Now()
		_, err = crypt.DecodeTransport(container[:len(container)/8*8]) // whole 8-symbol groups
		w.decode = append(w.decode, ms(time.Since(start)))
		if err != nil {
			w.failed++
		}
		start = time.Now()
		ed, err := core.OpenWith(password, container, core.Options{})
		w.coreOpen = append(w.coreOpen, ms(time.Since(start)))
		if err != nil || sha256.Sum256([]byte(ed.Plaintext())) != o.sums[i] {
			w.failed++
		}
	}
}

func (o *opener) stats() mediator.Stats {
	var s mediator.Stats
	for _, u := range o.users {
		s = addStats(s, u.ext.Stats())
	}
	return s
}

// verify: each open already checked its text. The window must have
// evicted from the server cache and read the store on misses.
func (o *opener) verify(st *stack, windows []*window) []string {
	var failed []string
	for _, w := range windows {
		if w.obs["privedit_server_cache_evictions_total"] == 0 {
			failed = append(failed, "open evicted nothing from the server cache: the population must exceed it")
		}
		if len(w.rec.samples("store.get")) == 0 {
			failed = append(failed, "open read nothing from the store: cold opens must miss the cache")
		}
	}
	return failed
}

func (o *opener) close() error { return nil } // every open closes its own session
