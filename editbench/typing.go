package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	seeded "privedit/internal/workload"
)

// typing is an open loop of keystroke bursts: every document receives
// bursts at a fixed rate whether or not earlier ones are done, and each
// burst is timed from when it was due. One writer per document, and the
// documents fit the server cache: the write path without merges, misses
// or key derivation.
type typing struct {
	cfg   config
	ids   []string
	texts []string

	ext   *mediator.Extension
	low   *lowerRT
	docs  []*typingDoc
	epoch int64 // distinct keystroke streams for warm-up and each window

	last []typingSample // the latest window's bursts, for the ledger
}

type typingDoc struct {
	id     string
	c      *gdocs.Client
	sess   *mediator.Session
	cursor int
}

// typingSample is one burst: when it was due, began and was acked
// locally, and which 2xx save of its document makes it durable.
type typingSample struct {
	doc             *typingDoc
	due, begin, ack time.Time
	target, had     int // covering save (1-based) and 2xx saves seen at the ack
	keys            int
	err             error
}

func newTyping(cfg config) *typing {
	rng := seeded.NewGen(cfg.seed)
	t := &typing{cfg: cfg}
	for i := 0; i < cfg.typingDocs; i++ {
		t.ids = append(t.ids, fmt.Sprintf("typing-%02d", i))
		t.texts = append(t.texts, rng.Document(cfg.typingChars))
	}
	return t
}

// cacheBytes keeps every typing document resident: 64 MiB is 2 MiB per
// cache shard, several times the documents that can hash onto one.
func (t *typing) cacheBytes() int64 { return 64 << 20 }

func (t *typing) populate(st *stack) error { return st.seedDocs(t.ids, t.texts) }

func (t *typing) warmup() string {
	return fmt.Sprintf("load %d docs into one pipelined mediator, then %v of bursts at the window's rate, then flush",
		len(t.ids), t.cfg.typingWarm)
}

func (t *typing) warm(st *stack) error {
	t.ext, t.low = st.newExtension()
	httpc := st.client(t.ext)
	for i, id := range t.ids {
		c := gdocs.NewClient(httpc, st.url, id)
		if err := c.Load(); err != nil {
			return fmt.Errorf("load %s: %w", id, err)
		}
		if c.Text() != t.texts[i] {
			return fmt.Errorf("load %s: text differs from the seeded text", id)
		}
		t.docs = append(t.docs, &typingDoc{id: id, c: c, sess: t.ext.Session(id)})
	}
	if _, err := t.drive(t.cfg.typingWarm); err != nil {
		return err
	}
	return nil
}

// drive runs the open loop for d with min(nproc, docs) generators, each
// owning a fixed share of the documents, then flushes every document.
func (t *typing) drive(d time.Duration) ([]typingSample, error) {
	t.epoch++
	gens := min(runtime.NumCPU(), len(t.docs))
	period := time.Duration(float64(time.Second) / t.cfg.typingRate)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	out := make([][]typingSample, gens)
	var wg sync.WaitGroup
	for g := 0; g < gens; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := seeded.NewGen(t.cfg.seed*7919 + t.epoch*104729 + int64(g))
			var mine []*typingDoc
			var next []time.Time
			for i := g; i < len(t.docs); i += gens {
				mine = append(mine, t.docs[i])
				next = append(next, start.Add(time.Duration(i)*period/time.Duration(len(t.docs))))
			}
			for {
				j := 0
				for k := range next {
					if next[k].Before(next[j]) {
						j = k
					}
				}
				due := next[j]
				if !due.Before(end) {
					return
				}
				next[j] = due.Add(period)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				out[g] = append(out[g], t.burst(mine[j], rng, due))
			}
		}(g)
	}
	wg.Wait()
	var all []typingSample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, t.flush()
}

func (t *typing) burst(d *typingDoc, rng *seeded.Gen, due time.Time) typingSample {
	s := typingSample{doc: d, due: due, begin: time.Now(), keys: t.cfg.keystrokes}
	s.err = burst(d.c, rng, &d.cursor, t.cfg.keystrokes)
	if s.err == nil {
		s.err = d.c.Sync()
	}
	s.ack = time.Now()
	ss := d.sess.Stats()
	s.target, s.had = ss.Saved+ss.Pending, t.low.acked(d.id)
	return s
}

func (t *typing) flush() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, d := range t.docs {
		if err := d.sess.Flush(ctx); err != nil {
			return fmt.Errorf("flush %s: %w", d.id, err)
		}
	}
	return nil
}

// run measures one window. Local ack is due time → Sync returns. Durable
// ack is due time → arrival of the 2xx save that covers the burst: at the
// local ack the burst sits in the tail queue entry, number Saved+Pending
// in the document's save order, and the lower seam logs every 2xx save of
// the document in that order. Wire bytes are request bytes of saves.
func (t *typing) run(st *stack, w *window, d time.Duration) {
	samples, err := t.drive(d)
	if err != nil {
		w.failed++
	}
	t.last = samples
	for _, s := range samples {
		w.ops++
		if s.err != nil {
			w.failed++
			continue
		}
		durable := s.ack
		if s.target > s.had {
			at, ok := t.low.ackTime(s.doc.id, s.target)
			if !ok {
				w.failed++ // flushed, yet never durably acked
				continue
			}
			durable = at
		}
		w.add(s.due, s.ack.Sub(s.due), durable.Sub(s.due))
		w.late = append(w.late, ms(s.begin.Sub(s.due)))
		w.plain += float64(s.keys)
	}
	w.wire = w.rec.total("http.save_req_bytes")
}

// ledger matches each burst to the writer drain span whose 2xx response
// made it durable; queue wait is local ack → that drain's start.
func (t *typing) ledger(st *stack, w *window) {
	for _, s := range t.last {
		if s.err != nil || s.target <= s.had {
			continue
		}
		at, ok := t.low.ackTime(s.doc.id, s.target)
		if !ok {
			continue
		}
		if dr, ok := w.spans.drainAt(s.doc.id, at); ok {
			w.queueWait = append(w.queueWait, max(0, ms(dr.start.Sub(s.ack))))
		}
	}
}

func (t *typing) stats() mediator.Stats {
	if t.ext == nil {
		return mediator.Stats{}
	}
	return t.ext.Stats()
}

// verify opens every document's stored ciphertext with core.OpenWith and
// compares it with the editor's text; the window must not have missed the
// cache and must have checkpointed the store several times.
func (t *typing) verify(st *stack, windows []*window) []string {
	var failed []string
	for _, d := range t.docs {
		got, err := st.storedPlaintext(d.id)
		switch {
		case err != nil:
			failed = append(failed, err.Error())
		case got != d.c.Text():
			failed = append(failed, d.id+": stored plaintext differs from the editor's text")
		}
	}
	for _, w := range windows {
		if n := w.obs["privedit_server_cache_misses_total"]; n > 0 {
			failed = append(failed, fmt.Sprintf("typing missed the server cache %.0f times: the documents must stay resident", n))
		}
		if n := w.obs["privedit_store_checkpoints_total"]; n < 3 {
			failed = append(failed, fmt.Sprintf("typing checkpointed the store %.0f times in a window, want at least 3", n))
		}
	}
	return failed
}

func (t *typing) close() error {
	var err error
	for _, d := range t.docs {
		if cerr := d.sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}
