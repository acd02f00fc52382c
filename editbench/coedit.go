package main

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	seeded "privedit/internal/workload"
)

// coedit is two users, each with their own pipelined mediator and one
// generator goroutine, editing the same documents round-robin in a closed
// loop: burst, Sync (local ack), Flush (durable ack), next document. Each
// user's view of a document goes stale whenever the other saved it, so
// their saves collide at the server (409) and each collision is repaired
// by catch-up (DeltasSince) plus delta.Transform: the one workload that
// loads the OT-merge path.
type coedit struct {
	cfg   config
	ids   []string
	texts []string
	users [2]*coUser
	epoch int64
}

type coUser struct {
	ext     *mediator.Extension
	httpc   *http.Client
	clients []*gdocs.Client
	cursors []int
}

func newCoedit(cfg config) *coedit {
	rng := seeded.NewGen(cfg.seed)
	c := &coedit{cfg: cfg}
	for i := 0; i < cfg.coeditDocs; i++ {
		c.ids = append(c.ids, fmt.Sprintf("coedit-%02d", i))
		c.texts = append(c.texts, rng.Document(cfg.coeditChars))
	}
	return c
}

// cacheBytes keeps the shared documents resident (see typing).
func (c *coedit) cacheBytes() int64 { return 64 << 20 }

func (c *coedit) populate(st *stack) error { return st.seedDocs(c.ids, c.texts) }

func (c *coedit) warmup() string {
	return fmt.Sprintf("both users load all %d docs, then %v of the closed loop", len(c.ids), c.cfg.coeditWarm)
}

func (c *coedit) warm(st *stack) error {
	for u := range c.users {
		ext, _ := st.newExtension()
		user := &coUser{ext: ext, httpc: st.client(ext), cursors: make([]int, len(c.ids))}
		for _, id := range c.ids {
			cl := gdocs.NewClient(user.httpc, st.url, id)
			if err := cl.Load(); err != nil {
				return fmt.Errorf("user %d: load %s: %w", u, id, err)
			}
			user.clients = append(user.clients, cl)
		}
		c.users[u] = user
	}
	w := &window{start: time.Now()}
	c.drive(w, c.cfg.coeditWarm)
	if w.failed > 0 {
		return fmt.Errorf("%d of %d warm-up edits failed", w.failed, w.ops)
	}
	return nil
}

// drive runs both users' loops for d and adds their edits to w.
func (c *coedit) drive(w *window, d time.Duration) {
	c.epoch++
	deadline := time.Now().Add(d)
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for u, user := range c.users {
		wg.Add(1)
		go func(u int, user *coUser) {
			defer wg.Done()
			rng := seeded.NewGen(c.cfg.seed*7919 + c.epoch*104729 + int64(u))
			for k := 0; time.Now().Before(deadline); k++ {
				i := (k + u*len(c.ids)/2) % len(c.ids)
				begin := time.Now()
				local, durable, err := c.edit(user, rng, i)
				mu.Lock()
				w.ops++
				if err != nil {
					w.failed++
				} else {
					w.add(begin, local, durable)
					w.plain += float64(c.cfg.keystrokes)
				}
				mu.Unlock()
			}
		}(u, user)
	}
	wg.Wait()
}

func (c *coedit) edit(user *coUser, rng *seeded.Gen, i int) (local, durable time.Duration, err error) {
	cl := user.clients[i]
	start := time.Now()
	err = burst(cl, rng, &user.cursors[i], c.cfg.keystrokes)
	if err == nil {
		err = cl.Sync()
	}
	local = time.Since(start)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = user.ext.Session(c.ids[i]).Flush(ctx)
		cancel()
	}
	return local, time.Since(start), err
}

// run measures one window. Wire bytes are request bytes of saves,
// retries after a 409 included.
func (c *coedit) run(st *stack, w *window, d time.Duration) {
	c.drive(w, d)
	w.wire = w.rec.total("http.save_req_bytes")
}

func (c *coedit) ledger(*stack, *window) {}

func (c *coedit) stats() mediator.Stats {
	var s mediator.Stats
	for _, u := range c.users {
		if u != nil {
			s = addStats(s, u.ext.Stats())
		}
	}
	return s
}

// verify: after a flush and a fresh load, both users' texts and the
// server's decrypted content must be byte-identical; the window must have
// made the users' saves collide.
func (c *coedit) verify(st *stack, windows []*window) []string {
	var failed []string
	if err := c.close(); err != nil {
		failed = append(failed, "closing sessions: "+err.Error())
	}
	for _, id := range c.ids {
		server, err := st.storedPlaintext(id)
		if err != nil {
			failed = append(failed, err.Error())
			continue
		}
		for u, user := range c.users {
			cl := gdocs.NewClient(user.httpc, st.url, id)
			if err := cl.Load(); err != nil {
				failed = append(failed, fmt.Sprintf("user %d: reload %s: %v", u, id, err))
			} else if cl.Text() != server {
				failed = append(failed, fmt.Sprintf("user %d: %s diverged from the server's content", u, id))
			}
		}
	}
	for _, w := range windows {
		if w.rec.total("http.conflicts") == 0 {
			failed = append(failed, "coedit saw no 409: the users' saves must collide")
		}
	}
	return failed
}

func (c *coedit) close() error {
	var err error
	for _, u := range c.users {
		if u == nil {
			continue
		}
		for _, id := range c.ids {
			if cerr := u.ext.Session(id).Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}
	return err
}
