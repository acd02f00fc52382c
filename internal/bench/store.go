// Store harnesses: the nightly eviction-churn soak with its goroutine and
// heap leak gates, and a storm/verify pair that drives a *live* server
// over HTTP and checks, ack by ack, that nothing acknowledged before a
// kill -9 is lost after recovery (scripts/crash_recovery.sh). Store
// latency and cache behaviour under load are measured by editbench.
package bench

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	//lint:ignore nonce-source seeded generator for a reproducible benchmark workload; never used for keys or nonces
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/store"
)

// storeContent builds one document's deterministic content; byte i of doc
// d differs across docs so a recovery mix-up cannot go unnoticed.
func storeContent(docID string, chars int) string {
	var b strings.Builder
	b.Grow(chars)
	b.WriteString(docID)
	b.WriteByte(' ')
	for b.Len() < chars {
		b.WriteByte('a' + byte((b.Len()*7+len(docID))%26))
	}
	return b.String()[:chars]
}

// SoakConfig sizes the nightly store soak: sustained eviction churn with
// goroutine- and heap-leak gates around it.
type SoakConfig struct {
	Duration   time.Duration // churn length
	Docs       int           // population (kept small; churn is the point)
	DocChars   int
	CacheBytes int64 // deliberately tiny so every op churns the LRU
	Workers    int
	Seed       int64
}

// SoakReport is what the nightly job asserts on.
type SoakReport struct {
	Ops            int64   `json:"ops"`
	DurationS      float64 `json:"duration_s"`
	Evictions      int64   `json:"evictions"`
	GoroutineDelta int     `json:"goroutine_delta"`
	HeapDeltaBytes int64   `json:"heap_delta_bytes"`
}

// RunStoreSoak churns a small cache hard for cfg.Duration and measures
// what leaked. Callers gate on GoroutineDelta and HeapDeltaBytes.
func RunStoreSoak(cfg SoakConfig) (SoakReport, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 30 * time.Second
	}
	if cfg.Docs <= 0 {
		cfg.Docs = 2_000
	}
	if cfg.DocChars <= 0 {
		cfg.DocChars = 2048
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = int64(cfg.Docs/20) * int64(cfg.DocChars)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 2011
	}
	obs.Enable()
	dir, err := os.MkdirTemp("", "privedit-store-soak-")
	if err != nil {
		return SoakReport{}, err
	}
	defer os.RemoveAll(dir)
	disk, err := store.Open(dir, store.Options{})
	if err != nil {
		return SoakReport{}, err
	}
	server := gdocs.NewServer(gdocs.WithBackend(disk), gdocs.WithCacheBytes(cfg.CacheBytes))
	ctx := context.Background()
	for i := 0; i < cfg.Docs; i++ {
		id := fmt.Sprintf("soak-%05d", i)
		if err := server.Create(ctx, id); err != nil {
			return SoakReport{}, err
		}
	}

	goroutinesBefore, heapBefore := leakBaseline()
	evictionsBefore := obs.Default.Value("privedit_server_cache_evictions_total")
	deadline := time.Now().Add(cfg.Duration)
	var (
		wg       sync.WaitGroup
		ops      sync.Map // worker -> int64
		errMu    sync.Mutex
		firstErr error
	)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			var n int64
			for time.Now().Before(deadline) {
				id := fmt.Sprintf("soak-%05d", rng.Intn(cfg.Docs))
				var err error
				if rng.Intn(3) == 0 {
					_, err = server.SetContents(ctx, id, storeContent(id, cfg.DocChars), -1)
				} else {
					_, _, err = server.Content(ctx, id)
				}
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				n++
			}
			ops.Store(w, n)
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return SoakReport{}, firstErr
	}
	rep := SoakReport{DurationS: cfg.Duration.Seconds()}
	ops.Range(func(_, v any) bool { rep.Ops += v.(int64); return true })
	rep.Evictions = int64(obs.Default.Value("privedit_server_cache_evictions_total") - evictionsBefore)
	goroutinesAfter, heapAfter := leakBaseline()
	rep.GoroutineDelta = goroutinesAfter - goroutinesBefore
	rep.HeapDeltaBytes = heapAfter - heapBefore
	return rep, disk.Close()
}

// leakBaseline settles the runtime (two GC cycles so finalizers run) and
// samples goroutine count and live heap for the soak's leak gates.
func leakBaseline() (goroutines int, heapBytes int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtime.NumGoroutine(), int64(ms.HeapAlloc)
}

// StormConfig drives the HTTP write storm of scripts/crash_recovery.sh:
// every acked save is appended to AckLog as "docID version sha256(content)"
// before the next write, so a kill -9 mid-storm leaves a precise record of
// what the server acknowledged and must therefore still hold.
type StormConfig struct {
	Target   string // server base URL
	AckLog   string // append-only ack journal path
	Workers  int
	Docs     int // documents per worker
	DocChars int
	Seed     int64
}

// RunStoreStorm hammers the target server with creates and full-content
// saves forever (the crash script kills the process mid-flight). Each ack
// is journaled with an fsync'd line before the next save so the journal
// never claims more than the server acknowledged.
func RunStoreStorm(cfg StormConfig) error {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Docs <= 0 {
		cfg.Docs = 8
	}
	if cfg.DocChars <= 0 {
		cfg.DocChars = 2048
	}
	logF, err := os.OpenFile(cfg.AckLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logF.Close()
	var logMu sync.Mutex
	journal := func(docID string, version int, content string) error {
		sum := sha256.Sum256([]byte(content))
		line := fmt.Sprintf("%s %d %s\n", docID, version, hex.EncodeToString(sum[:]))
		logMu.Lock()
		defer logMu.Unlock()
		if _, err := logF.WriteString(line); err != nil {
			return err
		}
		return logF.Sync()
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make(chan error, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			for round := 0; ; round++ {
				for d := 0; d < cfg.Docs; d++ {
					docID := fmt.Sprintf("storm-w%d-d%d", w, d)
					if round == 0 {
						form := url.Values{gdocs.FieldDocID: {docID}}
						resp, err := client.PostForm(cfg.Target+gdocs.PathCreate, form)
						if err != nil {
							errs <- err
							return
						}
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
					content := fmt.Sprintf("w%d d%d r%d %d %s", w, d, round, rng.Int63(),
						storeContent(docID, cfg.DocChars))
					form := url.Values{
						gdocs.FieldDocID:       {docID},
						gdocs.FieldDocContents: {content},
					}
					resp, err := client.PostForm(cfg.Target+gdocs.PathDoc, form)
					if err != nil {
						errs <- err
						return
					}
					body, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("save %s: status %d", docID, resp.StatusCode)
						return
					}
					ack, err := gdocs.ParseAck(string(body))
					if err != nil {
						errs <- fmt.Errorf("save %s: %w", docID, err)
						return
					}
					if err := journal(docID, ack.Version, content); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait() // workers only return on error; the script kills us first
	return <-errs
}

// VerifyAckLog checks a recovered server against the storm's ack journal:
// for every document the last acknowledged line must still be served —
// same version and byte-identical content (by SHA-256), or a strictly
// newer version when the killed process had an unacked save in flight.
func VerifyAckLog(target, ackLog string) (checked int, err error) {
	f, err := os.Open(ackLog)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	last := make(map[string]struct {
		version int
		sha     string
	})
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		parts := strings.Fields(sc.Text())
		if len(parts) != 3 {
			return 0, fmt.Errorf("malformed ack line %q", sc.Text())
		}
		v, err := strconv.Atoi(parts[1])
		if err != nil {
			return 0, fmt.Errorf("malformed ack version in %q", sc.Text())
		}
		prev, ok := last[parts[0]]
		if !ok || v >= prev.version {
			last[parts[0]] = struct {
				version int
				sha     string
			}{v, parts[2]}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for docID, want := range last {
		resp, err := client.Get(target + gdocs.PathDoc + "?" + url.Values{gdocs.FieldDocID: {docID}}.Encode())
		if err != nil {
			return checked, err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return checked, fmt.Errorf("%s: acked at v%d but server answered %d", docID, want.version, resp.StatusCode)
		}
		gotVersion, err := strconv.Atoi(resp.Header.Get(gdocs.HeaderDocVersion))
		if err != nil {
			return checked, fmt.Errorf("%s: bad %s header", docID, gdocs.HeaderDocVersion)
		}
		switch {
		case gotVersion < want.version:
			return checked, fmt.Errorf("%s: acked at v%d but server recovered only v%d — an acknowledged save was lost", docID, want.version, gotVersion)
		case gotVersion == want.version:
			sum := sha256.Sum256(body)
			if hex.EncodeToString(sum[:]) != want.sha {
				return checked, fmt.Errorf("%s: v%d content differs from the acknowledged bytes", docID, want.version)
			}
		default:
			// A save past the last ack was applied before the kill but its
			// response was lost: allowed — durability only promises acked
			// saves survive, and this one is strictly newer.
		}
		checked++
	}
	return checked, nil
}
