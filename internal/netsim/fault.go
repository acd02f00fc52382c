// Fault injection: the untrusted cloud of the paper's threat model is not
// just curious, it is *unreliable*. The prototype mediated live Google
// Docs traffic that could stall, fail, or return garbage; this file makes
// the simulated service misbehave the same way, on demand and
// reproducibly. A FaultTransport sits between the mediating extension and
// the (possibly delay-simulated) server and injects request drops, 5xx and
// 429 responses, timeouts, response-body corruption, latency jitter
// spikes, and timed partition windows.
//
// Determinism contract: every fault decision is a pure function of
// (Seed, method, path, docID, n) where n counts how many times that
// request shape has been seen. Concurrent sessions editing *distinct*
// documents therefore draw identical fault sequences run after run, no
// matter how the scheduler interleaves them — which is what lets the chaos
// gate (internal/e2e's TestChaosDistinctDocsUnderStorm) pin exact fault
// counts. Partition windows are the one wall-clock-driven fault; runs that
// need strict determinism leave them empty.
package netsim

import (
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privedit/internal/obs"
	"privedit/internal/trace"
)

// Telemetry for the fault layer. No-ops until obs.Enable().
var (
	metricFaults = func(kind string) *obs.Counter {
		return obs.NewCounter("privedit_netsim_faults_total",
			"Faults injected by the simulated network, by kind.", "kind", kind)
	}
	metricFaultDrop      = metricFaults("drop")
	metricFaultDropResp  = metricFaults("drop_response")
	metricFaultErr5xx    = metricFaults("err_5xx")
	metricFaultThrottle  = metricFaults("throttle_429")
	metricFaultTimeout   = metricFaults("timeout")
	metricFaultCorrupt   = metricFaults("corrupt")
	metricFaultJitter    = metricFaults("jitter")
	metricFaultPartition = metricFaults("partition")

	metricFaultRequests = obs.NewCounter("privedit_netsim_fault_requests_total",
		"Requests routed through the fault-injection transport while it was enabled.")
)

// FaultProfile parameterizes a FaultTransport. Each rate is a probability
// in [0,1]; the drop/5xx/429/timeout/corrupt rates are mutually exclusive
// per request (one uniform draw walks the ladder in that order), so their
// sum must stay ≤ 1. Jitter is drawn independently and stacks on top of
// whatever else happens.
type FaultProfile struct {
	// Seed drives every fault decision. Two transports with the same seed
	// facing the same request sequence inject identical faults.
	Seed int64 `json:"seed"`

	// DropRate is the probability the request is dropped before reaching
	// the server (connection reset on send).
	DropRate float64 `json:"drop_rate"`
	// DropResponseRate is the probability the request reaches the server —
	// and takes effect there — but the response is lost on the way back.
	// This is the nastiest case for a retrying client: the retry may find
	// its work already applied.
	DropResponseRate float64 `json:"drop_response_rate"`
	// Error5xxRate is the probability of an injected 500 response.
	Error5xxRate float64 `json:"error_5xx_rate"`
	// ThrottleRate is the probability of an injected 429 response.
	ThrottleRate float64 `json:"throttle_rate"`
	// TimeoutRate is the probability the request hangs for TimeoutDelay
	// and then fails with a timeout error.
	TimeoutRate float64 `json:"timeout_rate"`
	// CorruptRate is the probability the response body is corrupted in
	// transit (CorruptBytes bytes overwritten at seeded positions).
	CorruptRate float64 `json:"corrupt_rate"`

	// JitterRate is the probability of an added latency spike of
	// JitterDelay (independent of the fault ladder above).
	JitterRate float64 `json:"jitter_rate"`
	// JitterDelay is the spike size. 0 means 25ms.
	JitterDelay time.Duration `json:"jitter_delay_ns"`
	// TimeoutDelay is how long an injected timeout hangs before failing.
	// 0 means 5ms.
	TimeoutDelay time.Duration `json:"timeout_delay_ns"`
	// CorruptBytes is how many response bytes a corruption overwrites.
	// 0 means 3.
	CorruptBytes int `json:"corrupt_bytes"`

	// Partitions are full-outage windows measured from the transport's
	// first request: every request inside a window fails as if the network
	// were unreachable. Wall-clock driven, so leave empty in runs that
	// must be strictly deterministic.
	Partitions []Partition `json:"partitions,omitempty"`
}

// Partition is one timed outage window, relative to the transport's first
// request.
type Partition struct {
	Begin time.Duration `json:"begin_ns"`
	End   time.Duration `json:"end_ns"`
}

// FailureRate returns the combined probability that a request fails
// outright (drop, lost response, 5xx, 429, or timeout), ignoring
// corruption, jitter, and partitions.
func (p FaultProfile) FailureRate() float64 {
	return p.DropRate + p.DropResponseRate + p.Error5xxRate + p.ThrottleRate + p.TimeoutRate
}

func (p FaultProfile) jitterDelay() time.Duration {
	if p.JitterDelay <= 0 {
		return 25 * time.Millisecond
	}
	return p.JitterDelay
}

func (p FaultProfile) timeoutDelay() time.Duration {
	if p.TimeoutDelay <= 0 {
		return 5 * time.Millisecond
	}
	return p.TimeoutDelay
}

func (p FaultProfile) corruptBytes() int {
	if p.CorruptBytes <= 0 {
		return 3
	}
	return p.CorruptBytes
}

// FaultStats counts what a FaultTransport did. All fields are totals since
// the transport was created; the JSON form is the chaos artifact's fault
// section, and for a deterministic profile it is byte-identical across
// runs with the same seed.
type FaultStats struct {
	Requests      int64 `json:"requests"`
	Drops         int64 `json:"drops"`
	DropResponses int64 `json:"drop_responses"`
	Errors5xx     int64 `json:"errors_5xx"`
	Throttles     int64 `json:"throttles_429"`
	Timeouts      int64 `json:"timeouts"`
	Corruptions   int64 `json:"corruptions"`
	JitterSpikes  int64 `json:"jitter_spikes"`
	Partitioned   int64 `json:"partitioned"`
}

// Injected returns the total number of injected faults, jitter included.
func (s FaultStats) Injected() int64 {
	return s.Drops + s.DropResponses + s.Errors5xx + s.Throttles +
		s.Timeouts + s.Corruptions + s.JitterSpikes + s.Partitioned
}

// FaultError is the transport-level error a FaultTransport injects for
// drops, timeouts, and partitions. It implements net.Error's Timeout so
// callers can classify it the way they would a real *url.Error.
type FaultError struct {
	Kind string // "drop", "drop_response", "timeout", "partition"
}

// Error implements error.
func (e *FaultError) Error() string { return "netsim: injected fault: " + e.Kind }

// Timeout reports whether the fault models a timeout.
func (e *FaultError) Timeout() bool { return e.Kind == "timeout" }

// Temporary reports whether retrying could help. All injected faults are
// transient by construction.
func (e *FaultError) Temporary() bool { return true }

// FaultTransport is an http.RoundTripper middleware that injects the
// profile's faults. It is safe for concurrent use. Wrap it around the
// server transport (or around a DelayTransport) and install the result as
// the mediating extension's base.
type FaultTransport struct {
	// Base performs the real request. Defaults to http.DefaultTransport.
	Base http.RoundTripper
	// Profile supplies the fault rates and the seed.
	Profile FaultProfile

	enabled  atomic.Bool
	initOnce sync.Once
	start    time.Time
	now      func() time.Time // test hook; nil means time.Now

	mu  sync.Mutex
	seq map[uint64]uint64 // request-shape key -> occurrence count

	requests      atomic.Int64
	drops         atomic.Int64
	dropResponses atomic.Int64
	errors5xx     atomic.Int64
	throttles     atomic.Int64
	timeouts      atomic.Int64
	corruptions   atomic.Int64
	jitterSpikes  atomic.Int64
	partitioned   atomic.Int64
}

// NewFaultTransport wraps base with the profile's faults, enabled.
func NewFaultTransport(base http.RoundTripper, profile FaultProfile) *FaultTransport {
	ft := &FaultTransport{Base: base, Profile: profile}
	ft.enabled.Store(true)
	return ft
}

// SetEnabled turns fault injection on or off. While disabled the transport
// forwards requests untouched and counts nothing, which is how harnesses
// seed and verify state around a measured fault storm.
func (ft *FaultTransport) SetEnabled(on bool) { ft.enabled.Store(on) }

// Stats returns a snapshot of the fault counters.
func (ft *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Requests:      ft.requests.Load(),
		Drops:         ft.drops.Load(),
		DropResponses: ft.dropResponses.Load(),
		Errors5xx:     ft.errors5xx.Load(),
		Throttles:     ft.throttles.Load(),
		Timeouts:      ft.timeouts.Load(),
		Corruptions:   ft.corruptions.Load(),
		JitterSpikes:  ft.jitterSpikes.Load(),
		Partitioned:   ft.partitioned.Load(),
	}
}

// splitmix64 is the SplitMix64 mixer: a tiny, well-distributed,
// allocation-free PRNG step. Used instead of math/rand so fault decisions
// are pure functions of their key (and the nonce-source analyzer stays
// trivially satisfied).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a mixed word onto [0,1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// fnv64a hashes the parts with FNV-1a.
func fnv64a(parts ...string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= prime
		}
		h ^= 0xff // part separator so ("ab","c") != ("a","bc")
		h *= prime
	}
	return h
}

// requestKey derives the stable shape key of a request: method, path, and
// the document id (from the query for GETs, from the form body for
// POSTs). Bodies contain ciphertext that varies run to run, so only the
// docID field — which is stable — participates. The body is restored on
// the request afterwards.
func requestKey(req *http.Request) (uint64, error) {
	docID := req.URL.Query().Get("docID")
	if docID == "" && req.Body != nil {
		raw, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return 0, err
		}
		req.Body = io.NopCloser(strings.NewReader(string(raw)))
		if form, err := url.ParseQuery(string(raw)); err == nil {
			docID = form.Get("docID")
		}
	}
	return fnv64a(req.Method, req.URL.Path, docID), nil
}

// decide draws the request's fault word: the occurrence counter for its
// shape key advances under the lock, everything else is pure arithmetic.
func (ft *FaultTransport) decide(req *http.Request) (uint64, error) {
	key, err := requestKey(req)
	if err != nil {
		return 0, err
	}
	ft.mu.Lock()
	if ft.seq == nil {
		ft.seq = make(map[uint64]uint64)
	}
	n := ft.seq[key]
	ft.seq[key] = n + 1
	ft.mu.Unlock()
	return splitmix64((key ^ splitmix64(uint64(ft.Profile.Seed))) + n*0x9e3779b97f4a7c15), nil
}

// inPartition reports whether the request falls inside a timed outage
// window.
func (ft *FaultTransport) inPartition() bool {
	if len(ft.Profile.Partitions) == 0 {
		return false
	}
	now := time.Now
	if ft.now != nil {
		now = ft.now
	}
	ft.initOnce.Do(func() { ft.start = now() })
	elapsed := now().Sub(ft.start)
	for _, w := range ft.Profile.Partitions {
		if elapsed >= w.Begin && elapsed < w.End {
			return true
		}
	}
	return false
}

// RoundTrip implements http.RoundTripper: one seeded decision per request
// selects at most one ladder fault, plus an independent jitter draw.
func (ft *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := ft.Base
	if base == nil {
		base = http.DefaultTransport
	}
	if !ft.enabled.Load() {
		return base.RoundTrip(req)
	}
	ft.requests.Add(1)
	metricFaultRequests.Inc()

	if ft.inPartition() {
		ft.partitioned.Add(1)
		metricFaultPartition.Inc()
		annotateFault(req, "partition")
		return nil, &FaultError{Kind: "partition"}
	}

	word, err := ft.decide(req)
	if err != nil {
		return nil, fmt.Errorf("netsim: fault key: %w", err)
	}
	p := ft.Profile
	u := unit(word)

	// Independent jitter draw from a re-mixed word.
	if p.JitterRate > 0 && unit(splitmix64(word)) < p.JitterRate {
		ft.jitterSpikes.Add(1)
		metricFaultJitter.Inc()
		annotateFault(req, "jitter")
		if err := sleepCtx(req.Context(), p.jitterDelay()); err != nil {
			return nil, err
		}
	}

	// Walk the mutually-exclusive fault ladder.
	cut := p.DropRate
	if u < cut {
		ft.drops.Add(1)
		metricFaultDrop.Inc()
		annotateFault(req, "drop")
		return nil, &FaultError{Kind: "drop"}
	}
	if cut += p.DropResponseRate; u < cut {
		// The request takes effect server-side; only the response is lost.
		resp, err := base.RoundTrip(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		ft.dropResponses.Add(1)
		metricFaultDropResp.Inc()
		annotateFault(req, "drop_response")
		return nil, &FaultError{Kind: "drop_response"}
	}
	if cut += p.Error5xxRate; u < cut {
		ft.errors5xx.Add(1)
		metricFaultErr5xx.Inc()
		annotateFault(req, "err_5xx")
		return synthesizeFault(req, http.StatusInternalServerError, "netsim: injected server error"), nil
	}
	if cut += p.ThrottleRate; u < cut {
		ft.throttles.Add(1)
		metricFaultThrottle.Inc()
		annotateFault(req, "throttle_429")
		return synthesizeFault(req, http.StatusTooManyRequests, "netsim: injected throttle"), nil
	}
	if cut += p.TimeoutRate; u < cut {
		ft.timeouts.Add(1)
		metricFaultTimeout.Inc()
		annotateFault(req, "timeout")
		if err := sleepCtx(req.Context(), p.timeoutDelay()); err != nil {
			return nil, err
		}
		return nil, &FaultError{Kind: "timeout"}
	}

	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}

	if cut += p.CorruptRate; u < cut {
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		corruptBody(raw, word, p.corruptBytes())
		resp.Body = io.NopCloser(strings.NewReader(string(raw)))
		resp.ContentLength = int64(len(raw))
		resp.Header.Del("Content-Length")
		ft.corruptions.Add(1)
		metricFaultCorrupt.Inc()
		annotateFault(req, "corrupt")
	}
	return resp, nil
}

// annotateFault records an injected fault on the request's current trace
// span (the mediator's save, load or merge span), so a trace shows not just
// that a send failed but which fault the simulated network injected.
func annotateFault(req *http.Request, kind string) {
	trace.Current(req.Context()).Annotate("fault", kind)
}

// corruptBody overwrites k bytes at word-derived positions with 0x7f —
// a byte no Base32 alphabet, form encoding, or stego word list produces,
// so the damage is never silently valid.
func corruptBody(b []byte, word uint64, k int) {
	if len(b) == 0 {
		return
	}
	x := word
	for i := 0; i < k; i++ {
		x = splitmix64(x)
		b[x%uint64(len(b))] = 0x7f
	}
}

// synthesizeFault builds an injected HTTP error response.
func synthesizeFault(req *http.Request, status int, msg string) *http.Response {
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
