package gdocs

import (
	"errors"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"privedit/internal/obs"
)

// Admission control: the serving-path front door. Two gates, both
// answering with a *retryable* rejection (Retry-After plus the
// HeaderRetryable marker) rather than an opaque failure, because the
// mediating extension already retries with backoff and absorbs
// transient 429/503s — the server just has to speak that language:
//
//   - Rate limiting: one token bucket per client, refilled continuously
//     at the configured rate. A client that outruns its bucket gets 429
//     with the time until its next token.
//   - Drain: ahead of shutdown the server refuses all new document work
//     with 503 while in-flight requests finish and the WALs flush, so a
//     deploy looks to clients like a brief retryable blip, not an error
//     storm.

// Admission telemetry. No-ops until obs.Enable().
var (
	metricAdmissionRateRejects = obs.NewCounter("privedit_server_admission_rejects_total",
		"Requests refused by admission control, by reason.", "reason", "rate")
	metricAdmissionDrainRejects = obs.NewCounter("privedit_server_admission_rejects_total",
		"Requests refused by admission control, by reason.", "reason", "drain")
	metricDraining = obs.NewGauge("privedit_server_draining",
		"1 while the server is draining ahead of shutdown, else 0.")
)

// Typed admission rejections. Both are transient by construction: the
// client is expected to back off and retry (rate) or retry once the
// server is replaced (drain).
var (
	// ErrRateLimited is the body of a 429 admission rejection.
	ErrRateLimited = errors.New("gdocs: rate limited, retry after backoff")
	// ErrDraining is the body of a 503 admission rejection while the
	// server drains ahead of shutdown.
	ErrDraining = errors.New("gdocs: draining ahead of shutdown, retry shortly")
)

// AdmissionPolicy configures per-client token-bucket rate limiting.
type AdmissionPolicy struct {
	// RatePerSec is the sustained per-client request rate. <= 0 disables
	// rate limiting (drain still works).
	RatePerSec float64
	// Burst is the bucket depth — how many requests a client may issue
	// back to back after an idle period. 0 means 2×RatePerSec (min 1).
	Burst float64
}

// maxBuckets bounds the per-client bucket map so a client-id scan cannot
// grow server memory without bound; full (idle) buckets are swept first.
const maxBuckets = 4096

// bucket is one client's token bucket.
type bucket struct {
	tokens float64
	last   time.Time
}

// admission is the runtime controller.
type admission struct {
	policy AdmissionPolicy
	now    func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

func newAdmission(p AdmissionPolicy, clock func() time.Time) *admission {
	if p.Burst <= 0 {
		p.Burst = 2 * p.RatePerSec
		if p.Burst < 1 {
			p.Burst = 1
		}
	}
	if clock == nil {
		clock = time.Now
	}
	return &admission{policy: p, now: clock, buckets: make(map[string]*bucket)}
}

// allow spends one token from the client's bucket. When the bucket is
// empty it reports ok=false and how long until the next token accrues.
func (a *admission) allow(client string) (wait time.Duration, ok bool) {
	if a.policy.RatePerSec <= 0 {
		return 0, true
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	if b == nil {
		if len(a.buckets) >= maxBuckets {
			a.sweepLocked(now)
		}
		b = &bucket{tokens: a.policy.Burst, last: now}
		a.buckets[client] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * a.policy.RatePerSec
	if b.tokens > a.policy.Burst {
		b.tokens = a.policy.Burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return 0, true
	}
	need := (1 - b.tokens) / a.policy.RatePerSec
	return time.Duration(need * float64(time.Second)), false
}

// sweepLocked drops buckets that have refilled to full — clients idle
// long enough that forgetting them loses nothing. Callers hold a.mu.
func (a *admission) sweepLocked(now time.Time) {
	for k, b := range a.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*a.policy.RatePerSec >= a.policy.Burst {
			delete(a.buckets, k)
		}
	}
}

// clientKey identifies the requester for rate limiting: the mediating
// extension's self-declared client id when present, else the remote
// address without its ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get(HeaderClient); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	if r.RemoteAddr != "" {
		return r.RemoteAddr
	}
	return "anon"
}

// rejectRetryable writes a typed admission rejection: the status, a
// Retry-After hint (rounded up to whole seconds, minimum 1), and the
// HeaderRetryable marker the mediator's resilience stack keys on.
func rejectRetryable(w http.ResponseWriter, status int, wait time.Duration, reason error) {
	secs := int(wait / time.Second)
	if wait%time.Second != 0 || secs < 1 {
		secs++
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set(HeaderRetryable, "1")
	http.Error(w, reason.Error(), status)
}
