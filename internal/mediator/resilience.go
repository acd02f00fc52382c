// Resilience: the paper's extension mediated live traffic to an untrusted
// *and unreliable* cloud, so a round trip may drop, stall, 5xx, or come
// back corrupted. WithResilience retries every mediated round trip with
// exponential backoff and decorrelated jitter for transient transport
// errors, 5xx, and 429 responses, bounded by the request's context and an
// optional per-attempt deadline budget; a typed admission reject's
// Retry-After is a floor on the sleep. Without it each round trip is one
// attempt.
//
// Above the retries sits the writer's own failure streak (pipeline.go):
// a save the retries could not land keeps the document degraded — saves
// and loads still served locally, marked with X-Privedit-Degraded — while
// the writer backs off, and the queue drains once the server answers.
package mediator

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

// Telemetry for the resilience layer. No-ops until obs.Enable().
var (
	metricRetryAttempts = obs.NewCounter("privedit_mediator_retry_attempts_total",
		"Retries of mediated round trips beyond the first attempt.")
	metricRetryGiveups = obs.NewCounter("privedit_mediator_retry_giveups_total",
		"Mediated round trips that exhausted the retry budget.")
	metricRetryBackoff = obs.NewHistogram("privedit_mediator_retry_backoff_seconds",
		"Backoff slept before a retry (decorrelated jitter), seconds.", obs.TimeBuckets)

	metricDegraded = func(op string) *obs.Counter {
		return obs.NewCounter("privedit_mediator_degraded_total",
			"Operations served locally while the document's writer was failing, by kind.", "op", op)
	}
	metricDegradedSave = metricDegraded("save")
	metricDegradedLoad = metricDegraded("load")

	metricAdmissionRetries = obs.NewCounter("privedit_mediator_admission_retries_total",
		"Retries triggered by typed server admission rejects (rate limit or drain).")
)

// RetryPolicy bounds the retry loop around one mediated round trip.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first attempt included).
	// 0 means 4.
	MaxAttempts int
	// BaseBackoff is the minimum sleep before a retry. 0 means 5ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the decorrelated-jitter sleep. 0 means 250ms.
	MaxBackoff time.Duration
	// TryTimeout, when positive, is a per-attempt deadline layered onto
	// the request's own context — the deadline budget that keeps one
	// hung attempt from eating the whole retry window.
	TryTimeout time.Duration
	// Seed drives the jitter PRNG, for reproducible backoff schedules.
	Seed int64
}

// Resilience holds the retry policy.
type Resilience struct {
	Retry RetryPolicy
}

// DefaultResilience returns the policy used when WithResilience is given
// zero values: 4 attempts, 5ms..250ms decorrelated-jitter backoff.
func DefaultResilience() Resilience {
	return Resilience{
		Retry: RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 250 * time.Millisecond},
	}
}

func (r Resilience) withDefaults() Resilience {
	if r.Retry.MaxAttempts <= 0 {
		r.Retry.MaxAttempts = 4
	}
	if r.Retry.BaseBackoff <= 0 {
		r.Retry.BaseBackoff = 5 * time.Millisecond
	}
	if r.Retry.MaxBackoff <= 0 {
		r.Retry.MaxBackoff = 250 * time.Millisecond
	}
	return r
}

// WithResilience enables retries with the given policy (zero fields take
// DefaultResilience values).
func WithResilience(r Resilience) Option {
	return func(e *Extension) {
		rr := r.withDefaults()
		e.res = &resilience{
			retry: rr.Retry,
			rng:   uint64(rr.Retry.Seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3,
		}
	}
}

// resilience is the runtime form of the policy plus the jitter PRNG.
// The PRNG sits behind the extension-wide rngMu (cheap: it is touched only
// when a retry actually sleeps).
type resilience struct {
	retry RetryPolicy
	rng   uint64 // guarded by Extension.rngMu
}

// mix64 is the SplitMix64 step — no math/rand, so backoff jitter stays a
// pure function of the seed and call order.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextBackoff draws the decorrelated-jitter sleep: uniform in
// [base, prev*3], capped at MaxBackoff (the AWS "decorrelated jitter"
// schedule).
func (e *Extension) nextBackoff(prev time.Duration) time.Duration {
	r := e.res
	lo, hi := r.retry.BaseBackoff, prev*3
	if hi <= lo {
		return lo
	}
	e.rngMu.Lock()
	r.rng = mix64(r.rng)
	word := r.rng
	e.rngMu.Unlock()
	d := lo + time.Duration(word%uint64(hi-lo))
	if d > r.retry.MaxBackoff {
		d = r.retry.MaxBackoff
	}
	return d
}

// sleepCtx sleeps for d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableStatus reports whether an HTTP status signals transient
// server-side trouble worth retrying.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// admissionReject reports whether a response is a typed admission-control
// rejection (the server rate-limiting or draining), and the server's
// Retry-After hint when it gave one. These are deliberate backpressure,
// not infrastructure failure: the server marked them retryable itself.
func admissionReject(resp *http.Response) (hint time.Duration, ok bool) {
	if resp == nil || resp.Header.Get(gdocs.HeaderRetryable) == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
		hint = time.Duration(secs) * time.Second
	}
	return hint, true
}

// sendResilient performs one logical round trip through the base
// transport, retrying transient failures per the retry policy. build is
// called once per attempt with the attempt's context so the request body
// is fresh every time. Without a resilience config it degenerates to a
// single pass-through attempt.
func (e *Extension) sendResilient(ctx context.Context, build func(context.Context) (*http.Request, error)) (*http.Response, error) {
	if e.res == nil {
		req, err := build(ctx)
		if err != nil {
			return nil, err
		}
		trace.SetRequestHeader(req)
		return e.base.RoundTrip(req)
	}
	pol := e.res.retry
	parent := trace.Current(ctx)
	var (
		lastErr  error
		lastResp *http.Response
		backoff  time.Duration
		hint     time.Duration // server Retry-After from an admission reject
	)
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		attemptCtx := ctx
		var rsp *trace.Span
		if attempt > 0 {
			backoff = e.nextBackoff(backoff)
			// An admission reject's Retry-After is a floor on the sleep:
			// the server told us when capacity returns, so sleeping less
			// just burns an attempt. Cap the hint at MaxBackoff to keep a
			// hostile or confused server from stalling the client.
			if hint > 0 {
				if hint > pol.MaxBackoff {
					hint = pol.MaxBackoff
				}
				if hint > backoff {
					backoff = hint
				}
				hint = 0
			}
			e.bump(func(s *Stats) { s.Retries++ })
			metricRetryAttempts.Inc()
			metricRetryBackoff.Observe(backoff.Seconds())
			parent.AnnotateInt("retry_attempt", int64(attempt+1))
			attemptCtx, rsp = trace.Start(ctx, trace.SpanRetry)
			rsp.AnnotateInt("attempt", int64(attempt+1))
			rsp.Annotate("backoff", backoff.String())
			if err := sleepCtx(ctx, backoff); err != nil {
				rsp.Annotate("outcome", "cancelled")
				rsp.End()
				return nil, err
			}
		}
		resp, err := e.attemptOnce(attemptCtx, build)
		if err != nil {
			rsp.Annotate("outcome", "error")
			rsp.End()
			lastErr, lastResp = err, nil
			if ctx.Err() != nil {
				// The caller's deadline (not the per-attempt budget) is
				// spent: no further attempt can succeed.
				return nil, err
			}
			continue
		}
		if retryableStatus(resp.StatusCode) {
			rsp.AnnotateInt("status", int64(resp.StatusCode))
			rsp.Annotate("outcome", "retryable_status")
			if h, adm := admissionReject(resp); adm {
				hint = h
				rsp.Annotate("admission_reject", "1")
				e.bump(func(s *Stats) { s.AdmissionRetries++ })
				metricAdmissionRetries.Inc()
			}
			rsp.End()
			lastErr, lastResp = nil, resp
			if attempt < pol.MaxAttempts-1 {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			continue
		}
		rsp.Annotate("outcome", "ok")
		rsp.End()
		return resp, nil
	}
	e.bump(func(s *Stats) { s.RetryGiveups++ })
	metricRetryGiveups.Inc()
	parent.Annotate("retry_giveup", "1")
	if lastResp != nil {
		return lastResp, nil
	}
	return nil, fmt.Errorf("mediator: retries exhausted: %w", lastErr)
}

// attemptOnce runs a single attempt, applying the per-attempt deadline
// budget when configured. With a budget the response body is buffered
// before the attempt context is released, so the caller never reads from
// a cancelled stream.
func (e *Extension) attemptOnce(ctx context.Context, build func(context.Context) (*http.Request, error)) (*http.Response, error) {
	budget := e.res.retry.TryTimeout
	if budget <= 0 {
		req, err := build(ctx)
		if err != nil {
			return nil, err
		}
		trace.SetRequestHeader(req)
		return e.base.RoundTrip(req)
	}
	tryCtx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	req, err := build(tryCtx)
	if err != nil {
		return nil, err
	}
	trace.SetRequestHeader(req)
	resp, err := e.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(strings.NewReader(string(raw)))
	resp.ContentLength = int64(len(raw))
	return resp, nil
}

// infraFailure classifies a completed round trip for the writer's failure
// streak: transport errors, retry exhaustion, and transient server
// statuses count; logical rejections (409 conflicts, 4xx protocol errors)
// do not.
func infraFailure(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return retryableStatus(resp.StatusCode)
}

// postForm sends a freshly built form POST through the resilient path.
// saveID, when non-empty, rides along as the idempotency token so the
// server can deduplicate a retried save whose earlier response was lost.
func (e *Extension) postForm(ctx context.Context, baseURL *url.URL, path string, form url.Values, saveID string) (*http.Response, error) {
	body := form.Encode()
	u := *baseURL
	u.Path = path
	u.RawQuery = ""
	return e.sendResilient(ctx, func(ctx context.Context) (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), strings.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		if saveID != "" {
			req.Header.Set(gdocs.HeaderSaveID, saveID)
		}
		return req, nil
	})
}
