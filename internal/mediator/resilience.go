// Resilience: the paper's extension mediated live traffic to an untrusted
// *and unreliable* cloud, so a round trip may drop, stall, 5xx, or come
// back corrupted. Every mediated request goes out once. The one retry
// policy is the writer's failure streak (pipeline.go): a save that fails
// keeps the document degraded — saves and loads still served locally,
// marked with X-Privedit-Degraded — while the writer backs off and
// re-sends it under the same idempotency token, and the queue drains once
// the server answers. A first-touch load or a create has no queue behind
// it, so its failure passes back to the client.
package mediator

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"privedit/internal/gdocs"
	"privedit/internal/obs"
	"privedit/internal/trace"
)

// Telemetry for the writer's retries. No-ops until obs.Enable().
var (
	metricRetryAttempts = obs.NewCounter("privedit_mediator_retry_attempts_total",
		"Saves the writer sent while its failure streak was open.")

	metricDegraded = func(op string) *obs.Counter {
		return obs.NewCounter("privedit_mediator_degraded_total",
			"Operations served locally while the document's writer was failing, by kind.", "op", op)
	}
	metricDegradedSave = metricDegraded("save")
	metricDegradedLoad = metricDegraded("load")
)

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

// infraFailure classifies a completed round trip for the writer's failure
// streak: transport errors and transient server statuses count; logical
// rejections (409 conflicts, 4xx protocol errors) do not.
func infraFailure(resp *http.Response, err error) bool {
	if err != nil {
		return true
	}
	return retryableStatus(resp.StatusCode)
}

// send performs one mediated round trip through the base transport,
// carrying the request context's trace to the server.
func (e *Extension) send(req *http.Request) (*http.Response, error) {
	trace.SetRequestHeader(req)
	return e.base.RoundTrip(req)
}

// get sends a GET for u under ctx.
func (e *Extension) get(ctx context.Context, u *url.URL) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	return e.send(req)
}

// postSave sends one queued save to the document endpoint. saveID rides
// along as the idempotency token, so the server applies a re-sent save
// whose earlier response was lost only once.
func (e *Extension) postSave(ctx context.Context, baseURL *url.URL, form url.Values, saveID string) (*http.Response, error) {
	u := *baseURL
	u.Path = gdocs.PathDoc
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u.String(), strings.NewReader(form.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set(gdocs.HeaderSaveID, saveID)
	return e.send(req)
}
