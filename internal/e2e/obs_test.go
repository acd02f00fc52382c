package e2e

import (
	"io"
	"log"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"privedit/internal/core"
	"privedit/internal/gdocs"
	"privedit/internal/mediator"
	"privedit/internal/netsim"
	"privedit/internal/obs"
)

// TestMetricsMoveAcrossStack runs a full Create → SetText → Save →
// Insert → Save → Load session through the mediating extension against an
// instrumented server and asserts the metric families every layer is
// supposed to feed all actually moved: HTTP middleware, mediator, core
// cryptography, and the block-document store.
func TestMetricsMoveAcrossStack(t *testing.T) {
	obs.Enable()

	sum := func(name string) float64 { return obs.Default.Sum(name) }
	families := []string{
		"privedit_http_requests_total",
		"privedit_http_request_seconds",
		"privedit_http_request_bytes_in_total",
		"privedit_http_request_bytes_out_total",
		"privedit_mediator_ops_total",
		"privedit_mediator_encrypt_seconds",
		"privedit_core_encrypt_seconds",
		"privedit_transform_delta_seconds",
		"privedit_block_splices_total",
		"privedit_block_splits_total",
		"privedit_skiplist_seek_steps",
	}
	before := make(map[string]float64, len(families))
	for _, f := range families {
		before[f] = sum(f)
	}

	server := gdocs.NewServer()
	logger := log.New(io.Discard, "", 0)
	handler := obs.Middleware(obs.Default, server, logger, func(p string) string { return p })
	ts := httptest.NewServer(handler)
	defer ts.Close()

	ext := mediator.New(ts.Client().Transport, mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 7)))
	client := gdocs.NewClient(ext.Client(), ts.URL, "metrics-doc")

	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	// b=8 blocks: a long document plus a mid-block insert forces at least
	// one block split, which the blockdoc counters must record.
	client.SetText(strings.Repeat("abcdefgh", 64))
	if err := client.Save(); err != nil {
		t.Fatalf("full save: %v", err)
	}
	if err := client.Insert(4, "XYZXYZXYZ"); err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if err := client.Save(); err != nil {
		t.Fatalf("delta save: %v", err)
	}
	flushDoc(t, ext, "metrics-doc")

	fresh := gdocs.NewClient(mediator.New(ts.Client().Transport,
		mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 8)), nil).Client(), ts.URL, "metrics-doc")
	if err := fresh.Load(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if fresh.Text() != client.Text() {
		t.Fatalf("fresh load disagrees with editing session")
	}

	for _, f := range families {
		if d := sum(f) - before[f]; d <= 0 {
			t.Errorf("family %s did not move (delta %v)", f, d)
		}
	}

	// The mediator must have classified at least a full save, a delta
	// save, and a load among its operations.
	for _, op := range []string{"full_encrypt", "delta_transform", "load_decrypt"} {
		if obs.Default.Value("privedit_mediator_ops_total", "op", op) < 1 {
			t.Errorf("mediator op %q never recorded", op)
		}
	}

	// Fragmentation is a ratio: after real edits it must sit in (0, 1].
	frag := obs.Default.Value("privedit_fragmentation_ratio")
	if frag <= 0 || frag > 1 {
		t.Errorf("fragmentation ratio %v outside (0, 1]", frag)
	}
}

// TestResilienceMetricsMove drives a short fault storm through the
// resilient extension and asserts the resilience metric families —
// netsim fault injection and mediator retry/degraded instrumentation —
// all record something.
func TestResilienceMetricsMove(t *testing.T) {
	obs.Enable()
	families := []string{
		"privedit_netsim_fault_requests_total",
		"privedit_netsim_faults_total",
		"privedit_mediator_retry_attempts_total",
		"privedit_mediator_degraded_total",
	}
	before := make(map[string]float64, len(families))
	for _, f := range families {
		before[f] = obs.Default.Sum(f)
	}

	server := gdocs.NewServer()
	ts := httptest.NewServer(server)
	defer ts.Close()

	faults := netsim.NewFaultTransport(ts.Client().Transport, netsim.FaultProfile{
		Seed:         31,
		Error5xxRate: 0.5,
		TimeoutDelay: 100 * time.Microsecond,
	})
	faults.SetEnabled(false)

	ext := mediator.New(faults,
		mediator.StaticPassword("pw", opts(core.ConfidentialityIntegrity, 8)), nil,
		mediator.WithResilience(mediator.Resilience{
			Retry: mediator.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
		}))
	client := gdocs.NewClient(ext.Client(), ts.URL, "metrics-chaos-doc")
	if err := client.Create(); err != nil {
		t.Fatalf("Create: %v", err)
	}
	client.SetText("instrumented fault storm content")
	if err := client.Save(); err != nil {
		t.Fatalf("seed save: %v", err)
	}
	flushDoc(t, ext, "metrics-chaos-doc")

	// Keep typing until a save is acked while the writer is failing: the
	// storm's faults are seeded, but when a save lands inside the
	// writer's backoff depends on timing.
	faults.SetEnabled(true)
	for i := 0; i < 500 && ext.Stats().DegradedSaves == 0; i++ {
		if err := client.Insert(0, "x"); err != nil {
			t.Fatal(err)
		}
		if err := client.Sync(); err != nil {
			_ = client.Load()
		}
		time.Sleep(time.Millisecond)
	}
	faults.SetEnabled(false)

	for _, f := range families {
		if d := obs.Default.Sum(f) - before[f]; d <= 0 {
			t.Errorf("family %s did not move (delta %v)", f, d)
		}
	}
	if obs.Default.Value("privedit_netsim_faults_total", "kind", "err_5xx") < 1 {
		t.Error("err_5xx fault kind never recorded")
	}
}
