package bench

import (
	"testing"
	"time"

	"privedit/internal/netsim"
	"privedit/internal/trace"
)

func phaseTrace(root string, conflict bool, phases map[string][]int64) trace.Trace {
	tr := trace.Trace{TraceID: "t", Root: root}
	tr.Spans = append(tr.Spans, trace.SpanData{SpanID: "r", Name: root})
	if conflict {
		tr.Spans[0].Annotations = []trace.Annotation{{Key: "conflict", Value: "1"}}
	}
	for name, durs := range phases {
		for _, d := range durs {
			tr.Spans = append(tr.Spans, trace.SpanData{Name: name, DurationNs: d})
		}
	}
	return tr
}

func TestAggregatePhases(t *testing.T) {
	ms := int64(time.Millisecond)
	traces := []trace.Trace{
		// Clean op: one save, one encrypt.
		phaseTrace(trace.SpanEditOp, false, map[string][]int64{
			trace.SpanSave:    {10 * ms},
			trace.SpanEncrypt: {2 * ms},
		}),
		// Conflict op: two retry spans sum into one per-op observation.
		phaseTrace(trace.SpanEditOp, true, map[string][]int64{
			trace.SpanSave:   {30 * ms},
			trace.SpanRetry:  {5 * ms, 7 * ms},
			trace.SpanResync: {4 * ms},
		}),
		// Non-operation roots are skipped.
		phaseTrace(trace.SpanServerRequest, false, map[string][]int64{
			trace.SpanSave: {99 * ms},
		}),
		phaseTrace(trace.SpanClientLoad, false, nil),
	}
	b := AggregatePhases(traces)
	if b.Ops != 2 || b.CleanOps != 1 || b.ConflictOps != 1 {
		t.Fatalf("ops = %d clean=%d conflict=%d; want 2/1/1", b.Ops, b.CleanOps, b.ConflictOps)
	}
	find := func(stats []PhaseStat, phase string) PhaseStat {
		for _, s := range stats {
			if s.Phase == phase {
				return s
			}
		}
		t.Fatalf("phase %q missing in %+v", phase, stats)
		return PhaseStat{}
	}
	if s := find(b.Clean, trace.SpanSave); s.Count != 1 || s.P50Ms != 10 || s.P95Ms != 10 {
		t.Fatalf("clean save stat: %+v", s)
	}
	if s := find(b.Conflict, trace.SpanRetry); s.Count != 1 || s.P50Ms != 12 {
		t.Fatalf("conflict retry stat (want summed 12ms): %+v", s)
	}
	if s := find(b.Conflict, trace.SpanResync); s.TotalMs != 4 {
		t.Fatalf("conflict resync stat: %+v", s)
	}
	// Phases render in EditPhases order.
	if b.Conflict[len(b.Conflict)-1].Phase != trace.SpanResync {
		t.Fatalf("phase order: %+v", b.Conflict)
	}
	if b.Empty() {
		t.Fatal("breakdown with ops reported Empty")
	}
	if !(PhaseBreakdown{}).Empty() {
		t.Fatal("zero breakdown not Empty")
	}
}

// TestRunChaosTraced exercises the traced chaos path end to end: real
// spans from client, mediator, and server aggregate into a non-empty
// breakdown with the edit phases present and plausible, retry time is
// attributed, and the tracer's enabled state is restored afterwards.
func TestRunChaosTraced(t *testing.T) {
	rep, err := RunChaos(ChaosConfig{
		Sessions:      2,
		OpsPerSession: 12,
		DocChars:      2_000,
		ReloadEvery:   4,
		Seed:          11,
		Trace:         true,
		Fault: netsim.FaultProfile{
			Seed:         11,
			Error5xxRate: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Phases == nil || rep.Phases.Empty() {
		t.Fatalf("traced chaos run produced no phase breakdown: %+v", rep.Phases)
	}
	if rep.Phases.Ops == 0 || len(rep.Phases.Clean) == 0 {
		t.Fatalf("phase breakdown missing clean ops: %+v", rep.Phases)
	}
	want := map[string]bool{trace.SpanSave: false, trace.SpanEncrypt: false, trace.SpanTransform: false}
	var phases []string
	for _, s := range rep.Phases.Clean {
		phases = append(phases, s.Phase)
		if s.Count <= 0 || s.P50Ms < 0 || s.P95Ms < s.P50Ms {
			t.Fatalf("implausible stat: %+v", s)
		}
		if _, ok := want[s.Phase]; ok {
			want[s.Phase] = true
		}
	}
	for p, seen := range want {
		if !seen {
			t.Errorf("clean breakdown missing phase %q (got %v)", p, phases)
		}
	}
	found := false
	for _, s := range append(append([]PhaseStat(nil), rep.Phases.Clean...), rep.Phases.Conflict...) {
		if s.Phase == trace.SpanRetry && s.Count > 0 {
			found = true
		}
	}
	if !found && rep.Retries > 0 {
		t.Fatalf("mediator retried %d times but no retry phase in %+v", rep.Retries, rep.Phases)
	}
	if trace.Default.Enabled() {
		t.Fatal("RunChaos leaked the enabled tracer state")
	}
}
