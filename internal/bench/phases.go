// Phase attribution: turning the flight of spans a harness run collects
// into a per-phase latency breakdown that answers "where did an
// operation's time go" — load vs decrypt vs transform vs encrypt vs save
// vs merge vs resync — split by whether the operation hit a version
// conflict.
package bench

import (
	"sort"

	"privedit/internal/trace"
)

// PhaseStat summarizes one edit phase across the operations that ran it.
// Quantiles are over the per-operation totals (an operation that ran a
// phase three times contributes the sum of its three spans once), by the
// nearest-rank method of Sample.Percentile.
type PhaseStat struct {
	Phase   string  `json:"phase"`
	Count   int     `json:"count"` // operations that ran this phase
	TotalMs float64 `json:"total_ms"`
	P50Ms   float64 `json:"p50_ms"`
	P95Ms   float64 `json:"p95_ms"`
}

// PhaseBreakdown splits the per-phase stats by operation outcome:
// operations whose trace carries a "conflict" annotation (a 409 anywhere
// along the way) versus clean ones. The chaos artifact embeds it.
type PhaseBreakdown struct {
	Ops         int         `json:"ops"` // root traces aggregated
	CleanOps    int         `json:"clean_ops"`
	ConflictOps int         `json:"conflict_ops"`
	Clean       []PhaseStat `json:"clean,omitempty"`
	Conflict    []PhaseStat `json:"conflict,omitempty"`
}

// Empty reports whether the breakdown aggregated no traces at all.
func (b PhaseBreakdown) Empty() bool { return b.Ops == 0 }

// AggregatePhases reduces collected traces to a PhaseBreakdown. Only
// operation roots participate — client edit operations (trace.SpanEditOp)
// and the pipelined writer's drain cycles (trace.SpanWriterDrain), which
// carry the encrypt/transform/save work that moved off the client's
// critical path; middleware-rooted or watchdog traces in the same
// collector are skipped. Per operation, the durations of every span named
// after an edit phase (trace.EditPhases) are summed by phase; an operation
// with no span of a given phase simply doesn't contribute to that phase's
// sample.
func AggregatePhases(traces []trace.Trace) PhaseBreakdown {
	type acc struct {
		samples map[string]*Sample
		ops     int
	}
	newAcc := func() *acc { return &acc{samples: make(map[string]*Sample)} }
	clean, conflict := newAcc(), newAcc()

	var b PhaseBreakdown
	for _, tr := range traces {
		if tr.Root != trace.SpanEditOp && tr.Root != trace.SpanWriterDrain {
			continue
		}
		b.Ops++
		a := clean
		if tr.HasAnnotation("conflict") {
			a = conflict
			b.ConflictOps++
		} else {
			b.CleanOps++
		}
		a.ops++
		perPhase := make(map[string]float64)
		for i := range tr.Spans {
			name := tr.Spans[i].Name
			if isEditPhase(name) {
				perPhase[name] += float64(tr.Spans[i].DurationNs) / 1e6
			}
		}
		for phase, ms := range perPhase {
			s := a.samples[phase]
			if s == nil {
				s = &Sample{}
				a.samples[phase] = s
			}
			s.Add(ms)
		}
	}
	b.Clean = phaseStats(clean.samples)
	b.Conflict = phaseStats(conflict.samples)
	return b
}

func isEditPhase(name string) bool {
	for _, p := range trace.EditPhases {
		if name == p {
			return true
		}
	}
	return false
}

// phaseStats renders the accumulated samples in EditPhases order, then any
// unexpected extras alphabetically (future-proofing; today the filter
// admits only EditPhases names).
func phaseStats(samples map[string]*Sample) []PhaseStat {
	out := make([]PhaseStat, 0, len(samples))
	emit := func(phase string) {
		s, ok := samples[phase]
		if !ok {
			return
		}
		total := 0.0
		for _, v := range s.values {
			total += v
		}
		out = append(out, PhaseStat{
			Phase:   phase,
			Count:   s.N(),
			TotalMs: total,
			P50Ms:   s.Percentile(0.50),
			P95Ms:   s.Percentile(0.95),
		})
		delete(samples, phase)
	}
	for _, phase := range trace.EditPhases {
		emit(phase)
	}
	rest := make([]string, 0, len(samples))
	for phase := range samples {
		rest = append(rest, phase)
	}
	sort.Strings(rest)
	for _, phase := range rest {
		emit(phase)
	}
	return out
}
