// Package bench is the evaluation harness: one experiment per table or
// figure in §VII of the paper, each regenerating the corresponding rows
// from the simulated system. Experiments are deterministic given a seed.
//
// Where the paper measured a JavaScript prototype against the live 2011
// Google Documents service, this harness measures the Go implementation
// against the simulated service, combining measured client-side compute
// with a deterministic network model (internal/netsim). Absolute numbers
// therefore differ from the paper (Go AES is orders of magnitude faster
// than 2009 browser JavaScript); EXPERIMENTS.md records both and compares
// shapes.
package bench

import "math"

// Sample accumulates observations and reports summary statistics.
type Sample struct {
	values []float64
}

// Add appends one observation.
func (s *Sample) Add(v float64) { s.values = append(s.values, v) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.values {
		sum += v
	}
	return sum / float64(len(s.values))
}

// StdDev returns the sample standard deviation (0 for n < 2).
func (s *Sample) StdDev() float64 {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean()
	sum := 0.0
	for _, v := range s.values {
		d := v - mean
		sum += d * d
	}
	return math.Sqrt(sum / float64(n-1))
}
