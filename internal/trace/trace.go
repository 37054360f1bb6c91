// Package trace holds utilization time series — the workload representation
// used throughout the paper's "utilization-based large-scale simulation"
// methodology (§4.2). A trace records, per simulation tick, the CPU demand a
// workload places on a full-speed reference server, as a fraction of that
// server's capacity (0 = idle, 1 = would saturate the machine at P0; values
// above 1 are legal and represent demand the machine cannot serve even at
// full speed).
package trace

import (
	"fmt"
	"math"
	"sort"
)

// Trace is one workload's utilization demand series.
type Trace struct {
	// Name identifies the workload (e.g. "web-042").
	Name string
	// Class labels the workload family the trace was generated from.
	Class string
	// Demand holds one sample per tick, as a fraction of full-speed capacity.
	Demand []float64
	// Mutated records that Demand no longer matches the synthesized or loaded
	// trace: Scale sets it, and a cluster marks the private copies it
	// installs on a runtime demand change. Checkpoints skip serializing
	// pristine demand — a cluster rebuilt from the same scenario already has
	// it — so every runtime demand mutator must set this flag.
	Mutated bool
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.Demand) }

// At returns the demand at tick k; traces repeat cyclically, so simulations
// longer than the trace wrap around (the paper's traces are multi-day loops).
func (t *Trace) At(k int) float64 {
	// In-range ticks (the overwhelmingly common case: simulations at most as
	// long as their traces) skip the modulo — an integer division per VM per
	// tick is measurable at fleet scale.
	if uint(k) < uint(len(t.Demand)) {
		return t.Demand[k]
	}
	if len(t.Demand) == 0 {
		return 0
	}
	return t.Demand[k%len(t.Demand)]
}

// Validate checks that all samples are finite and non-negative.
func (t *Trace) Validate() error {
	if len(t.Demand) == 0 {
		return fmt.Errorf("trace %s: empty", t.Name)
	}
	for i, d := range t.Demand {
		if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("trace %s: bad sample %v at tick %d", t.Name, d, i)
		}
	}
	return nil
}

// Clone returns a deep copy.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Class: t.Class,
		Demand: append([]float64(nil), t.Demand...), Mutated: t.Mutated}
}

// Clip caps every sample at max, in place, and returns the trace.
func (t *Trace) Clip(max float64) *Trace {
	for i, d := range t.Demand {
		if d > max {
			t.Demand[i] = max
		}
	}
	return t
}

// Scale multiplies every sample by s, in place, and returns the trace.
func (t *Trace) Scale(s float64) *Trace {
	for i := range t.Demand {
		t.Demand[i] *= s
	}
	t.Mutated = true
	return t
}

// Stats summarizes a demand series.
type Stats struct {
	Mean, Min, Max, StdDev float64
	P50, P95, P99          float64
}

// Summarize computes summary statistics of the trace.
func (t *Trace) Summarize() Stats {
	if t.Len() == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, d := range t.Demand {
		s.Mean += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean /= float64(t.Len())
	for _, d := range t.Demand {
		s.StdDev += (d - s.Mean) * (d - s.Mean)
	}
	s.StdDev = math.Sqrt(s.StdDev / float64(t.Len()))
	sorted := append([]float64(nil), t.Demand...)
	sort.Float64s(sorted)
	s.P50 = percentile(sorted, 0.50)
	s.P95 = percentile(sorted, 0.95)
	s.P99 = percentile(sorted, 0.99)
	return s
}

// percentile expects a sorted slice and interpolates linearly.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Set is a named collection of traces — one workload mix.
type Set struct {
	// Name identifies the mix ("180", "60HH", ...).
	Name   string
	Traces []*Trace
}

// Len returns the number of workloads in the mix.
func (s *Set) Len() int { return len(s.Traces) }

// Validate validates every member trace.
func (s *Set) Validate() error {
	for _, t := range s.Traces {
		if err := t.Validate(); err != nil {
			return fmt.Errorf("set %s: %w", s.Name, err)
		}
	}
	return nil
}

// MeanDemand returns the across-workload average of per-trace means.
func (s *Set) MeanDemand() float64 {
	if len(s.Traces) == 0 {
		return 0
	}
	sum := 0.0
	for _, t := range s.Traces {
		sum += t.Summarize().Mean
	}
	return sum / float64(len(s.Traces))
}
