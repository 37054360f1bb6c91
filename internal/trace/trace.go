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
	"slices"
	"sort"
)

// Trace is one workload's utilization demand series. Its samples are
// private to this package and kept in one of two backings:
//
//   - its own slice, one sample per tick (New, ReadCSV);
//   - a schedule it shares with the rest of its set, read shifted and scaled
//     (OnSchedule), so a set of n such traces over T ticks holds T + O(n)
//     floats instead of n·T.
//
// Readers see the same series either way, through Len, At and
// AppendSamples. Clone, Scale and Clip copy a schedule-backed trace's
// samples into its own slice before they write, so no trace ever writes a
// shared schedule.
type Trace struct {
	// Name identifies the workload (e.g. "web-042").
	Name string
	// Class labels the workload family the trace was generated from.
	Class string
	// samples holds one sample per tick, as a fraction of full-speed
	// capacity; nil while sched backs the trace.
	samples []float64
	// sched, when non-nil, is the shared schedule the trace reads instead.
	sched *schedule
	// Mutated records that the samples no longer match the synthesized or
	// loaded trace: Scale sets it, and a cluster marks the private copies it
	// installs on a runtime demand change. Checkpoints skip serializing
	// pristine demand — a cluster rebuilt from the same scenario already has
	// it — so every runtime demand mutator must set this flag.
	Mutated bool
}

// schedule is how a schedule-backed trace reads the series it shares:
// sample k is samples[max(k−shift, 0)] · gain · level, each product rounded
// in that order.
type schedule struct {
	samples     []float64
	shift       int
	gain, level float64
}

// at returns sample k, for k in [0, len(s.samples)).
func (s *schedule) at(k int) float64 {
	return s.samples[max(k-s.shift, 0)] * s.gain * s.level
}

// New returns a trace over samples, one per tick. It keeps the slice, not a
// copy: the caller hands the samples over and must not write them after.
func New(name, class string, samples []float64) *Trace {
	return &Trace{Name: name, Class: class, samples: samples}
}

// OnSchedule returns a trace that reads sched, a series it may share with
// other traces and never writes: sample k is sched[max(k−shift, 0)] · gain ·
// level, each product rounded in that order, for a shift ≥ 0. The trace is
// as long as sched.
func OnSchedule(name, class string, sched []float64, shift int, gain, level float64) *Trace {
	return &Trace{Name: name, Class: class,
		sched: &schedule{samples: sched, shift: shift, gain: gain, level: level}}
}

// Len returns the number of samples.
func (t *Trace) Len() int {
	if t.sched != nil {
		return len(t.sched.samples)
	}
	return len(t.samples)
}

// At returns the demand at tick k; traces repeat cyclically, so simulations
// longer than the trace wrap around (the paper's traces are multi-day loops).
func (t *Trace) At(k int) float64 {
	// In-range ticks of a trace with its own samples (the overwhelmingly
	// common case: simulations at most as long as their traces) skip the
	// modulo — an integer division per VM per tick is measurable at fleet
	// scale — and keep At small enough to inline.
	if uint(k) < uint(len(t.samples)) {
		return t.samples[k]
	}
	return t.slowAt(k)
}

// slowAt is At for a tick past the trace's own samples: a wrapped tick, or
// any tick of a schedule-backed trace. A tick wraps to k mod Len before the
// schedule's shift, as the trace's materialized samples would. Inlined, it
// would push At past the inlining budget.
//
//go:noinline
func (t *Trace) slowAt(k int) float64 {
	n := t.Len()
	if n == 0 {
		return 0
	}
	if uint(k) >= uint(n) {
		k %= n
	}
	if t.sched != nil {
		return t.sched.at(k)
	}
	return t.samples[k]
}

// AppendSamples appends the trace's samples, one per tick, to dst and
// returns the extended slice: the one way to copy a trace's series out.
func (t *Trace) AppendSamples(dst []float64) []float64 {
	s := t.sched
	if s == nil {
		return append(dst, t.samples...)
	}
	dst = slices.Grow(dst, len(s.samples))
	for k := range s.samples {
		dst = append(dst, s.at(k))
	}
	return dst
}

// own gives a schedule-backed trace its own copy of its samples, so the
// caller may write them.
func (t *Trace) own() {
	if t.sched != nil {
		t.samples, t.sched = t.AppendSamples(nil), nil
	}
}

// Validate checks that all samples are finite and non-negative.
func (t *Trace) Validate() error {
	n := t.Len()
	if n == 0 {
		return fmt.Errorf("trace %s: empty", t.Name)
	}
	for k := 0; k < n; k++ {
		if d := t.At(k); math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
			return fmt.Errorf("trace %s: bad sample %v at tick %d", t.Name, d, k)
		}
	}
	return nil
}

// Clone returns a deep copy with its own samples.
func (t *Trace) Clone() *Trace {
	return &Trace{Name: t.Name, Class: t.Class, samples: t.AppendSamples(nil), Mutated: t.Mutated}
}

// Clip caps every sample at max, in place, and returns the trace.
func (t *Trace) Clip(max float64) *Trace {
	t.own()
	for i, d := range t.samples {
		if d > max {
			t.samples[i] = max
		}
	}
	return t
}

// Scale multiplies every sample by s, in place, and returns the trace.
func (t *Trace) Scale(s float64) *Trace {
	t.own()
	for i := range t.samples {
		t.samples[i] *= s
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
	sorted := t.AppendSamples(nil)
	if len(sorted) == 0 {
		return Stats{}
	}
	s := Stats{Min: math.Inf(1), Max: math.Inf(-1)}
	for _, d := range sorted {
		s.Mean += d
		if d < s.Min {
			s.Min = d
		}
		if d > s.Max {
			s.Max = d
		}
	}
	s.Mean /= float64(len(sorted))
	for _, d := range sorted {
		s.StdDev += float64((d - s.Mean) * (d - s.Mean))
	}
	s.StdDev = math.Sqrt(s.StdDev / float64(len(sorted)))
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
	// Each conversion rounds, so no GOARCH fuses a product into the
	// neighbouring add or subtract (internal/trace is in FMA_PKGS).
	pos := float64(q * float64(len(sorted)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return float64(sorted[lo]*(1-frac)) + float64(sorted[lo+1]*frac)
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
