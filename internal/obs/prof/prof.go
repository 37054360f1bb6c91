// Package prof is the tick-engine timeline profiler: a low-overhead
// phase/span recorder the simulation engine, the cluster plant, and the
// benchmark (bench/npbench) share. A Profiler owns a preallocated ring of
// Spans — one per timed phase occurrence (a controller epoch, a plant
// advance, one worker's share of a sharded tick, a checkpoint save) — plus a
// smaller ring of counter samples (GC cycles, heap allocations per tick).
// Spans are exportable as Chrome trace-event JSON (chrome.go; loads in
// Perfetto or chrome://tracing) and aggregate into per-phase statistics
// (PhaseStats, ShardImbalance), which npsim -timeline logs.
//
// The design constraints, in order:
//
//  1. Disabled must be free. A nil *Profiler is the off switch; every
//     instrumentation site is a nil check and nothing else, so the
//     zero-alloc steady-state plant tick survives (DESIGN.md §13 budgets
//     ≤1% on BenchmarkScale100k).
//  2. Enabled must not allocate per span. The ring is preallocated; a full
//     ring overwrites the oldest span and counts the loss in Dropped(),
//     mirroring the trace RingRecorder's contract.
//  3. Recording must be safe from the engine's shard workers. One mutex
//     guards the ring; a tick records tens of spans, so contention is
//     noise even at 100k servers.
package prof

import (
	"sort"
	"sync"
	"time"
)

// Phase names. The taxonomy is two-level — "area.step" — so Chrome trace
// categories can group by the prefix.
// Controller phases are CtlPrefix + the controller's Name() ("ctl.SM",
// "ctl.EC", ...), recorded only on the controller's epoch ticks (see
// sim.Epochal).
const (
	// PhaseTick spans one whole engine tick: controllers, plant, observers.
	PhaseTick = "sim.tick"
	// PhaseObserve spans the post-advance fan-out: FleetStats aggregation,
	// registry gauges, the metrics collector, and the OnTick hook.
	PhaseObserve = "sim.observe"
	// PhaseCheckpoint spans a fired checkpoint boundary: the snapshot deep
	// copy plus the OnCheckpoint callback (the saver's synchronous half).
	PhaseCheckpoint = "sim.checkpoint"
	// PhaseAdvance spans the plant's per-unit evaluation (all units).
	PhaseAdvance = "plant.advance"
	// PhaseShard spans one worker goroutine's share of a sharded dispatch;
	// Span.Shard carries the worker index. The gap between the slowest and
	// the mean worker is the load imbalance (ShardImbalance).
	PhaseShard = "plant.shard"
	// PhaseReduce spans the pairwise tree reduction of the unit partials.
	PhaseReduce = "plant.reduce"
	// PhaseDemandRow spans the per-tick demand row lookup, including the
	// amortized 32-tick block-cache transpose when the tick falls outside
	// the cached window.
	PhaseDemandRow = "plant.demand_row"
	// CtlPrefix prefixes per-controller phases: CtlPrefix + Name().
	CtlPrefix = "ctl."
	// CtlShardSuffix marks one worker's share of a sharded controller epoch
	// ("ctl.EC.shard").
	CtlShardSuffix = ".shard"
)

// Counter track names (RecordCounter).
const (
	// CounterGCCycles is the number of GC cycles that completed during the
	// tick.
	CounterGCCycles = "gc-cycles"
	// CounterHeapAllocBytes is the number of heap bytes allocated during
	// the tick.
	CounterHeapAllocBytes = "heap-alloc-bytes"
)

// Span is one timed phase occurrence.
type Span struct {
	// Tick is the simulation tick the span belongs to.
	Tick int
	// Shard is the worker index for sharded phases, -1 for engine-wide
	// spans.
	Shard int
	// Phase names what was timed (see the Phase constants).
	Phase string
	// Start is nanoseconds since the profiler's epoch (its creation).
	Start int64
	// Dur is the span length in nanoseconds.
	Dur int64
}

// CounterSample is one counter-track observation (a per-tick delta).
type CounterSample struct {
	// Tick is the simulation tick the delta covers.
	Tick int
	// Name identifies the track (see the Counter constants).
	Name string
	// TS is nanoseconds since the profiler's epoch at sample time.
	TS int64
	// Value is the per-tick delta.
	Value float64
}

// Recorder is the minimal hook instrumented code calls around a phase. It
// is satisfied by *Profiler and by the engine's tee (which forwards spans
// into the registry's np_sim_phase_seconds histograms as well); defining the
// interface here lets the cluster plant depend on the contract without
// knowing about either implementation.
type Recorder interface {
	// Now returns nanoseconds since the recorder's epoch.
	Now() int64
	// Record stores one span. start must come from Now.
	Record(tick int, phase string, shard int, start, dur int64)
}

// DefaultCapacity bounds a Profiler built with capacity <= 0: 2^19 spans
// (≈ 32 MB), several thousand 60-tick runs of the coordinated stack.
const DefaultCapacity = 1 << 19

// counterCapacityDiv sizes the counter ring relative to the span ring:
// counters arrive a few per tick versus tens of spans.
const counterCapacityDiv = 8

// Profiler records spans into a fixed-capacity ring. The zero value is not
// usable; build with New. A nil *Profiler is the disabled profiler: callers
// gate every instrumentation site on the nil check.
type Profiler struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []Span
	next     int
	full     bool
	dropped  int64
	counters []CounterSample
	cnext    int
	cfull    bool
	cdropped int64
}

// New allocates a profiler holding the most recent capacity spans
// (DefaultCapacity when capacity <= 0).
func New(capacity int) *Profiler {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	ccap := capacity / counterCapacityDiv
	if ccap < 1 {
		ccap = 1
	}
	return &Profiler{
		epoch:    time.Now(),
		spans:    make([]Span, capacity),
		counters: make([]CounterSample, ccap),
	}
}

// Now implements Recorder: nanoseconds since the profiler's creation.
func (p *Profiler) Now() int64 { return time.Since(p.epoch).Nanoseconds() }

// Record implements Recorder: it stores one span, overwriting the oldest
// (and counting it dropped) when the ring is full.
func (p *Profiler) Record(tick int, phase string, shard int, start, dur int64) {
	p.mu.Lock()
	if p.full {
		p.dropped++
	}
	p.spans[p.next] = Span{Tick: tick, Shard: shard, Phase: phase, Start: start, Dur: dur}
	p.next++
	if p.next == len(p.spans) {
		p.next, p.full = 0, true
	}
	p.mu.Unlock()
}

// RecordCounter stores one counter-track sample (a per-tick delta), with the
// same overwrite-oldest policy as Record.
func (p *Profiler) RecordCounter(tick int, name string, ts int64, value float64) {
	p.mu.Lock()
	if p.cfull {
		p.cdropped++
	}
	p.counters[p.cnext] = CounterSample{Tick: tick, Name: name, TS: ts, Value: value}
	p.cnext++
	if p.cnext == len(p.counters) {
		p.cnext, p.cfull = 0, true
	}
	p.mu.Unlock()
}

// Spans returns the retained spans, oldest first.
func (p *Profiler) Spans() []Span {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.full {
		return append([]Span(nil), p.spans[:p.next]...)
	}
	out := make([]Span, 0, len(p.spans))
	out = append(out, p.spans[p.next:]...)
	return append(out, p.spans[:p.next]...)
}

// Counters returns the retained counter samples, oldest first.
func (p *Profiler) Counters() []CounterSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.cfull {
		return append([]CounterSample(nil), p.counters[:p.cnext]...)
	}
	out := make([]CounterSample, 0, len(p.counters))
	out = append(out, p.counters[p.cnext:]...)
	return append(out, p.counters[:p.cnext]...)
}

// Len reports how many spans are currently retained.
func (p *Profiler) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.full {
		return len(p.spans)
	}
	return p.next
}

// Dropped reports how many spans were overwritten because the ring was full
// — silent trace loss made visible, so a run that outgrew its ring is
// diagnosed instead of trusted.
func (p *Profiler) Dropped() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.dropped
}

// PhaseStat aggregates the retained spans of one phase.
type PhaseStat struct {
	// Phase is the phase name.
	Phase string
	// Count is the number of retained spans.
	Count int
	// Total is the summed duration.
	Total time.Duration
	// Max is the longest single span.
	Max time.Duration
}

// PhaseStats aggregates the retained spans per phase, sorted by total
// duration descending — the "where did the tick go" table.
func (p *Profiler) PhaseStats() []PhaseStat {
	byPhase := make(map[string]*PhaseStat)
	var order []string
	for _, s := range p.Spans() {
		st := byPhase[s.Phase]
		if st == nil {
			st = &PhaseStat{Phase: s.Phase}
			byPhase[s.Phase] = st
			order = append(order, s.Phase)
		}
		st.Count++
		st.Total += time.Duration(s.Dur)
		if d := time.Duration(s.Dur); d > st.Max {
			st.Max = d
		}
	}
	out := make([]PhaseStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byPhase[name])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// ShardImbalance summarizes the load balance of a sharded phase: for every
// tick with more than one worker span of the given phase it computes
// max/mean worker duration, and returns the average of those ratios. 1.0 is
// a perfectly balanced dispatch; 0 means the phase never ran sharded.
func (p *Profiler) ShardImbalance(phase string) float64 {
	type acc struct {
		sum, max float64
		n        int
	}
	ticks := make(map[int]*acc)
	for _, s := range p.Spans() {
		if s.Phase != phase {
			continue
		}
		a := ticks[s.Tick]
		if a == nil {
			a = &acc{}
			ticks[s.Tick] = a
		}
		d := float64(s.Dur)
		a.sum += d
		if d > a.max {
			a.max = d
		}
		a.n++
	}
	total, n := 0.0, 0
	for _, a := range ticks {
		if a.n < 2 || a.sum <= 0 {
			continue
		}
		mean := a.sum / float64(a.n)
		total += a.max / mean
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}
