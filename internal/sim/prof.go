// Engine-side profiling: the wiring between the tick loop and the
// internal/obs/prof timeline profiler. The engine owns the span taxonomy's
// "sim." and "ctl." areas (the cluster plant records its own "plant."
// internals through the same recorder); this file holds the tee that fans
// spans into the profiler ring and the metrics registry, the per-controller
// epoch bookkeeping, the per-worker shard telemetry, and the per-tick
// GC/allocation counters. Everything here is reached only when Engine.Prof
// is set — the disabled path is a nil check per site and nothing else
// (DESIGN.md §13 budgets ≤1% on BenchmarkScale100k).
package sim

import (
	"fmt"
	rtmetrics "runtime/metrics"
	"sync"

	"nopower/internal/obs"
	"nopower/internal/obs/prof"
)

// Epochal is implemented by controllers that act only every EpochPeriod()
// ticks (k % period == 0) — the control-law epochs of the paper's
// multi-rate stack. The profiler uses it to record a ctl.<Name> span only
// on the ticks the controller actually does work, so a long-period
// controller's idle passes do not flood the span ring with near-zero
// spans. Controllers that act every tick (the electrical capper) return 1
// or simply do not implement the interface.
type Epochal interface {
	// EpochPeriod returns the controller's epoch length in ticks (>= 1).
	EpochPeriod() int
}

// rtMetricNames are the runtime/metrics samples behind the per-tick
// GC/allocation counter tracks. Reading two samples per tick costs tens of
// nanoseconds — noise against a plant advance.
var rtMetricNames = [2]string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes"}

// teeRecorder implements prof.Recorder for the engine: every span lands in
// the profiler ring and, when a metrics registry is attached too, mirrors
// into that phase's np_sim_phase_seconds histogram. Histogram handles are
// cached per phase so the steady state is one map read under a mutex —
// workers record a handful of spans per tick, so contention is noise.
type teeRecorder struct {
	p   *prof.Profiler
	reg *obs.Registry // nil when no registry is attached

	mu   sync.Mutex
	hist map[string]*obs.Histogram
}

func newTeeRecorder(p *prof.Profiler, reg *obs.Registry) *teeRecorder {
	return &teeRecorder{p: p, reg: reg, hist: make(map[string]*obs.Histogram)}
}

// Now implements prof.Recorder.
func (t *teeRecorder) Now() int64 { return t.p.Now() }

// Record implements prof.Recorder: ring first, registry mirror second.
func (t *teeRecorder) Record(tick int, phase string, shard int, start, dur int64) {
	t.p.Record(tick, phase, shard, start, dur)
	if t.reg == nil {
		return
	}
	t.mu.Lock()
	h := t.hist[phase]
	if h == nil {
		h = t.reg.Histogram(obs.SeriesName("np_sim_phase_seconds", "phase", phase))
		t.hist[phase] = h
	}
	t.mu.Unlock()
	h.Observe(float64(dur) / 1e9)
}

// ctlProf caches one controller's profiling identity so the per-tick hot
// path tests k%period instead of repeating a type assertion.
type ctlProf struct {
	phase      string // "ctl.<Name>"
	shardPhase string // "ctl.<Name>.shard"
	period     int    // epoch length; 1 when the controller is not Epochal
}

// wireProfiling resolves the profiler side of wireObservability: the tee,
// the per-controller phases and epoch periods, the plant hook, and the
// runtime-metrics baseline. It runs at the start of every run with the
// rest of the wiring, so swapping Prof (or the stack) between runs
// re-resolves everything.
func (e *Engine) wireProfiling() {
	if e.Prof == nil {
		e.profRec = nil
		e.ctlProf = nil
		e.Cluster.SetProfiler(nil)
		return
	}
	e.profRec = newTeeRecorder(e.Prof, e.Metrics)
	e.Cluster.SetProfiler(e.profRec)
	e.ctlProf = make([]ctlProf, len(e.Controllers))
	for i, c := range e.Controllers {
		period := 1
		if ep, ok := c.(Epochal); ok && ep.EpochPeriod() > 1 {
			period = ep.EpochPeriod()
		}
		e.ctlProf[i] = ctlProf{
			phase:      prof.CtlPrefix + c.Name(),
			shardPhase: prof.CtlPrefix + c.Name() + prof.CtlShardSuffix,
			period:     period,
		}
	}
	if e.rmSamples == nil {
		e.rmSamples = []rtmetrics.Sample{{Name: rtMetricNames[0]}, {Name: rtMetricNames[1]}}
	}
	rtmetrics.Read(e.rmSamples)
	e.gcPrev = e.rmSamples[0].Value.Uint64()
	e.allocPrev = e.rmSamples[1].Value.Uint64()
	if e.Metrics != nil {
		e.mGCCycles = e.Metrics.Counter("np_sim_gc_cycles_total")
		e.mAllocBytes = e.Metrics.Counter("np_sim_heap_alloc_bytes_total")
	} else {
		e.mGCCycles, e.mAllocBytes = nil, nil
	}
}

// sampleRuntime records the completed tick's GC and heap-allocation deltas
// as profiler counter tracks (Perfetto counter lanes under the trace) and,
// when a registry is attached, as monotonic counters.
func (e *Engine) sampleRuntime(k int) {
	rtmetrics.Read(e.rmSamples)
	gc, alloc := e.rmSamples[0].Value.Uint64(), e.rmSamples[1].Value.Uint64()
	dgc, dalloc := gc-e.gcPrev, alloc-e.allocPrev
	e.gcPrev, e.allocPrev = gc, alloc
	now := e.Prof.Now()
	e.Prof.RecordCounter(k, prof.CounterGCCycles, now, float64(dgc))
	e.Prof.RecordCounter(k, prof.CounterHeapAllocBytes, now, float64(dalloc))
	if e.mGCCycles != nil {
		e.mGCCycles.Add(int64(dgc))
		e.mAllocBytes.Add(int64(dalloc))
	}
}

// recordShards records the latest measured dispatch's per-worker busy
// spans under phase, one span per worker with the worker index as shard.
func (e *Engine) recordShards(k int, phase string) {
	for w := 0; w < e.shardWorkers; w++ {
		e.profRec.Record(k, phase, w, e.shardStart[w], e.shardBusy[w])
	}
}

// observeShards publishes the just-finished plant advance's per-worker busy
// times as np_sim_shard_seconds gauges and their max/mean ratio as
// np_sim_shard_imbalance (1.0 is a perfectly balanced dispatch). Gauge
// handles grow lazily so a Shards change between runs needs no rewire.
func (e *Engine) observeShards() {
	w := e.shardWorkers
	if w < 2 || e.Metrics == nil {
		return
	}
	for len(e.mShard) < w {
		i := len(e.mShard)
		e.mShard = append(e.mShard,
			e.Metrics.Gauge(fmt.Sprintf(`np_sim_shard_seconds{shard="%d"}`, i)))
	}
	if e.mImbalance == nil {
		e.mImbalance = e.Metrics.Gauge("np_sim_shard_imbalance")
	}
	sum, mx := 0.0, 0.0
	for i := 0; i < w; i++ {
		d := float64(e.shardBusy[i]) / 1e9
		e.mShard[i].Set(d)
		sum += d
		if d > mx {
			mx = d
		}
	}
	if sum > 0 {
		e.mImbalance.Set(mx / (sum / float64(w)))
	}
}
