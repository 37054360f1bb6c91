package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"nopower/internal/obs/prof"
	"nopower/internal/report"
	"nopower/internal/runner"
)

// Options tunes an experiment run. Zero values select the paper-faithful
// defaults; tests and benchmarks shrink Ticks for speed. Construct it with
// the With* functional options (the canonical API); the struct remains
// exported so positional literals keep compiling.
type Options struct {
	// Ticks is the per-simulation length (0 = DefaultTicks).
	Ticks int
	// Seed drives trace generation (0 = 42).
	Seed int64
	// Parallelism bounds the worker pool that fans independent simulation
	// jobs out (0 = GOMAXPROCS, 1 = serial). Results are deterministic at
	// any setting: tables are keyed by job, never by completion order.
	Parallelism int
	// Shards bounds the goroutines used inside each simulation tick (the
	// sharded plant/EC advance; 0 = the package default set by
	// SetDefaultShards, which itself defaults to serial). Orthogonal to
	// Parallelism — that knob fans out across runs, this one inside a run —
	// and, like it, never changes results.
	Shards int
}

func (o Options) normalized() Options {
	if o.Ticks == 0 {
		o.Ticks = DefaultTicks
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Option mutates an Options value; the With* constructors below are the
// canonical way to configure RunExperiment.
type Option func(*Options)

// WithTicks sets the per-simulation length.
func WithTicks(n int) Option { return func(o *Options) { o.Ticks = n } }

// WithSeed sets the trace/policy seed.
func WithSeed(s int64) Option { return func(o *Options) { o.Seed = s } }

// WithParallelism bounds the experiment worker pool (0 = GOMAXPROCS).
func WithParallelism(p int) Option { return func(o *Options) { o.Parallelism = p } }

// WithShards bounds the per-tick goroutines inside each simulation
// (0 = package default).
func WithShards(n int) Option { return func(o *Options) { o.Shards = n } }

// defaultShards is the process-wide fallback for Options.Shards/
// Scenario.Shards, set by the CLIs' -shards flag. Atomic because experiment
// jobs read it from worker goroutines.
var defaultShards atomic.Int64

// SetDefaultShards sets the process-wide default per-tick shard count used
// when a scenario/spec/options leaves Shards at 0. Sharding is a pure
// execution knob — results are bitwise identical at every value.
func SetDefaultShards(n int) { defaultShards.Store(int64(n)) }

// DefaultShards reports the process-wide default per-tick shard count.
func DefaultShards() int { return int(defaultShards.Load()) }

// defaultProfiler is the process-wide fallback for Observers.Prof, set by
// the CLIs' -timeline flag. It reaches the engines that experiments build
// internally (baselines, chaos runs, batch jobs), which the explicit
// Observers path cannot. The profiler's span ring is mutex-guarded, so
// parallel experiment jobs share it safely; their spans interleave in the
// exported timeline, distinguishable by tick and lane.
var defaultProfiler atomic.Pointer[prof.Profiler]

// SetDefaultProfiler sets the process-wide default span profiler attached
// to every engine whose run leaves Observers.Prof nil. Pass nil to detach.
// Profiling is a pure observation knob — results are bitwise identical
// with or without it.
func SetDefaultProfiler(p *prof.Profiler) { defaultProfiler.Store(p) }

// DefaultProfiler reports the process-wide default span profiler (nil when
// unset).
func DefaultProfiler() *prof.Profiler { return defaultProfiler.Load() }

// WithOptions overlays a whole Options struct — the bridge for callers
// migrating from the positional form.
func WithOptions(opts Options) Option { return func(o *Options) { *o = opts } }

// BuildOptions folds functional options over the zero value.
func BuildOptions(opts ...Option) Options {
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return o
}

// Runner executes one experiment and renders its artifact tables. The
// context cancels the run between simulation ticks and between jobs.
type Runner func(ctx context.Context, opts Options) ([]*report.Table, error)

// registry maps experiment IDs (DESIGN.md §4) to runners.
var registry = map[string]struct {
	run  Runner
	desc string
}{
	"fig7":       {Fig7, "coordinated vs uncoordinated: violations + perf loss, 4 configs (Fig. 7)"},
	"fig8":       {Fig8, "isolating controllers: Coordinated / NoVMC / VMCOnly savings (Fig. 8)"},
	"fig9":       {Fig9, "coordination-interface ablations (Fig. 9)"},
	"fig10":      {Fig10, "power-budget sensitivity: 20-15-10 / 25-20-15 / 30-25-20 (Fig. 10)"},
	"pstates":    {PStates, "number of P-states: full ladder vs two extremes (§5.3)"},
	"machineoff": {MachineOff, "avoiding turning machines off (§5.4)"},
	"migration":  {Migration, "migration-overhead sensitivity: 10/20/50 % (§5.4)"},
	"timeconst":  {TimeConstants, "time-constant sensitivity for EC/SM/GM/VMC (§5.4)"},
	"policies":   {Policies, "EM/GM division-policy choices (§5.4)"},
	"failover":   {Failover, "thermal-failover prototype: EC+SM under sustained load (§5.1)"},
	"stability":  {Stability, "Appendix A: EC and SM stability sweeps"},
	"multiseed":  {MultiSeed, "seed robustness of the headline comparison (beyond the paper)"},
	"extensions": {Extensions, "§6.1 extensions: VM-level EC, energy-delay objective, CAP, heterogeneity, MIMO"},
	"models":     {Models, "the Fig. 5 power/performance calibrations and base parameters"},
	"cooling":    {Cooling, "§7 future work: cooling-domain coordination (CRAC setpoint + budgets)"},
	"chaos":      {Chaos, "fault-injection soak: flaps, sensor faults, crashes under degraded mode (§3.2)"},
	"replay":     {Replay, "chaos soak re-run sharded and killed-and-resumed from checkpoints; verifies bitwise identity"},
	"scale":      {scale10k.run, "10k-server fleet: sharded and resumed tick engine vs serial, bit-identical results (E17)"},
	"scale100k":  {scale100k.run, "100k-server fleet: columnar cluster store, sharded and resumed vs serial bit-identity (E18)"},
	"facility":   {Facility, "facility co-simulation: UPS/PDU losses, weather-derated cooling, PUE, FM budget (E21)"},
	"hetero":     {Hetero, "heterogeneous fleets: coordinated vs uncoordinated across three profile mixes (E22)"},
}

// Names lists the registered experiment IDs in DESIGN.md order.
func Names() []string {
	order := []string{"models", "fig7", "fig8", "fig9", "fig10", "pstates", "machineoff",
		"migration", "timeconst", "policies", "failover", "stability", "multiseed",
		"extensions", "cooling", "chaos", "replay", "scale", "scale100k", "facility", "hetero"}
	// Guard against drift between the slice and the map.
	if len(order) != len(registry) {
		keys := make([]string, 0, len(registry))
		for k := range registry {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	return order
}

// Describe returns the one-line description of an experiment.
func Describe(name string) string { return registry[name].desc }

// RunExperiment executes a registered experiment by name. This is the
// canonical entry point: the context cancels the run mid-batch, and the
// variadic options select ticks, seed, and parallelism.
func RunExperiment(ctx context.Context, name string, opts ...Option) ([]*report.Table, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	o := BuildOptions(opts...)
	if o.Shards != 0 {
		// Experiments build their scenarios internally, so the per-run shard
		// request travels via the process default. Concurrent batches with
		// different values interleave benignly: sharding never changes
		// results, only wall clock.
		SetDefaultShards(o.Shards)
	}
	return e.run(ctx, o)
}

// baselineCache memoizes no-management baselines across experiments in one
// process, keyed by the fleet (model or profile distribution), mix, ticks and
// seed. Budgets are not part of the key: with no controllers nothing acts on
// a budget, so the baseline's average power does not depend on them. The
// singleflight semantics matter under the parallel runner: concurrent jobs
// that share a scenario block on one baseline simulation instead of each
// running their own.
var baselineCache runner.Cache[baselineKey, float64]

type baselineKey struct {
	model    string
	profiles string
	mix      string
	ticks    int
	seed     int64
}

// cachedBaseline computes (or reuses) the scenario's baseline average power.
// The wait on an in-flight computation is context-aware: a cancelled job
// stops waiting promptly while the computing job (which carries its own
// context) finishes and settles the cache for everyone else.
func cachedBaseline(ctx context.Context, sc Scenario) (float64, error) {
	sc = sc.normalized()
	key := baselineKey{sc.Model, sc.Profiles, string(sc.Mix), sc.Ticks, sc.Seed}
	return baselineCache.GetCtx(ctx, key, func() (float64, error) {
		return BaselinePower(ctx, sc)
	})
}
