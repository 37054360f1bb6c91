package experiments

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"nopower/internal/obs/prof"
	"nopower/internal/report"
)

// Options tunes an experiment run. Zero values select the paper-faithful
// defaults; tests and benchmarks shrink Ticks for speed. RunExperiment
// takes it as With* functional options.
type Options struct {
	// Ticks is the per-simulation length (0 = DefaultTicks).
	Ticks int
	// Seed drives trace generation (0 = 42).
	Seed int64
	// Parallelism bounds the worker pool that fans independent simulation
	// jobs out (0 = GOMAXPROCS, 1 = serial). Results are deterministic at
	// any setting: tables are keyed by job, never by completion order. The
	// goroutines inside each simulation tick are the process default set by
	// SetDefaultShards.
	Parallelism int
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

// defaultShards is the process-wide fallback for Scenario.Shards, set by
// npexp's -shards flag. Atomic because experiment jobs read it from worker
// goroutines.
var defaultShards atomic.Int64

// SetDefaultShards sets the process-wide default per-tick shard count used
// when a scenario and its spec leave Shards at 0. Sharding is a pure
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

// Runner executes one experiment and renders its artifact tables. The
// context cancels the run between simulation ticks and between jobs.
type Runner func(ctx context.Context, opts Options) ([]*report.Table, error)

// experiment is one registered experiment: its ID, its runner and the
// one-line description `npexp list` prints.
type experiment struct {
	name string
	run  Runner
	desc string
}

// registry lists the experiments in DESIGN.md §4 order, which is the order
// Names reports and `npexp all` runs them in.
var registry = []experiment{
	{"models", Models, "the Fig. 5 power/performance calibrations and base parameters"},
	{"fig7", fig7Sweep.run, "coordinated vs uncoordinated: violations + perf loss, 4 configs (Fig. 7)"},
	{"fig8", fig8Sweep.run, "isolating controllers: Coordinated / NoVMC / VMCOnly savings (Fig. 8)"},
	{"fig9", fig9Sweep.run, "coordination-interface ablations (Fig. 9)"},
	{"fig10", fig10Sweep.run, "power-budget sensitivity: 20-15-10 / 25-20-15 / 30-25-20 (Fig. 10)"},
	{"pstates", pstatesSweep.run, "number of P-states: full ladder vs two extremes (§5.3)"},
	{"machineoff", machineOffSweep.run, "avoiding turning machines off (§5.4)"},
	{"migration", migrationSweep.run, "migration-overhead sensitivity: 10/20/50 % (§5.4)"},
	{"timeconst", timeConstSweep.run, "time-constant sensitivity for EC/SM/GM/VMC (§5.4)"},
	{"policies", policiesSweep.run, "EM/GM division-policy choices (§5.4)"},
	{"failover", Failover, "thermal-failover prototype: EC+SM under sustained load (§5.1)"},
	{"stability", Stability, "Appendix A: EC and SM stability sweeps"},
	{"multiseed", multiSeedSweep.run, "seed robustness of the headline comparison (beyond the paper)"},
	{"extensions", Extensions, "§6.1 extensions: VM-level EC, energy-delay objective, CAP, heterogeneity, MIMO"},
	{"cooling", Cooling, "§7 future work: cooling-domain coordination (CRAC setpoint + budgets)"},
	{"chaos", Chaos, "fault-injection soak: flaps, sensor faults, crashes under degraded mode (§3.2)"},
	{"replay", Replay, "chaos soak re-run sharded and killed-and-resumed from checkpoints; verifies bitwise identity"},
	{"scale", scale10k.run, "10k-server fleet: sharded and resumed tick engine vs serial, bit-identical results (E17)"},
	{"scale100k", scale100k.run, "100k-server fleet: columnar cluster store, sharded and resumed vs serial bit-identity (E18)"},
	{"facility", Facility, "facility co-simulation: UPS/PDU losses, weather-derated cooling, PUE, FM budget (E21)"},
	{"hetero", Hetero, "heterogeneous fleets: coordinated vs uncoordinated across three profile mixes (E22)"},
}

// Names lists the registered experiment IDs in DESIGN.md order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup finds a registered experiment by ID.
func lookup(name string) (experiment, bool) {
	i := slices.IndexFunc(registry, func(e experiment) bool { return e.name == name })
	if i < 0 {
		return experiment{}, false
	}
	return registry[i], true
}

// Describe returns the one-line description of an experiment ("" when the
// name is not registered).
func Describe(name string) string {
	e, _ := lookup(name)
	return e.desc
}

// RunExperiment executes a registered experiment by name. This is the
// canonical entry point: the context cancels the run mid-batch, and the
// variadic options select ticks, seed, and parallelism. The experiment is
// one run group (ShareTraces): its runs share each trace set it needs.
func RunExperiment(ctx context.Context, name string, opts ...Option) ([]*report.Table, error) {
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	return e.run(ShareTraces(ctx), o)
}
