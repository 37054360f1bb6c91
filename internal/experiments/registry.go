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

// experiment is one registered experiment: its ID, how it runs and the
// one-line description `npexp list` prints.
type experiment struct {
	name string
	// run executes an experiment that is not a table experiment, or
	// renders the tables a table experiment adds after its sweep's table.
	run Runner
	// sweep is a table experiment's runs and first table; RunExperiments
	// runs the sweeps of a batch's table experiments as one sweep.
	sweep *tableSweep
	desc  string
}

// registry lists the experiments in DESIGN.md §4 order, which is the order
// Names reports and `npexp all` runs them in.
var registry = []experiment{
	{"models", Models, nil, "the Fig. 5 power/performance calibrations and base parameters"},
	{"fig7", nil, &fig7Sweep, "coordinated vs uncoordinated: violations + perf loss, 4 configs (Fig. 7)"},
	{"fig8", nil, &fig8Sweep, "isolating controllers: Coordinated / NoVMC / VMCOnly savings (Fig. 8)"},
	{"fig9", nil, &fig9Sweep, "coordination-interface ablations (Fig. 9)"},
	{"fig10", nil, &fig10Sweep, "power-budget sensitivity: 20-15-10 / 25-20-15 / 30-25-20 (Fig. 10)"},
	{"pstates", nil, &pstatesSweep, "number of P-states: full ladder vs two extremes (§5.3)"},
	{"machineoff", nil, &machineOffSweep, "avoiding turning machines off (§5.4)"},
	{"migration", nil, &migrationSweep, "migration-overhead sensitivity: 10/20/50 % (§5.4)"},
	{"timeconst", nil, &timeConstSweep, "time-constant sensitivity for EC/SM/GM/VMC (§5.4)"},
	{"policies", nil, &policiesSweep, "EM/GM division-policy choices (§5.4)"},
	{"failover", Failover, nil, "thermal-failover prototype: EC+SM under sustained load (§5.1)"},
	{"stability", Stability, nil, "Appendix A: EC and SM stability sweeps"},
	{"multiseed", nil, &multiSeedSweep, "seed robustness of the headline comparison (beyond the paper)"},
	{"extensions", extensionStudies, &extensionsSweep, "§6.1 extensions: VM-level EC, energy-delay objective, CAP, heterogeneity, MIMO"},
	{"cooling", Cooling, nil, "§7 future work: cooling-domain coordination (CRAC setpoint + budgets)"},
	{"chaos", Chaos, nil, "fault-injection soak: flaps, sensor faults, crashes under degraded mode (§3.2)"},
	{"replay", Replay, nil, "chaos soak re-run sharded and killed-and-resumed from checkpoints; verifies bitwise identity"},
	{"scale", scale10k.run, nil, "10k-server fleet: sharded and resumed tick engine vs serial, bit-identical results (E17)"},
	{"scale100k", scale100k.run, nil, "100k-server fleet: columnar cluster store, sharded and resumed vs serial bit-identity (E18)"},
	{"facility", Facility, nil, "facility co-simulation: UPS/PDU losses, weather-derated cooling, PUE, FM budget (E21)"},
	{"hetero", Hetero, nil, "heterogeneous fleets: coordinated vs uncoordinated across three profile mixes (E22)"},
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

// IsTable reports whether name is a table experiment, one that
// RunExperiments sweeps together with the other table experiments of its
// batch.
func IsTable(name string) bool {
	e, ok := lookup(name)
	return ok && e.sweep != nil
}

// RunExperiment executes a registered experiment by name: the one-name
// case of RunExperiments. The context cancels the run mid-batch, and the
// variadic options select ticks, seed, and parallelism.
func RunExperiment(ctx context.Context, name string, opts ...Option) ([]*report.Table, error) {
	tables, err := RunExperiments(ctx, []string{name}, opts...)
	if err != nil {
		return nil, err
	}
	return tables[0], nil
}

// RunExperiments executes the named registered experiments in the order
// given and returns their tables in that order. The table experiments
// among them run as one sweep in one run group (ShareTraces), at the place
// of the first one: each distinct run and baseline of the batch runs once,
// and each trace set is synthesized once. A table experiment's further
// tables (E13's) follow its sweep table, each from a run group of its own,
// as every other experiment runs. An unknown name fails the call before
// anything runs, and the first error stops the batch.
func RunExperiments(ctx context.Context, names []string, opts ...Option) ([][]*report.Table, error) {
	exps := make([]experiment, len(names))
	var sweeps []tableSweep
	for i, name := range names {
		e, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
		}
		exps[i] = e
		if e.sweep != nil {
			sweeps = append(sweeps, *e.sweep)
		}
	}
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	out := make([][]*report.Table, len(names))
	for i, e := range exps {
		if out[i] != nil {
			continue
		}
		if e.sweep == nil {
			tables, err := e.run(ShareTraces(ctx), o)
			if err != nil {
				return nil, err
			}
			out[i] = tables
			continue
		}
		tables, err := sweepTables(ShareTraces(ctx), o, sweeps...)
		if err != nil {
			return nil, err
		}
		for j := i; j < len(exps); j++ {
			if exps[j].sweep == nil {
				continue
			}
			out[j], tables = []*report.Table{tables[0]}, tables[1:]
			if exps[j].run != nil {
				more, err := exps[j].run(ShareTraces(ctx), o)
				if err != nil {
					return nil, err
				}
				out[j] = append(out[j], more...)
			}
		}
	}
	return out, nil
}
