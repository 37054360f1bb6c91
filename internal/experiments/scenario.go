// Package experiments reproduces every table and figure of the paper's
// evaluation (§5). Each experiment builds scenarios from the shared pieces —
// synthetic trace mixes, the two system models, the budget configurations —
// runs the relevant controller stacks, and returns rows shaped like the
// paper's artifacts. See DESIGN.md §4 for the experiment index.
package experiments

import (
	"context"
	"fmt"

	"nopower/internal/checkpoint"
	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// Budgets is one power-budget configuration, expressed as the paper does:
// percentage headroom off the maximum draw at group/enclosure/local levels.
// The paper's base "20-15-10" is {0.20, 0.15, 0.10}.
type Budgets struct {
	Grp, Enc, Loc float64
}

// Base201510 is the paper's base budget configuration.
func Base201510() Budgets { return Budgets{Grp: 0.20, Enc: 0.15, Loc: 0.10} }

// BudgetConfigs returns the three configurations of Fig. 10.
func BudgetConfigs() []Budgets {
	return []Budgets{
		{Grp: 0.20, Enc: 0.15, Loc: 0.10},
		{Grp: 0.25, Enc: 0.20, Loc: 0.15},
		{Grp: 0.30, Enc: 0.25, Loc: 0.20},
	}
}

// Label renders a budget configuration the way the paper writes it.
func (b Budgets) Label() string {
	return fmt.Sprintf("%.0f-%.0f-%.0f", b.Grp*100, b.Enc*100, b.Loc*100)
}

// Scenario is one fully-specified simulation setup.
type Scenario struct {
	// Model names the hardware calibration — any profile in the
	// model registry ("BladeA", "ServerB", "arm-microblade", ...).
	Model string
	// Profiles, when non-empty, describes a heterogeneous fleet as a
	// model.Distribution spec ("arm-microblade:3,serverb:2,..."): servers
	// are assigned profiles by deterministic weighted interleave, so every
	// rebuild of the scenario (checkpoint resume, shard comparison) gets
	// the identical fleet. Mutually exclusive with PStates; Model is
	// ignored when set.
	Profiles string
	// Mix names the workload mix.
	Mix tracegen.Mix
	// Budgets is the power-budget configuration.
	Budgets Budgets
	// Ticks is the simulation length.
	Ticks int
	// Seed drives trace generation and any stochastic policy.
	Seed int64
	// MigrationTicks is the migration-penalty window (default 10).
	MigrationTicks int
	// AlphaV, AlphaM are the virtualization and migration overheads
	// (defaults 0.10 each, the paper's base).
	AlphaV, AlphaM float64
	// PStates optionally restricts the model's ladder (nil = all states);
	// used by the §5.3 P-state study. Must include 0.
	PStates []int
	// Traces, when non-nil, supplies the workloads directly (e.g. loaded
	// from a user CSV) instead of generating the named Mix. Each BuildCluster
	// call deep-copies the set so runs stay independent.
	Traces *trace.Set
	// Shards bounds the per-tick goroutines of the engine (core.Spec.Shards).
	// 0 falls back to the spec's value, then to the package default set by
	// SetDefaultShards (the -shards CLI flag). Results are bitwise identical
	// at every value.
	Shards int
}

// DefaultTicks is long enough for several VMC epochs at the base periods.
const DefaultTicks = 3000

// normalized fills scenario defaults.
func (sc Scenario) normalized() Scenario {
	if sc.Ticks == 0 {
		sc.Ticks = DefaultTicks
	}
	if sc.Seed == 0 {
		sc.Seed = 42
	}
	if sc.MigrationTicks == 0 {
		sc.MigrationTicks = 10
	}
	if sc.AlphaV == 0 {
		sc.AlphaV = 0.10
	}
	if sc.AlphaM == 0 {
		sc.AlphaM = 0.10
	}
	return sc
}

// topology returns the paper's cluster layouts (§4.3): 180 workloads → six
// 20-blade enclosures + 60 standalone servers; 60 workloads → two 20-blade
// enclosures + 20 standalone servers. Other sizes (custom trace sets) scale
// the same 2:1 blade:standalone proportion via TopologyFor.
func topology(workloads int) (enclosures, blades, standalone int, err error) {
	switch workloads {
	case 180:
		return 6, 20, 60, nil
	case 60:
		return 2, 20, 20, nil
	}
	if workloads <= 0 {
		return 0, 0, 0, fmt.Errorf("experiments: no topology for %d workloads", workloads)
	}
	e, b, s := TopologyFor(workloads)
	return e, b, s, nil
}

// TopologyFor scales the paper's layout shape to an arbitrary workload
// count: one 20-blade enclosure per 30 workloads (the paper's 2:1
// blade-to-standalone ratio), the remainder standalone, and always exactly
// one server per workload.
func TopologyFor(workloads int) (enclosures, bladesPer, standalone int) {
	if workloads <= 0 {
		return 0, 0, 0
	}
	bladesPer = 20
	enclosures = workloads / 30
	if enclosures*bladesPer > workloads {
		enclosures = workloads / bladesPer
	}
	standalone = workloads - enclosures*bladesPer
	return enclosures, bladesPer, standalone
}

// BuildCluster materializes a scenario's cluster (fresh traces and state on
// every call, so repeated runs are independent and reproducible).
func (sc Scenario) BuildCluster() (*cluster.Cluster, error) {
	sc = sc.normalized()
	var set *trace.Set
	if sc.Traces != nil {
		set = &trace.Set{Name: sc.Traces.Name}
		for _, tr := range sc.Traces.Traces {
			set.Traces = append(set.Traces, tr.Clone())
		}
	} else {
		var err error
		set, err = tracegen.BuildMix(sc.Mix, sc.Ticks, sc.Seed)
		if err != nil {
			return nil, err
		}
	}
	return sc.clusterFromSet(set)
}

// clusterFromSet builds the scenario cluster around a pre-built trace set
// (used when a caller wants to inspect or perturb the traces). This is the
// single model-resolution choke point: every scenario path goes through
// model.Lookup (or Distribution, which wraps it), so a typo'd profile name
// fails fast with the list of known profiles instead of surfacing as a nil
// dereference.
func (sc Scenario) clusterFromSet(set *trace.Set) (*cluster.Cluster, error) {
	sc = sc.normalized()
	enc, blades, standalone, err := topology(set.Len())
	if err != nil {
		return nil, err
	}
	cfg := cluster.Config{
		Enclosures:         enc,
		BladesPerEnclosure: blades,
		Standalone:         standalone,
		CapOffGrp:          sc.Budgets.Grp,
		CapOffEnc:          sc.Budgets.Enc,
		CapOffLoc:          sc.Budgets.Loc,
		AlphaV:             sc.AlphaV,
		AlphaM:             sc.AlphaM,
		MigrationTicks:     sc.MigrationTicks,
	}
	if sc.Profiles != "" {
		if sc.PStates != nil {
			return nil, fmt.Errorf("experiments: Profiles and PStates are mutually exclusive")
		}
		d, err := model.ParseDistribution(sc.Profiles)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if cfg.Models, err = d.Models(set.Len()); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	} else {
		m, err := model.Lookup(sc.Model)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if sc.PStates != nil {
			if m, err = m.Pick(sc.PStates...); err != nil {
				return nil, err
			}
		}
		cfg.Model = m
	}
	return cluster.New(cfg, set)
}

// RunVsBaseline executes one (scenario, spec) pair against a pre-computed
// baseline average power, letting callers share the baseline across specs.
func RunVsBaseline(ctx context.Context, sc Scenario, spec core.Spec, baselineAvgPower float64) (metrics.Result, error) {
	sc = sc.normalized()
	_, res, err := execute(ctx, sc, spec, ChaosCase{}, baselineAvgPower, Observers{}, sc.Ticks)
	return res, err
}

// Observers bundles the optional observability attachments of a run. The
// zero value attaches nothing (the zero-overhead default).
type Observers struct {
	// Series records the per-tick headline time series.
	Series *metrics.Series
	// Tracer receives structured actuation events from every controller.
	Tracer obs.Tracer
	// Metrics streams live runtime telemetry (controller latencies, budget
	// violations, group power) into a registry, e.g. for a /metrics endpoint.
	Metrics *obs.Registry
	// Prof records per-tick phase spans (plant advance, reduction, each
	// controller law, checkpoints) into a preallocated ring for timeline
	// export (`npsim -timeline`). Nil leaves the engine's profiling hooks
	// compiled out to a pointer check; when nil, the process-wide default
	// set by SetDefaultProfiler (the -timeline CLI flag) applies. Profiling
	// never changes results — profiled runs are bitwise identical.
	Prof *prof.Profiler
	// FaultPolicy selects the engine's reaction to a controller panic (the
	// zero value is sim.FaultFail: recover and fail the run). RunSpec.Run
	// sets it from the spec; the chaos soak and the identity harness, which
	// run scenarios directly, set it here.
	FaultPolicy sim.FaultPolicy
	// OnTick, when non-nil, is called after every advanced tick with the
	// tick index and the plant — the general per-tick observation hook
	// (e.g. E22's per-profile power accumulator). Chained after the series
	// recorder and before Progress on the engine's single OnTick slot.
	// Pure observation: it must not mutate anything the simulation reads.
	OnTick func(k int, cl *cluster.Cluster)
	// Progress, when non-nil, is called after every advanced tick with the
	// count of ticks completed toward the scenario total — the hook a job
	// server streams per-job progress from. On a resumed run the first call
	// already reflects the checkpoint's position. Pure observation: it must
	// not mutate anything the simulation reads.
	Progress func(done, total int)
	// Checkpoint, when non-nil, writes periodic crash-safe snapshots (and a
	// post-mortem one on a run-failing panic) through the attached saver.
	Checkpoint *checkpoint.Saver
	// Resume, when non-nil, restores this checkpoint onto the freshly built
	// engine and runs only the remaining ticks. The run must be configured
	// identically to the one that wrote the checkpoint (same scenario, spec,
	// and observers) — the restore validates the component shape and the
	// determinism contract guarantees a bit-identical continuation.
	Resume *checkpoint.File
	// OnBuild, when non-nil, receives the built stack's controller handles
	// before the run starts — the hook CLIs use to pull facility/cooling
	// summaries out of a run they otherwise only see the Result of. Pure
	// observation: it must not mutate the handles.
	OnBuild func(*core.Handles)
}

// wireHandles connects handle-dependent observers: the series' facility
// columns when an FM is in the stack, and the caller's OnBuild hook. Call
// before attach so a resumed series restores with the hook already set.
func (o Observers) wireHandles(h *core.Handles) {
	if o.Series != nil && h.FM != nil {
		o.Series.AttachFacility(h.FM.SeriesEval)
	}
	if o.OnBuild != nil {
		o.OnBuild(h)
	}
}

// attach wires the bundle onto a freshly built engine of a totalTicks run,
// restoring o.Resume when set.
func (o Observers) attach(eng *sim.Engine, totalTicks int) error {
	if o.Series != nil {
		eng.OnTick = o.Series.Observe
		// The recorder is run state: a resumed run must continue the series,
		// not restart it, for the bitwise-replay contract to cover it.
		eng.RegisterAux("series", o.Series)
	}
	if o.OnTick != nil {
		// Chain behind the series recorder on the engine's single OnTick
		// hook.
		prev, hook := eng.OnTick, o.OnTick
		eng.OnTick = func(k int, cl *cluster.Cluster) {
			if prev != nil {
				prev(k, cl)
			}
			hook(k, cl)
		}
	}
	if o.Progress != nil {
		// Chain behind the series recorder (when both are set) on the
		// engine's single OnTick hook. k is the engine tick, so a resumed
		// run reports absolute progress, not progress-since-resume.
		prev, progress := eng.OnTick, o.Progress
		eng.OnTick = func(k int, cl *cluster.Cluster) {
			if prev != nil {
				prev(k, cl)
			}
			progress(k+1, totalTicks)
		}
	}
	eng.Tracer = o.Tracer
	eng.Metrics = o.Metrics
	eng.Prof = o.Prof
	if eng.Prof == nil {
		eng.Prof = DefaultProfiler()
	}
	eng.FaultPolicy = o.FaultPolicy
	if o.Checkpoint != nil {
		if err := o.Checkpoint.Attach(eng); err != nil {
			return err
		}
	}
	if o.Resume == nil {
		return nil
	}
	if err := eng.RestoreSnapshot(o.Resume.State); err != nil {
		return fmt.Errorf("experiments: resume: %w", err)
	}
	return nil
}

// finish joins the run's background checkpoint writes and surfaces the
// first write failure. Call it after the engine run, whatever its outcome.
func (o Observers) finish() error {
	if o.Checkpoint == nil {
		return nil
	}
	return o.Checkpoint.Flush()
}

// execute is the package's one run path. It builds the engine for (sc,
// spec, cse) through newChaosEngine, attaches o (restoring o.Resume when
// set), and runs to the absolute tick until. It returns the engine — for a
// snapshot or the degraded-mode count — and, when until is sc.Ticks, the
// result finalized against baseline (0 skips the savings metric). sc must be
// normalized.
func execute(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, baseline float64, o Observers, until int) (*sim.Engine, metrics.Result, error) {
	eng, h, err := newChaosEngine(sc, spec, cse)
	if err != nil {
		return nil, metrics.Result{}, err
	}
	o.wireHandles(h)
	if err := o.attach(eng, sc.Ticks); err != nil {
		return nil, metrics.Result{}, err
	}
	if eng.Tick() > until {
		return nil, metrics.Result{}, fmt.Errorf("experiments: checkpoint tick %d is past the run end %d", eng.Tick(), until)
	}
	col, err := eng.RunContext(ctx, until-eng.Tick())
	if ferr := o.finish(); err == nil {
		err = ferr
	}
	if err != nil || until < sc.Ticks {
		return eng, metrics.Result{}, err
	}
	res := col.Finalize(baseline)
	return eng, res, res.Valid()
}

// BaselinePower computes the scenario's no-management average power. The
// controller-free engine honors the scenario's shard setting — sharding never
// changes results, so the baseline is identical at any value, just faster on
// big fleets.
func BaselinePower(ctx context.Context, sc Scenario) (float64, error) {
	sc = sc.normalized()
	cl, err := sc.BuildCluster()
	if err != nil {
		return 0, err
	}
	eng := sim.New(cl)
	eng.Shards = sc.Shards
	if eng.Shards == 0 {
		eng.Shards = DefaultShards()
	}
	eng.Prof = DefaultProfiler()
	col, err := eng.RunContext(ctx, sc.Ticks)
	if err != nil {
		return 0, err
	}
	return col.Finalize(0).AvgPower, nil
}
