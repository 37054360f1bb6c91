package main

import (
	"context"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"time"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/obs/prof"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// simWorkload is one engine run over a fleet-scale scenario.
type simWorkload struct {
	sc        experiments.Scenario // traces are synthesized at set-up
	spec      core.Spec
	shards    int
	serialRef bool // compare every run with one serial run
	// scenarios is how many scenarios, derived from the seed, the timed runs
	// cycle through. Where one scenario's cost depends on its seed, a run's
	// median over several tracks the workload rather than the seed.
	scenarios int
}

func fleetWorkload(cfg config) simWorkload {
	return simWorkload{
		sc: experiments.Scenario{Model: "BladeA", Mix: tracegen.ScaleMix(cfg.size.fleetServers),
			Budgets: experiments.Base201510(), Ticks: cfg.size.fleetTicks, Seed: cfg.seed},
		spec: core.NoVMC(), shards: workers, serialRef: true, scenarios: 1,
	}
}

// facilityWorkload cycles through eight scenarios: the cost of one VMC
// epoch depends on where the synchronized bursts stand when it falls, which
// the seed decides.
func facilityWorkload(cfg config) simWorkload {
	spec, err := core.SpecByName("facility")
	if err != nil {
		panic(err) // a preset name the core package defines
	}
	return simWorkload{
		sc: experiments.Scenario{Model: "BladeA", Mix: tracegen.AIBurstMix(cfg.size.facServers),
			Budgets: experiments.Base201510(), Ticks: cfg.size.facTicks, Seed: cfg.seed},
		spec: spec, shards: 1, scenarios: 8,
	}
}

// at returns the workload on its j-th scenario, seeded seed·scenarios + j,
// so different run seeds never share a scenario.
func (w simWorkload) at(j int) simWorkload {
	w.sc.Seed = w.sc.Seed*int64(w.scenarios) + int64(j)
	return w
}

// goldenKey names a scenario's entry in golden/seed42.json.
func goldenKey(sc experiments.Scenario) string { return fmt.Sprintf("seed %d", sc.Seed) }

// engine builds a fresh cluster and stack for sc. It first collects what the
// previous run left behind, so the heap a build grows into — and so the peak
// RSS — does not depend on when the collector last ran.
func (w simWorkload) engine(sc experiments.Scenario, shards int) (*sim.Engine, error) {
	runtime.GC()
	cl, err := sc.BuildCluster()
	if err != nil {
		return nil, err
	}
	return w.stack(cl, sc.Seed, shards)
}

// stack builds the controller stack, seeding it as experiments.RunObserved
// does.
func (w simWorkload) stack(cl *cluster.Cluster, seed int64, shards int) (*sim.Engine, error) {
	spec := w.spec
	if spec.Seed == 0 {
		spec.Seed = seed
	}
	spec.Shards = shards
	eng, _, err := core.Build(cl, spec)
	return eng, err
}

// setupTimes is one cold set-up split by layer, in seconds.
type setupTimes struct{ tracegen, cluster, core float64 }

func (s setupTimes) total() float64 { return s.tracegen + s.cluster + s.core }

// setup builds the workload from nothing — trace synthesis, the cluster,
// the stack — and returns the scenario with its traces filled in. The
// cluster time includes the deep copy of the traces Scenario.BuildCluster
// makes for every cluster. With a profiler it records one span per step.
func (w simWorkload) setup(p *prof.Profiler) (experiments.Scenario, *sim.Engine, setupTimes, error) {
	var st setupTimes
	runtime.GC()
	t0 := time.Now()
	set, err := tracegen.BuildMix(w.sc.Mix, w.sc.Ticks, w.sc.Seed)
	if err != nil {
		return w.sc, nil, st, err
	}
	t1 := time.Now()
	sc := w.sc
	sc.Traces = set
	cl, err := sc.BuildCluster()
	if err != nil {
		return sc, nil, st, err
	}
	t2 := time.Now()
	eng, err := w.stack(cl, sc.Seed, w.shards)
	if err != nil {
		return sc, nil, st, err
	}
	t3 := time.Now()
	st = setupTimes{t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()}
	if p != nil {
		record(p, "setup", 0, -1, t0, t3)
		record(p, "tracegen.build", 0, -1, t0, t1)
		record(p, "cluster.build", 0, -1, t1, t2)
		record(p, "core.build", 0, -1, t2, t3)
	}
	return sc, eng, st, nil
}

// record stores the wall-clock interval [from, to] in p, on p's clock.
func record(p *prof.Profiler, phase string, tick, shard int, from, to time.Time) {
	dur := int64(to.Sub(from))
	end := p.Now() - int64(time.Since(to))
	p.Record(tick, phase, shard, end-dur, dur)
}

// timedRun runs eng for ticks ticks and returns each tick's wall time in
// milliseconds, stamped from the engine's OnTick hook.
func timedRun(ctx context.Context, eng *sim.Engine, ticks int) (*metrics.Collector, []float64, error) {
	d := make([]float64, ticks)
	last := time.Now()
	eng.OnTick = func(k int, _ *cluster.Cluster) {
		now := time.Now()
		d[k] = float64(now.Sub(last)) / 1e6
		last = now
	}
	col, err := eng.RunContext(ctx, ticks)
	eng.OnTick = nil
	return col, d, err
}

// medianRun assembles the median run tick by tick: the sum over ticks of
// each tick's median time across runs, in milliseconds. A burst of load
// from elsewhere on the host slows the ticks it lands on in one run; the
// median across runs drops it, where the run's total would keep it.
func medianRun(runs [][]float64) float64 {
	if len(runs) == 0 {
		return 0
	}
	sum := 0.0
	col := make([]float64, len(runs))
	for k := range runs[0] {
		for i, d := range runs {
			col[i] = d[k]
		}
		sum += median(col)
	}
	return sum
}

// runSim measures a simulator workload: repeated cold set-ups, then engine
// runs until the window is used. A single-scenario workload synthesizes its
// traces once and rebuilds only the cluster before each run; one with
// several scenarios sets the next one up from nothing. Either way the
// rebuild is outside the timer. op_ms_p50 is the median run assembled tick
// by tick (medianRun); each run's total is kept as a sample.
func runSim(ctx context.Context, r *run, w simWorkload) error {
	if r.prof != nil {
		w0 := w.at(0)
		m, err := traceSim(ctx, r, w0, r.golden(goldenKey(w0.sc)))
		for k, v := range m {
			r.rep.Metrics[k] = v
		}
		return err
	}
	var sc experiments.Scenario
	n := 0
	err := r.repeat(func() (float64, error) {
		sc = experiments.Scenario{} // the previous set-up's traces are garbage now
		s, _, st, err := w.at(n % w.scenarios).setup(nil)
		n++
		sc = s
		return st.total(), err
	})
	if err != nil {
		return err
	}
	if w.scenarios > 1 {
		sc = experiments.Scenario{}
	}
	var ref map[string]string
	if w.serialRef {
		// One serial run outside the timer: the sharded runs must match it.
		eng, err := w.engine(sc, 1)
		if err != nil {
			return err
		}
		col, err := eng.RunContext(ctx, sc.Ticks)
		if err != nil {
			return fmt.Errorf("serial reference: %w", err)
		}
		ref = bits(col.Finalize(0))
	}
	firsts := make([]map[string]string, w.scenarios)
	var ticks [][]float64
	servers := 0
	err = r.timedOps(max(5, w.scenarios+1), func(i int) (float64, bool, error) {
		j := i % w.scenarios
		var eng *sim.Engine
		var err error
		if w.scenarios == 1 {
			eng, err = w.engine(sc, w.shards)
		} else {
			_, eng, _, err = w.at(j).setup(nil)
		}
		if err != nil {
			return 0, false, err
		}
		servers = eng.Cluster.NumServers()
		runtime.GC()
		col, d, err := timedRun(ctx, eng, w.sc.Ticks)
		if err != nil {
			return 0, false, err
		}
		ticks = append(ticks, d)
		ms := 0.0
		for _, v := range d {
			ms += v
		}
		got := bits(col.Finalize(0))
		ok := true
		if firsts[j] == nil {
			firsts[j] = got
		} else {
			ok = r.same(i, fmt.Sprintf("run %d, the same scenario", j), firsts[j], got)
		}
		if ref != nil {
			ok = r.same(i, "the serial reference run", ref, got) && ok
		}
		if gold := r.golden(goldenKey(w.at(j).sc)); gold != nil {
			ok = r.same(i, "golden/seed42.json", gold, got) && ok
		}
		return ms, ok, nil
	})
	r.rep.Metrics["op_ms_p50"] = medianRun(ticks)
	r.rep.Metrics["server_ticks_per_s"] = float64(servers*w.sc.Ticks) / (r.rep.Metrics["op_ms_p50"] / 1e3)
	return err
}

// gcCounters reads the process's cumulative heap allocation and GC cycles.
func gcCounters() (allocBytes, cycles uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// traceSim is the traced run of a simulator scenario: one traced set-up, one
// untraced engine run (the reference, and the GC and overhead baseline),
// then two traced runs through the bench-side step loop — at the workload's
// shard count and at the other of serial and two shards. Both must match
// the untraced run bit for bit, and each must leave a residual of at most
// 5% of its wall time outside the layer spans.
func traceSim(ctx context.Context, r *run, w simWorkload, gold map[string]string) (map[string]float64, error) {
	sc, eng, st, err := w.setup(r.prof)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	alloc0, gc0 := gcCounters()
	t0 := time.Now()
	col, err := eng.RunContext(ctx, sc.Ticks)
	untraced := time.Since(t0)
	alloc1, gc1 := gcCounters()
	if err != nil {
		return nil, fmt.Errorf("untraced run: %w", err)
	}
	want := bits(col.Finalize(0))
	ok := gold == nil || r.same(0, "golden/seed42.json", gold, want)
	r.op(ok)

	other := workers
	if w.shards > 1 {
		other = 1
	}
	lts := map[int]layerTimes{}
	for i, shards := range []int{w.shards, other} {
		eng, err := w.engine(sc, shards)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		res, lt, err := tracedRun(ctx, eng, sc.Ticks, shards, r.prof, fmt.Sprintf("run shards=%d", shards))
		if err != nil {
			return nil, err
		}
		lts[shards] = lt
		ok := r.same(i+1, "the untraced run", want, bits(res))
		if share := lt.residual(); share > 0.05 {
			r.errorf(i+1, "trace.residual_share = %.4f, over 0.05", share)
			ok = false
		}
		r.op(ok)
	}
	r.rep.Runs["traced"] = 2
	lt := lts[w.shards]
	m := layerMetrics(lt)
	m["tracegen.build_s"] = st.tracegen
	m["cluster.build_s"] = st.cluster
	m["core.build_ms"] = st.core * 1e3
	m["tracegen.share_of_run"] = st.tracegen / (st.total() + untraced.Seconds())
	m["gc.alloc_mb_per_run"] = float64(alloc1-alloc0) / (1 << 20)
	m["gc.cycles_per_run"] = float64(gc1 - gc0)
	m["trace.overhead"] = float64(lt.run)/float64(untraced) - 1
	m["cluster.shard_speedup"] = float64(lts[1].advance) / float64(lts[workers].advance)
	m["cluster.shard_imbalance"] = r.prof.ShardImbalance(phaseAdvanceWorker)
	return m, nil
}
