package chaos

import (
	"strings"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/sim"
	"nopower/internal/testutil"
)

func TestFlapServerSchedule(t *testing.T) {
	evs := FlapServer(1, 10, 5, 2)
	if len(evs) != 4 {
		t.Fatalf("events = %d, want 4", len(evs))
	}
	wantAt := []int{10, 15, 20, 25}
	for i, ev := range evs {
		if ev.At != wantAt[i] {
			t.Errorf("event %d at tick %d, want %d", i, ev.At, wantAt[i])
		}
	}
	cl := testutil.StandaloneCluster(t, 3, 100, 0.2)
	eng := sim.New(cl, sim.NewEventInjector(evs...))
	if _, err := eng.Run(12); err != nil {
		t.Fatal(err)
	}
	if cl.On(1) {
		t.Error("server on inside a fail window")
	}
	if _, err := eng.Run(5); err != nil {
		t.Fatal(err)
	}
	if !cl.On(1) {
		t.Error("server not restored after the fail window")
	}
}

func TestDropSensorsZeroesReadingsForOneTick(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 100, 0.5)
	cl.Advance(0)
	if cl.Power(0) == 0 {
		t.Fatal("fixture: expected nonzero power")
	}
	evs := DropSensors(1, 2, 0)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 (window of one tick)", len(evs))
	}
	evs[0].Apply(cl)
	if cl.Util(0) != 0 || cl.RealUtil(0) != 0 || cl.Power(0) != 0 {
		t.Errorf("readings not dropped: util %v realutil %v power %v", cl.Util(0), cl.RealUtil(0), cl.Power(0))
	}
	if cl.Power(1) == 0 {
		t.Error("dropout leaked onto an unlisted server")
	}
	// The plant recomputes true readings on the next Advance.
	cl.Advance(1)
	if cl.Power(0) == 0 {
		t.Error("dropout outlived its tick")
	}
}

func TestNoiseSensorsDeterministicAndBounded(t *testing.T) {
	run := func() []float64 {
		cl := testutil.StandaloneCluster(t, 2, 100, 0.5)
		eng := sim.New(cl, sim.NewEventInjector(NoiseSensors(1, 20, 0.3, 7)...))
		if _, err := eng.Run(20); err != nil {
			t.Fatal(err)
		}
		return []float64{cl.Power(0), cl.Power(1)}
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Errorf("noise not deterministic across runs: %v vs %v", a, b)
	}
	cl := testutil.StandaloneCluster(t, 1, 100, 0.9)
	cl.Advance(0)
	for _, ev := range NoiseSensors(0, 50, 0.5, 3) {
		ev.Apply(cl)
		if cl.Util(0) > 1 {
			t.Fatalf("noisy utilization %v above 1", cl.Util(0))
		}
	}
}

func TestFlapGroupBudget(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	base := cl.StaticCapGrp
	evs := FlapGroupBudget(2, 3, 2, 0.5, 1.0)
	eng := sim.New(cl, sim.NewEventInjector(evs...))
	if _, err := eng.Run(3); err != nil { // ticks 0-2: low fired at 2
		t.Fatal(err)
	}
	if got := cl.StaticCapGrp; got != 0.5*base {
		t.Errorf("low budget = %v, want %v", got, 0.5*base)
	}
	if _, err := eng.Run(3); err != nil { // high fired at 5
		t.Fatal(err)
	}
	if got := cl.StaticCapGrp; got != base {
		t.Errorf("restored budget = %v, want %v", got, base)
	}
	if _, err := eng.Run(6); err != nil { // second cycle: low at 8, high at 11
		t.Fatal(err)
	}
	if got := cl.StaticCapGrp; got != base {
		t.Errorf("final budget = %v, want %v (left at highFrac)", got, base)
	}
}

// traceableFS is a minimal controller with both tracer and fail-safe hooks.
type traceableFS struct {
	ticks, failsafes int
	tracer           obs.Tracer
}

func (c *traceableFS) Name() string                        { return "inner" }
func (c *traceableFS) Tick(k int, cl *cluster.Cluster)     { c.ticks++ }
func (c *traceableFS) SetTracer(t obs.Tracer)              { c.tracer = t }
func (c *traceableFS) FailSafe(k int, cl *cluster.Cluster) { c.failsafes++ }

func TestCrashWrapperForwardsAndDetonates(t *testing.T) {
	inner := &traceableFS{}
	wrapped := Crash(inner, 4)
	if wrapped.Name() != "inner" {
		t.Errorf("Name() = %q", wrapped.Name())
	}
	rec := obs.NewRingRecorder(8)
	wrapped.(sim.Traceable).SetTracer(rec)
	if inner.tracer == nil {
		t.Error("SetTracer not forwarded")
	}
	cl := testutil.StandaloneCluster(t, 1, 50, 0.2)
	wrapped.(sim.FailSafer).FailSafe(0, cl)
	if inner.failsafes != 1 {
		t.Error("FailSafe not forwarded")
	}

	eng := sim.New(cl, wrapped)
	eng.FaultPolicy = sim.FaultDegrade
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if inner.ticks != 4 {
		t.Errorf("inner ticked %d times, want 4 (crash at tick 4 pre-empts)", inner.ticks)
	}
	if got := eng.Disabled(); len(got) != 1 || got[0] != "inner" {
		t.Errorf("Disabled() = %v", got)
	}
	// After the crash, the engine drives the forwarded fail-safe each tick.
	if inner.failsafes < 6 {
		t.Errorf("fail-safe ran %d times, want >= 6", inner.failsafes)
	}
}

func TestCrashUnderFaultFailCarriesInjectedMessage(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 50, 0.2)
	eng := sim.New(cl, Crash(&traceableFS{}, 2))
	_, err := eng.Run(10)
	if err == nil || !strings.Contains(err.Error(), "injected crash") {
		t.Fatalf("err = %v, want the injected-crash panic", err)
	}
}

func TestCrashByName(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 50, 0.2)
	inner := &traceableFS{}
	eng := sim.New(cl, inner)
	if CrashByName(eng, "nope", 1) {
		t.Error("unknown name matched")
	}
	if !CrashByName(eng, "inner", 1) {
		t.Fatal("known name not matched")
	}
	eng.FaultPolicy = sim.FaultDegrade
	if _, err := eng.Run(5); err != nil {
		t.Fatal(err)
	}
	if len(eng.Disabled()) != 1 {
		t.Error("crash wrapper not installed in the stack")
	}
}

// epochalGauged is a controller with an epoch, its own gauges, and a
// sharded law — the hooks a crash wrapper must forward (or, for the sharded
// law, must not).
type epochalGauged struct {
	reg    *obs.Registry
	wired  bool
	ticks  int
	shards int
}

func (c *epochalGauged) Name() string                           { return "epochal" }
func (c *epochalGauged) Tick(k int, cl *cluster.Cluster)        { c.ticks++ }
func (c *epochalGauged) EpochPeriod() int                       { return 5 }
func (c *epochalGauged) SetMetrics(reg *obs.Registry)           { c.reg, c.wired = reg, true }
func (c *epochalGauged) TickShard(int, *cluster.Cluster, []int) { c.shards++ }

// The wrapper forwards the metrics hook and the epoch period, so a crashing
// FM still publishes its gauges before the crash and the profiler records the
// wrapped law once per epoch; it hides the sharded law so the crash goes
// through Tick.
func TestCrashWrapperForwardsMetricsAndEpoch(t *testing.T) {
	inner := &epochalGauged{}
	wrapped := Crash(inner, 100)
	if _, ok := wrapped.(sim.ShardTicker); ok {
		t.Error("wrapper exposes TickShard: a sharded engine would bypass the crash")
	}
	cl := testutil.StandaloneCluster(t, 2, 50, 0.2)
	eng := sim.New(cl, wrapped)
	eng.Metrics = obs.NewRegistry()
	eng.Prof = prof.New(1 << 10)
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if !inner.wired || inner.reg != eng.Metrics {
		t.Error("SetMetrics not forwarded: the wrapped controller's gauges never reach the registry")
	}
	spans := 0
	for _, s := range eng.Prof.Spans() {
		if s.Phase == prof.CtlPrefix+"epochal" {
			spans++
		}
	}
	if spans != 2 {
		t.Errorf("profiler recorded %d ctl.epochal spans over 10 ticks, want 2 (one per 5-tick epoch)", spans)
	}
}
