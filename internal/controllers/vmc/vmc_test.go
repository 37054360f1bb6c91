package vmc

import (
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/testutil"
)

// cfg returns a fast-epoch coordinated configuration for tests: the three
// coordination interfaces on, machines allowed off, a 50-tick epoch.
func cfg() Config {
	return Config{Period: 50, SamplePeriod: 5, UseRealUtil: true, UseBudgets: true,
		UseFeedback: true, AllowOff: true, PackFraction: 0.85, Headroom: 0.5}
}

// run drives the VMC alone against the plant.
func run(t *testing.T, cl *cluster.Cluster, c *Controller, ticks int) {
	t.Helper()
	for k := 0; k < ticks; k++ {
		c.Tick(k, cl)
		cl.Advance(k)
		if err := cl.CheckInvariants(); err != nil {
			t.Fatalf("tick %d: %v", k, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	bad := []Config{
		{Period: 0, PackFraction: 0.8},
		{Period: 10, PackFraction: 0},
		{Period: 10, PackFraction: 1.5},
	}
	for i, c := range bad {
		if _, err := New(cl, c); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := New(cl, cfg()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// The headline behaviour: light workloads consolidate onto few machines and
// the emptied ones power off.
func TestConsolidatesAndPowersOff(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 10, 500, 0.15)
	c, err := New(cl, cfg())
	if err != nil {
		t.Fatal(err)
	}
	run(t, cl, c, 200)
	// 10 x ~0.17 demand fits on a couple of machines.
	if on := cl.OnCount(); on > 4 {
		t.Errorf("%d servers still on, want <= 4", on)
	}
	if c.Migrations() == 0 {
		t.Error("no migrations recorded")
	}
}

func TestAllowOffFalseKeepsMachinesOn(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 10, 500, 0.15)
	conf := cfg()
	conf.AllowOff = false
	c, _ := New(cl, conf)
	run(t, cl, c, 200)
	if on := cl.OnCount(); on != 10 {
		t.Errorf("%d servers on, want all 10 with AllowOff=false", on)
	}
}

// Real-utilization correction: when hosts are throttled (deep P-state), the
// apparent reading overstates demand and blocks consolidation; the real
// reading sees through it. This is the paper's first VMC coordination fix.
func TestRealUtilSeesThroughThrottling(t *testing.T) {
	count := func(useReal bool) int {
		cl := testutil.StandaloneCluster(t, 10, 500, 0.3)
		for i := 0; i < cl.NumServers(); i++ {
			cl.SetPState(i, 4) // throttled: capacity 0.533, apparent util ~0.62
		}
		conf := cfg()
		conf.UseRealUtil = useReal
		conf.UseBudgets = false
		conf.UseFeedback = false
		c, err := New(cl, conf)
		if err != nil {
			t.Fatal(err)
		}
		// Freeze P-states (no EC in this test): the VMC must judge demand
		// from what it observes on throttled hosts.
		for k := 0; k < 60; k++ {
			c.Tick(k, cl)
			cl.Advance(k)
		}
		return cl.OnCount()
	}
	real := count(true)
	apparent := count(false)
	if real >= apparent {
		t.Errorf("real-util consolidation (%d on) should beat apparent (%d on)", real, apparent)
	}
}

// Budget constraints keep the packing honest: with tight budgets the VMC
// opens more machines rather than cramming one over its power cap.
func TestBudgetConstraintsLimitPacking(t *testing.T) {
	countOn := func(useBudgets bool) int {
		cl := testutil.StandaloneCluster(t, 8, 500, 0.4)
		conf := cfg()
		conf.UseBudgets = useBudgets
		conf.UseFeedback = false
		conf.AssumeEC = false // plain P0 power model
		c, _ := New(cl, conf)
		run2 := func() {
			for k := 0; k < 120; k++ {
				c.Tick(k, cl)
				cl.Advance(k)
			}
		}
		run2()
		return cl.OnCount()
	}
	with := countOn(true)
	without := countOn(false)
	if with < without {
		t.Errorf("budget-constrained packing (%d on) cannot be denser than unconstrained (%d on)", with, without)
	}
}

// Feedback: sustained violations raise the buffers; quiet periods decay them.
type fakeViolations struct{ v, e int }

func (f *fakeViolations) DrainViolations() (int, int) { return f.v, f.e }

func TestFeedbackBuffers(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 4, 500, 0.2)
	conf := cfg()
	c, _ := New(cl, conf)
	src := &fakeViolations{v: 5, e: 10}
	c.AttachViolationSources(src, nil, nil)

	cl.Advance(0)
	c.updateBuffers()
	bLoc, bEnc, bGrp := c.Buffers()
	if bLoc <= 0 {
		t.Error("violations did not raise b_loc")
	}
	if bEnc != 0 || bGrp != 0 {
		t.Error("nil sources should leave their buffers at zero")
	}
	// Saturation at BufferMax.
	for i := 0; i < 50; i++ {
		c.updateBuffers()
	}
	bLoc, _, _ = c.Buffers()
	if bLoc > bufferMax {
		t.Errorf("b_loc %.3f above max %.3f", bLoc, bufferMax)
	}
	// Decay when quiet.
	src.v = 0
	before := bLoc
	c.updateBuffers()
	bLoc, _, _ = c.Buffers()
	if bLoc >= before {
		t.Error("quiet epoch did not decay b_loc")
	}
}

// The §7 performance-headroom buffer: SLO-miss telemetry shrinks the
// effective pack fraction, spreading load across more machines.
func TestPerfBufferSpreadsLoad(t *testing.T) {
	onCount := func(withPerfSource bool) int {
		cl := testutil.StandaloneCluster(t, 8, 500, 0.25)
		conf := cfg()
		conf.UseBudgets = false
		c, _ := New(cl, conf)
		if withPerfSource {
			src := &fakeViolations{v: 8, e: 10} // persistent SLO misses
			c.AttachPerfSource(src)
		}
		for k := 0; k < 300; k++ {
			c.Tick(k, cl)
			cl.Advance(k)
		}
		return cl.OnCount()
	}
	without := onCount(false)
	with := onCount(true)
	if with < without {
		t.Errorf("perf buffer packed denser (%d on) than baseline (%d on)", with, without)
	}
	// The buffer itself must have moved.
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	c, _ := New(cl, cfg())
	c.AttachPerfSource(&fakeViolations{v: 5, e: 5})
	cl.Advance(0)
	c.updateBuffers()
	if c.PerfBuffer() <= 0 {
		t.Error("b_perf did not rise under SLO misses")
	}
}

// The estimator learns demand: after sampling a steady workload, estimates
// land near the true (overhead-inflated) demand.
func TestEstimatorConverges(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 500, 0.3)
	c, _ := New(cl, cfg())
	for k := 0; k < 100; k++ {
		c.Tick(k, cl)
		cl.Advance(k)
	}
	for i, est := range c.Estimates(cl) {
		want := 0.3 * 1.1
		if est < want*0.9 || est > want*1.4 {
			t.Errorf("vm %d estimate %.3f far from true demand %.3f", i, est, want)
		}
	}
}

// Zero-tick skip: the VMC must not repack before any sensor data exists.
func TestNoRepackAtTickZero(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 5, 100, 0.2)
	c, _ := New(cl, cfg())
	c.Tick(0, cl)
	if c.Migrations() != 0 || cl.OnCount() != 5 {
		t.Error("VMC acted before the first plant advance")
	}
}

// The information loss behind the vicious cycle (§2.3, third example): on a
// power-capped, SATURATED server the utilization sensor cannot read more
// than the throttled capacity, so the estimator's total for the resident
// VMs collapses to ~capacity regardless of true demand — and the packer,
// seeing "light" VMs, keeps the overcommitted placement instead of
// spreading it. The same VMs spread one-per-unthrottled-host estimate at
// their true demand.
func TestSaturatedSensorUnderReads(t *testing.T) {
	// Three hot VMs (true 0.44 each incl. overhead, 1.32 total) crammed on
	// one host throttled to capacity 0.533.
	cl := testutil.StandaloneCluster(t, 3, 500, 0.4)
	if err := cl.Move(1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Move(2, 0, 0); err != nil {
		t.Fatal(err)
	}
	cl.SetPState(0, 4)
	conf := cfg()
	conf.UseBudgets = false
	conf.UseFeedback = false
	conf.AllowOff = false
	c, _ := New(cl, conf)
	for k := 0; k < 120; k++ {
		c.Tick(k, cl)
		cl.Advance(k)
		cl.SetPState(0, 4) // hold the throttle (the SM's role)
	}
	sum := 0.0
	for _, est := range c.Estimates(cl) {
		sum += est
	}
	if sum > 0.533*1.3 {
		t.Errorf("saturated estimates sum %.2f — sensor should cap near capacity 0.533", sum)
	}
	if sum > 1.0 {
		t.Errorf("estimates %.2f do not exhibit the under-read (true demand 1.32)", sum)
	}
	// Consequence: the packer sees no reason to spread — the overcommitted
	// host keeps all three VMs.
	if len(cl.ServerVMs(0)) != 3 {
		t.Errorf("naive packer spread the VMs (%d left) — expected the vicious placement to stick",
			len(cl.ServerVMs(0)))
	}

	// Control: the same VMs spread on unthrottled hosts estimate truthfully.
	cl2 := testutil.StandaloneCluster(t, 3, 500, 0.4)
	c2, _ := New(cl2, conf)
	for k := 0; k < 120; k++ {
		c2.Tick(k, cl2)
		cl2.Advance(k)
	}
	for i, est := range c2.Estimates(cl2) {
		if est < 0.4 || est > 0.6 {
			t.Errorf("spread vm %d estimate %.2f far from true 0.44", i, est)
		}
	}
}

// Unplaced accounting: items too large for any bin stay put and are counted.
func TestUnplacedOversizedItems(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 500, 1.2) // saturating VMs
	conf := cfg()
	conf.UseBudgets = false
	c, _ := New(cl, conf)
	run(t, cl, c, 120)
	if c.Unplaced() == 0 {
		t.Error("oversized items should be reported unplaced")
	}
	if cl.OnCount() != 3 {
		t.Errorf("%d servers on, want all 3 (nothing consolidatable)", cl.OnCount())
	}
}
