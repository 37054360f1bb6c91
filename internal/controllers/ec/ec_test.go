package ec

import (
	"sync"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/model"
	"nopower/internal/trace"
)

func testCluster(t *testing.T, n int, level float64) *cluster.Cluster {
	t.Helper()
	set := &trace.Set{Name: "t"}
	for i := 0; i < n; i++ {
		d := make([]float64, 2000)
		for k := range d {
			d[k] = level
		}
		set.Traces = append(set.Traces, &trace.Trace{Name: "w", Class: "flat", Demand: d})
	}
	cl, err := cluster.New(cluster.Config{
		Standalone: n, Model: model.BladeA(),
		CapOffGrp: 0.2, CapOffEnc: 0.15, CapOffLoc: 0.1,
		AlphaV: 0.1, AlphaM: 0.1, MigrationTicks: 5,
	}, set)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func run(cl *cluster.Cluster, c *Controller, ticks int) {
	for k := 0; k < ticks; k++ {
		c.Tick(k, cl)
		cl.Advance(k)
	}
}

func TestNewValidation(t *testing.T) {
	cl := testCluster(t, 1, 0.3)
	if _, err := New(cl, 0.8, 0.75, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := New(cl, -1, 0.75, 1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := New(cl, 0.8, 1.5, 1); err == nil {
		t.Error("initial r_ref above 1 accepted")
	}
}

// The EC's whole point: a lightly loaded server is driven down the P-state
// ladder until its utilization approaches the 75 % target.
func TestThrottlesLightLoad(t *testing.T) {
	cl := testCluster(t, 1, 0.3) // demand incl. overhead = 0.33
	c, err := New(cl, DefaultLambda, DefaultRRef, 1)
	if err != nil {
		t.Fatal(err)
	}
	run(cl, c, 200)
	// f* = 0.33/0.75 = 0.44 -> quantized to 533 MHz (P4, capacity 0.533).
	if cl.PState(0) != 4 {
		t.Errorf("P-state = %d, want 4", cl.PState(0))
	}
	if cl.Util(0) < 0.5 {
		t.Errorf("utilization %v did not rise toward the target", cl.Util(0))
	}
	if cl.Power(0) >= cl.ServerModel(0).Power(0, 0.33) {
		t.Error("throttling did not reduce power")
	}
}

// A heavily loaded server must be held at (or return to) P0.
func TestHeavyLoadRunsFullSpeed(t *testing.T) {
	cl := testCluster(t, 1, 0.9) // 0.99 demand incl. overhead
	c, _ := New(cl, DefaultLambda, DefaultRRef, 1)
	cl.SetPState(0, 4) // start throttled
	run(cl, c, 300)
	if cl.PState(0) != 0 {
		t.Errorf("P-state = %d, want 0 under heavy load", cl.PState(0))
	}
}

// SetRRef is the SM's coordination channel: raising the target must push the
// server down the ladder even at moderately high demand.
func TestSetRRefThrottles(t *testing.T) {
	cl := testCluster(t, 1, 0.7) // 0.77 with overhead
	c, _ := New(cl, DefaultLambda, DefaultRRef, 1)
	run(cl, c, 200)
	before := cl.PState(0) // f* = 0.77/0.75 ~ 1.0 -> P0
	c.SetRRef(0, 1.4)
	run(cl, c, 200)
	if cl.PState(0) <= before {
		t.Errorf("raising r_ref did not deepen the P-state (%d -> %d)",
			before, cl.PState(0))
	}
	if got := c.RRef(0); got != 1.4 {
		t.Errorf("RRef = %v", got)
	}
}

// Over-unity targets throttle even fully saturated servers — the mechanism
// behind bounded violations in the coordinated SM.
func TestOverUnityRRefThrottlesSaturated(t *testing.T) {
	cl := testCluster(t, 1, 1.2) // saturating demand
	c, _ := New(cl, DefaultLambda, DefaultRRef, 1)
	c.SetRRef(0, 1.4)
	run(cl, c, 300)
	deep := cl.ServerModel(0).NumPStates() - 1
	if cl.PState(0) != deep {
		t.Errorf("P-state = %d, want deepest %d", cl.PState(0), deep)
	}
}

func TestPeriodGating(t *testing.T) {
	cl := testCluster(t, 1, 0.3)
	c, _ := New(cl, DefaultLambda, DefaultRRef, 5)
	run(cl, c, 20)
	// 20 ticks at period 5 -> exactly 4 control actions on the one server.
	if c.Steps() != 4 {
		t.Errorf("Steps = %d, want 4", c.Steps())
	}
}

func TestSkipsOffServersAndResetsOnBoot(t *testing.T) {
	cl := testCluster(t, 2, 0.3)
	c, _ := New(cl, DefaultLambda, DefaultRRef, 1)
	run(cl, c, 200) // both throttled to P4
	// Evacuate and power server 1 down.
	if err := cl.Move(1, 0, 200); err != nil {
		t.Fatal(err)
	}
	if err := cl.PowerOff(1); err != nil {
		t.Fatal(err)
	}
	// Raise its loop target artificially; the reboot must reset it.
	c.SetRRef(1, 1.4)
	frozen := cl.PState(1)
	for k := 200; k < 250; k++ {
		c.Tick(k, cl)
		cl.Advance(k)
	}
	if cl.PState(1) != frozen {
		t.Errorf("EC touched an off server's P-state (%d -> %d)", frozen, cl.PState(1))
	}
	// Power it back on (cluster sets P0); the EC must restart from full
	// frequency with the default target instead of its stale state.
	if err := cl.Move(1, 1, 250); err != nil {
		t.Fatal(err)
	}
	c.Tick(250, cl)
	if got := c.RRef(1); got != DefaultRRef {
		t.Errorf("rebooted r_ref = %v, want %v", got, DefaultRRef)
	}
}

// Quantization must track the continuous loop: the chosen P-state is always
// the nearest one to the loop's frequency.
func TestQuantizationTracksLoop(t *testing.T) {
	cl := testCluster(t, 1, 0.5)
	c, _ := New(cl, DefaultLambda, DefaultRRef, 1)
	m := cl.ServerModel(0)
	for k := 0; k < 100; k++ {
		c.Tick(k, cl)
		want := m.Quantize(c.loops[0].F * m.MaxFreq())
		if cl.PState(0) != want {
			t.Fatalf("tick %d: P-state %d, quantized loop says %d", k, cl.PState(0), want)
		}
		cl.Advance(k)
	}
}

// concurrently is an AdvanceWith/TickShard dispatcher that runs every unit
// on its own goroutine, so the race detector sees the sharded path.
func concurrently(n int, fn func(u int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for u := 0; u < n; u++ {
		go func() {
			defer wg.Done()
			fn(u)
		}()
	}
	wg.Wait()
}

// The step count is kept per server and summed on read: sharded ticks must
// report exactly the serial count, off servers excluded, and the total must
// survive a State/Restore round trip into a controller with counts of its
// own.
func TestShardedStepsMatchSerial(t *testing.T) {
	const n, ticks = 45, 30 // three units: 20 + 20 + 5 servers
	serialCl, shardCl := testCluster(t, n, 0.3), testCluster(t, n, 0.3)
	for _, cl := range []*cluster.Cluster{serialCl, shardCl} {
		if err := cl.Move(7, 8, 0); err != nil {
			t.Fatal(err)
		}
		if err := cl.PowerOff(7); err != nil {
			t.Fatal(err)
		}
	}
	serial, _ := New(serialCl, DefaultLambda, DefaultRRef, 1)
	sharded, _ := New(shardCl, DefaultLambda, DefaultRRef, 1)
	units := shardCl.Units()
	for k := 0; k < ticks; k++ {
		serial.Tick(k, serialCl)
		serialCl.Advance(k)
		concurrently(len(units), func(u int) { sharded.TickShard(k, shardCl, units[u]) })
		shardCl.AdvanceWith(k, concurrently)
	}
	want := (n - 1) * ticks
	if got := serial.Steps(); got != want {
		t.Fatalf("serial Steps = %d, want %d", got, want)
	}
	if got := sharded.Steps(); got != want {
		t.Fatalf("sharded Steps = %d, want the serial %d", got, want)
	}

	data, err := sharded.State()
	if err != nil {
		t.Fatal(err)
	}
	restored, _ := New(serialCl, DefaultLambda, DefaultRRef, 1)
	concurrently(len(units), func(u int) { restored.TickShard(0, serialCl, units[u]) })
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if got := restored.Steps(); got != want {
		t.Fatalf("restored Steps = %d, want %d", got, want)
	}
	concurrently(len(units), func(u int) { restored.TickShard(ticks, serialCl, units[u]) })
	if got := restored.Steps(); got != want+n-1 {
		t.Errorf("Steps after one more sharded tick = %d, want %d", got, want+n-1)
	}
}
