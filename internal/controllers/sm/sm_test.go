package sm

import (
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/controllers/ec"
	"nopower/internal/model"
	"nopower/internal/trace"
)

func testCluster(t *testing.T, n int, level float64) *cluster.Cluster {
	t.Helper()
	set := &trace.Set{Name: "t"}
	for i := 0; i < n; i++ {
		d := make([]float64, 4000)
		for k := range d {
			d[k] = level
		}
		set.Traces = append(set.Traces, trace.New("w", "flat", d))
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

// runCoordinated wires SM -> EC (the paper's nesting) and runs the pair.
func runCoordinated(t *testing.T, cl *cluster.Cluster, ticks int) (*Controller, *ec.Controller) {
	t.Helper()
	ecc, err := ec.New(cl, ec.DefaultLambda, ec.DefaultRRef, 1)
	if err != nil {
		t.Fatal(err)
	}
	smc, err := New(cl, ecc, Coordinated, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < ticks; k++ {
		smc.Tick(k, cl)
		ecc.Tick(k, cl)
		cl.Advance(k)
	}
	return smc, ecc
}

func TestNewValidation(t *testing.T) {
	cl := testCluster(t, 1, 0.5)
	ecc, _ := ec.New(cl, 0.8, 0.75, 1)
	if _, err := New(cl, ecc, Coordinated, 0, 0); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := New(cl, nil, Coordinated, 0, 5); err == nil {
		t.Error("coordinated without EC accepted")
	}
	if _, err := New(cl, nil, Uncoordinated, 0, 5); err != nil {
		t.Errorf("uncoordinated without EC rejected: %v", err)
	}
	if _, err := New(cl, ecc, Coordinated, 0.001, 5); err != nil {
		t.Errorf("explicit beta rejected: %v", err)
	}
}

// The paper's lab-prototype observation, in simulation: under sustained high
// load the coordinated EC+SM bounds the violation (the over-unity r_ref
// throttle), while the uncoordinated pair struggles over the P-state and the
// violation persists — the path to thermal failover.
func TestThermalFailoverContrast(t *testing.T) {
	measure := func(coordinated bool) float64 {
		cl := testCluster(t, 1, 1.1) // saturating demand: P0 power 100 W > 90 W cap
		ecc, err := ec.New(cl, ec.DefaultLambda, ec.DefaultRRef, 1)
		if err != nil {
			t.Fatal(err)
		}
		mode := Uncoordinated
		var iface RRefSetter
		if coordinated {
			mode, iface = Coordinated, ecc
		}
		smc, err := New(cl, iface, mode, 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		over := 0
		const ticks = 2000
		for k := 0; k < ticks; k++ {
			if coordinated {
				smc.Tick(k, cl)
				ecc.Tick(k, cl)
			} else {
				ecc.Tick(k, cl)
				smc.Tick(k, cl)
			}
			cl.Advance(k)
			if cl.Power(0) > cl.StaticCap(0) {
				over++
			}
		}
		return float64(over) / ticks
	}
	coord := measure(true)
	uncoord := measure(false)
	if coord >= 0.5 {
		t.Errorf("coordinated violation duty %.2f not bounded", coord)
	}
	if uncoord <= coord {
		t.Errorf("uncoordinated duty %.2f should exceed coordinated %.2f", uncoord, coord)
	}
	if uncoord < 0.5 {
		t.Errorf("uncoordinated duty %.2f too low — the struggle should dominate", uncoord)
	}
}

// Under moderate load with a violated budget, the coordinated SM settles the
// server at a power at or under the cap.
func TestCoordinatedCapsModerateLoad(t *testing.T) {
	cl := testCluster(t, 1, 0.8) // 0.88 with overhead: P0 power = 95.2 > 90
	runCoordinated(t, cl, 3000)
	if cl.Power(0) > cl.StaticCap(0)*1.02 {
		t.Errorf("settled power %.1f W above cap %.1f W", cl.Power(0), cl.StaticCap(0))
	}
}

// With load far under the budget the SM must not throttle at all: r_ref
// rests at the 0.75 floor and the EC alone decides the P-state.
func TestCoordinatedIdleUnderCap(t *testing.T) {
	cl := testCluster(t, 1, 0.2)
	smc, ecc := runCoordinated(t, cl, 500)
	_ = smc
	if got := ecc.RRef(0); got != 0.75 {
		t.Errorf("r_ref = %v, want floor 0.75", got)
	}
}

// The min rule: when the EM/GM hand down a tighter dynamic cap, the SM
// enforces that instead of the static budget.
func TestCoordinatedHonorsDynCap(t *testing.T) {
	cl := testCluster(t, 1, 0.7) // P0 power ~90.8, under a 70 W dynamic cap
	cl.SetDynCap(0, 70)
	runCoordinated(t, cl, 3000)
	if cl.Power(0) > 70*1.05 {
		t.Errorf("settled power %.1f W above dynamic cap 70 W", cl.Power(0))
	}
}

// Uncoordinated mode ignores the min rule: a dynamic cap looser than the
// static budget wins (last writer), so the server runs hotter than its
// static budget allows.
func TestUncoordinatedLastWriterWins(t *testing.T) {
	cl := testCluster(t, 1, 1.1)
	cl.SetDynCap(0, 150) // a confused group capper wrote a loose cap
	smc, err := New(cl, nil, Uncoordinated, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 500; k++ {
		smc.Tick(k, cl)
		cl.Advance(k)
	}
	if cl.PState(0) != 0 {
		t.Errorf("P-state = %d; a 150 W cap should never throttle a 100 W server", cl.PState(0))
	}
	if cl.Power(0) <= cl.StaticCap(0) {
		t.Error("expected a static-budget violation under the loose dynamic cap")
	}
}

// The violation telemetry drains and resets.
func TestDrainViolations(t *testing.T) {
	cl := testCluster(t, 1, 1.1)
	smc, err := New(cl, nil, Uncoordinated, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	cl.Advance(0) // produce a violating sensor reading (P0, saturated)
	smc.Tick(5, cl)
	v, e := smc.DrainViolations()
	if v != 1 || e != 1 {
		t.Errorf("drain = %d/%d, want 1/1", v, e)
	}
	v, e = smc.DrainViolations()
	if v != 0 || e != 0 {
		t.Errorf("second drain = %d/%d, want 0/0", v, e)
	}
}

// Uncoordinated alone (no EC) acts as a plain hardware capper: it clamps a
// violating server deep enough to satisfy the budget and recovers later.
func TestUncoordinatedAloneCaps(t *testing.T) {
	cl := testCluster(t, 1, 1.1)
	smc, _ := New(cl, nil, Uncoordinated, 0, 5)
	for k := 0; k < 100; k++ {
		smc.Tick(k, cl)
		cl.Advance(k)
	}
	if cl.Power(0) > cl.StaticCap(0) {
		t.Errorf("hardware capper left power at %.1f W over the %.1f W cap", cl.Power(0), cl.StaticCap(0))
	}
}

func TestElectricalCapper(t *testing.T) {
	if _, err := NewElectricalCapper(0); err == nil {
		t.Error("zero budget accepted")
	}
	cl := testCluster(t, 1, 1.1)
	capper, err := NewElectricalCapper(75)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		capper.Tick(k, cl)
		cl.Advance(k)
	}
	if cl.Power(0) > 75 {
		t.Errorf("electrical capper left %.1f W over the 75 W fuse", cl.Power(0))
	}
	// An off server is ignored.
	if err := cl.Move(0, 0, 0); err != nil {
		t.Fatal(err)
	}
}
