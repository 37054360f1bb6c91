package platform

import (
	"testing"
)

func TestNewRackValidation(t *testing.T) {
	if _, err := NewRack(0, 100, 1, 1, 0.2, 0.1); err == nil {
		t.Error("zero platforms accepted")
	}
	r, err := NewRack(5, 100, 1, 1, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Platforms) != 5 || len(r.Controllers) != 5 || len(r.Workloads) != 5 {
		t.Fatalf("rack shape: %d/%d/%d", len(r.Platforms), len(r.Controllers), len(r.Workloads))
	}
	max := r.Platforms[0].MaxPower()
	if diff := r.StaticLocal - 0.9*max; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("local budget = %v", r.StaticLocal)
	}
	if diff := r.StaticBudget - 0.8*5*max; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("rack budget = %v", r.StaticBudget)
	}
}

func TestRackRunValidation(t *testing.T) {
	r, _ := NewRack(2, 50, 1, 1, 0.2, 0.1)
	if _, err := r.Run(0, 10); err == nil {
		t.Error("zero ticks accepted")
	}
	if _, err := r.Run(10, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestRackHoldsBudgets(t *testing.T) {
	// High demand pressing against the budgets: the nested MIMO + rack
	// re-provisioning must keep the rack essentially always under budget
	// (the capper is proactive — it projects before installing states).
	r, err := NewRack(8, 400, 3, 2.0, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(400, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.RackViolations > 0.05 {
		t.Errorf("rack violations %.3f — nested capping failed", res.RackViolations)
	}
	if res.AvgServed <= 0.3 {
		t.Errorf("served %.3f — over-throttled", res.AvgServed)
	}
	if res.AvgPower <= 0 || res.AvgPower > r.StaticBudget*1.05 {
		t.Errorf("avg power %.1f vs budget %.1f", res.AvgPower, r.StaticBudget)
	}
}

// The rack manager divides into its own buffers, so an epoch after the
// first allocates nothing.
func TestRackEpochAllocatesNothing(t *testing.T) {
	r, err := NewRack(8, 50, 1, 1, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lastPower := make([]float64, len(r.Platforms))
	for i := range lastPower {
		lastPower[i] = 10 * float64(i+1)
	}
	r.reprovision(lastPower) // sizes the buffers
	if n := testing.AllocsPerRun(20, func() { r.reprovision(lastPower) }); n != 0 {
		t.Errorf("a rack epoch makes %v allocations", n)
	}
}

func TestRackServesLightLoadFully(t *testing.T) {
	r, err := NewRack(4, 300, 5, 0.5, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgServed < 0.99 {
		t.Errorf("light load served %.3f, want ~1", res.AvgServed)
	}
	if res.RackViolations != 0 {
		t.Errorf("light load violated the rack budget %.3f of the time", res.RackViolations)
	}
}

// Tighter rack budgets must not increase the served fraction.
func TestRackBudgetMonotonicity(t *testing.T) {
	served := func(offRack float64) float64 {
		r, err := NewRack(6, 300, 9, 1.8, offRack, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(300, 10)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgServed
	}
	loose := served(0.10)
	tight := served(0.45)
	if tight > loose+1e-9 {
		t.Errorf("tighter rack budget served more: %.3f vs %.3f", tight, loose)
	}
}

func TestDemandAggregationUsesWeights(t *testing.T) {
	r, err := NewRack(5, 50, 1, 1, 0.2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Platform 1 hosts the "db" class (weights 0.8/1.0/0.9): its memory
	// demand must exceed its CPU demand scaled accordingly.
	d := r.demandAt(1, 0)
	scalar := r.Workloads[1].Trace.At(0)
	if scalar == 0 {
		t.Skip("zero demand sample")
	}
	if d[0] != scalar*0.8 || d[1] != scalar*1.0 || d[2] != scalar*0.9 {
		t.Errorf("db demand vector = %v for scalar %v", d, scalar)
	}
}
