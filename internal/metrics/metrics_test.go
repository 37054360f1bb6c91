package metrics

import (
	"math"
	"strings"
	"testing"

	"nopower/internal/testutil"
)

func TestEmptyCollector(t *testing.T) {
	var c Collector
	r := c.Finalize(100)
	if r.Ticks != 0 || r.AvgPower != 0 || r.PowerSavings != 0 {
		t.Errorf("empty collector result: %+v", r)
	}
	if err := r.Valid(); err != nil {
		t.Errorf("empty result invalid: %v", err)
	}
}

func TestPowerAccounting(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 10, 0.5)
	var c Collector
	for k := 0; k < 4; k++ {
		cl.Advance(k)
		c.Observe(cl)
	}
	r := c.Finalize(0)
	wantAvg := cl.GroupPower // constant demand -> constant power
	if math.Abs(r.AvgPower-wantAvg) > 1e-9 {
		t.Errorf("AvgPower = %v, want %v", r.AvgPower, wantAvg)
	}
	if r.PeakPower != wantAvg {
		t.Errorf("PeakPower = %v", r.PeakPower)
	}
	if r.Ticks != 4 {
		t.Errorf("Ticks = %d", r.Ticks)
	}
	if r.PowerSavings != 0 {
		t.Error("savings reported without a baseline")
	}
}

func TestSavingsAgainstBaseline(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 10, 0.5)
	var c Collector
	cl.Advance(0)
	c.Observe(cl)
	avg := cl.GroupPower
	r := c.Finalize(2 * avg)
	if math.Abs(r.PowerSavings-0.5) > 1e-12 {
		t.Errorf("PowerSavings = %v, want 0.5", r.PowerSavings)
	}
}

func TestPerfLossAccounting(t *testing.T) {
	// Saturating demand at the deepest P-state loses a known fraction.
	cl := testutil.StandaloneCluster(t, 1, 10, 1.0)
	cl.SetPState(0, 4) // capacity 0.533 vs demand 1.1
	var c Collector
	cl.Advance(0)
	c.Observe(cl)
	r := c.Finalize(0)
	served := 0.533 / 1.1
	want := 1 - served
	if math.Abs(r.PerfLoss-want) > 1e-9 {
		t.Errorf("PerfLoss = %v, want %v", r.PerfLoss, want)
	}
}

func TestViolationRates(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 10, 1.0) // P0 saturated: 100 W > 90 W cap
	var c Collector
	for k := 0; k < 5; k++ {
		cl.Advance(k)
		c.Observe(cl)
	}
	r := c.Finalize(0)
	if r.ViolSM != 1 {
		t.Errorf("ViolSM = %v, want 1 (all server-ticks violate)", r.ViolSM)
	}
	if r.ViolGM != 1 {
		t.Errorf("ViolGM = %v, want 1", r.ViolGM)
	}
	if r.ViolEM != 0 {
		t.Errorf("ViolEM = %v, want 0 (no enclosures)", r.ViolEM)
	}
	if r.ViolSMWatts <= 0 {
		t.Error("overshoot magnitude missing")
	}
}

func TestViolationDenominatorExcludesOffServers(t *testing.T) {
	// Regression for the §4.2 definition: ViolSM is the percentage of
	// CONTROLLER intervals in violation, and an off server has no controller
	// interval. With half the cluster powered down, the denominator must be
	// the powered half only — the old all-server-ticks denominator diluted
	// the rate to 0.5 here.
	cl := testutil.StandaloneCluster(t, 4, 10, 1.0) // P0 saturated: over cap
	for _, vm := range []int{0, 1} {
		if err := cl.Move(vm, vm+2, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, srv := range []int{0, 1} {
		if err := cl.PowerOff(srv); err != nil {
			t.Fatal(err)
		}
	}
	var c Collector
	cl.Advance(0)
	c.Observe(cl)
	r := c.Finalize(0)
	// Both powered servers violate (two stacked saturated workloads each), so
	// the rate over powered server-ticks is exactly 1.
	if math.Abs(r.ViolSM-1) > 1e-12 {
		t.Errorf("ViolSM = %v, want 1 (off servers must not dilute the rate)", r.ViolSM)
	}
	if r.AvgServersOn != 2 {
		t.Errorf("AvgServersOn = %v", r.AvgServersOn)
	}
}

func TestEnclosureViolations(t *testing.T) {
	cl := testutil.EnclosureCluster(t, 1, 2, 0, 10, 1.0)
	var c Collector
	cl.Advance(0)
	c.Observe(cl)
	r := c.Finalize(0)
	// 200 W > 170 W enclosure budget.
	if r.ViolEM != 1 {
		t.Errorf("ViolEM = %v, want 1", r.ViolEM)
	}
}

func TestValidCatchesGarbage(t *testing.T) {
	bad := Result{PerfLoss: 1.5}
	if err := bad.Valid(); err == nil {
		t.Error("PerfLoss > 1 accepted")
	}
	bad = Result{ViolSM: math.NaN()}
	if err := bad.Valid(); err == nil {
		t.Error("NaN accepted")
	}
	bad = Result{AvgPower: 100, PeakPower: 50}
	if err := bad.Valid(); err == nil {
		t.Error("peak < avg accepted")
	}
}

func TestStringFormat(t *testing.T) {
	r := Result{AvgPower: 123.4, PeakPower: 200, PowerSavings: 0.5, PerfLoss: 0.03}
	s := r.String()
	for _, frag := range []string{"123", "200", "50.0%", "3.0%"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}

// Result.Diff is bitwise: −0 and +0 differ, where == calls them equal, and
// two identical NaNs agree, where == calls them different.
func TestResultDiffIsBitwise(t *testing.T) {
	a := Result{Ticks: 10, AvgPower: 100, PerfLoss: 0}
	b := a
	b.PerfLoss = math.Copysign(0, -1)
	if a != b {
		t.Fatal("== should call -0 and +0 equal (the premise of this test)")
	}
	if d := a.Diff(b); d != "PerfLoss: 0 vs -0" {
		t.Errorf("-0 vs +0: Diff = %q, want %q", d, "PerfLoss: 0 vs -0")
	}
	a.ViolSMWatts, b.ViolSMWatts = math.NaN(), math.NaN()
	b.PerfLoss = 0
	if a == b {
		t.Fatal("== should call NaN and NaN different (the premise of this test)")
	}
	if d := a.Diff(b); d != "" {
		t.Errorf("identical NaNs: Diff = %q, want equal", d)
	}
	b.Ticks = 11
	if d := a.Diff(b); d != "Ticks: 10 vs 11" {
		t.Errorf("ticks: Diff = %q", d)
	}
}
