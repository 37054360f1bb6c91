package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClamp(t *testing.T) {
	cases := []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5}, {-1, 0, 10, 0}, {11, 0, 10, 10}, {0, 0, 10, 0}, {10, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.v, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.v, c.lo, c.hi, got, c.want)
		}
	}
}

func TestNewUtilizationLoopValidation(t *testing.T) {
	cases := []struct{ lambda, rRef, fMin, fMax float64 }{
		{0, 0.75, 500, 1000},   // zero gain
		{-1, 0.75, 500, 1000},  // negative gain
		{0.8, 0, 500, 1000},    // r_ref at 0
		{0.8, 1, 500, 1000},    // r_ref at 1
		{0.8, 0.75, 0, 1000},   // fMin 0
		{0.8, 0.75, 1000, 500}, // inverted range
	}
	for _, c := range cases {
		if _, err := NewUtilizationLoop(c.lambda, c.rRef, c.fMin, c.fMax); err == nil {
			t.Errorf("NewUtilizationLoop(%+v) should fail", c)
		}
	}
	if _, err := NewUtilizationLoop(0.8, 0.75, 500, 1000); err != nil {
		t.Errorf("valid loop rejected: %v", err)
	}
}

// Appendix A, Proposition A: for constant demand and 0 < λ < 1/r_ref the EC
// drives utilization to r_ref (frequency to f_D/r_ref).
func TestECConvergesToTarget(t *testing.T) {
	for _, rRef := range []float64{0.5, 0.75, 0.9} {
		for _, fD := range []float64{100, 300, 600} {
			u, err := NewUtilizationLoop(0.5/rRef, rRef, 1, 1000) // half the 1/r_ref bound
			if err != nil {
				t.Fatal(err)
			}
			plant := FrequencyPlant{FD: fD}
			for k := 0; k < 400; k++ {
				r, fC := plant.Observe(u.F)
				u.StepEC(r, fC)
			}
			want := plant.SteadyStateFrequency(rRef)
			if want > 1000 {
				want = 1000 // saturates at fMax; utilization stays below target
			}
			if math.Abs(u.F-want) > 1e-3*want {
				t.Errorf("r_ref=%v fD=%v: f converged to %v, want %v", rRef, fD, u.F, want)
			}
		}
	}
}

// Demand above capacity pins the loop at fMax (r = 1 > r_ref pushes f up).
func TestECSaturatesAtMaxFrequency(t *testing.T) {
	u, _ := NewUtilizationLoop(0.6, 0.75, 100, 1000)
	u.F = 500
	plant := FrequencyPlant{FD: 2000}
	for k := 0; k < 200; k++ {
		r, fC := plant.Observe(u.F)
		u.StepEC(r, fC)
	}
	if u.F != 1000 {
		t.Errorf("f = %v, want saturation at 1000", u.F)
	}
}

// Demand far below what the floor frequency serves at r_ref drives the loop
// to fMin. (Exactly-zero demand is a degenerate fixed point of the paper's
// law — the self-tuning gain is proportional to consumption — so we use a
// small positive demand, as the Appendix-A proof does.)
func TestECIdlesAtMinFrequency(t *testing.T) {
	u, _ := NewUtilizationLoop(0.6, 0.75, 100, 1000)
	plant := FrequencyPlant{FD: 30}
	for k := 0; k < 200; k++ {
		r, fC := plant.Observe(u.F)
		u.StepEC(r, fC)
	}
	if u.F != 100 {
		t.Errorf("f = %v, want floor 100", u.F)
	}
}

// Property-based Appendix-A check: random demand and gain within the global
// stability bound always converge; the utilization error vanishes.
func TestECStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rRef := 0.3 + 0.6*rng.Float64()          // (0.3, 0.9)
		lambda := (0.05 + 0.9*rng.Float64()) / 1 // keep < 1/r_ref: scale below
		lambda = lambda * (1 / rRef) * 0.95
		fD := 50 + 600*rng.Float64()
		u, err := NewUtilizationLoop(lambda, rRef, 1, 1000)
		if err != nil {
			return false
		}
		plant := FrequencyPlant{FD: fD}
		for k := 0; k < 2000; k++ {
			r, fC := plant.Observe(u.F)
			u.StepEC(r, fC)
		}
		r, _ := plant.Observe(u.F)
		want := plant.SteadyStateFrequency(rRef)
		if want >= 1000 { // saturated: utilization ends above target
			return u.F == 1000
		}
		return math.Abs(r-rRef) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// A gain far beyond the local bound 2/r_ref oscillates instead of converging
// — the reason the paper bounds λ.
func TestECUnstableGainOscillates(t *testing.T) {
	rRef := 0.75
	u, _ := NewUtilizationLoop(6/rRef, rRef, 1, 100000)
	plant := FrequencyPlant{FD: 300}
	// Start near (not at) the fixed point and watch divergence.
	u.F = plant.SteadyStateFrequency(rRef) * 1.05
	diverged := false
	for k := 0; k < 200; k++ {
		r, fC := plant.Observe(u.F)
		u.StepEC(r, fC)
		if err := math.Abs(u.F - plant.SteadyStateFrequency(rRef)); err > 0.5*plant.SteadyStateFrequency(rRef) {
			diverged = true
		}
	}
	if !diverged {
		t.Error("gain above the stability bound did not destabilize the loop")
	}
}

func TestECSetReferenceClamps(t *testing.T) {
	u, _ := NewUtilizationLoop(0.5, 0.75, 1, 1000)
	u.SetReference(5.0)
	if u.Reference() > MaxRRef {
		t.Errorf("r_ref %v not clamped to MaxRRef", u.Reference())
	}
	u.SetReference(-3)
	if u.Reference() <= 0 {
		t.Errorf("r_ref %v not clamped above 0", u.Reference())
	}
	u.SetReference(0.8)
	if u.Reference() != 0.8 {
		t.Errorf("r_ref = %v, want 0.8", u.Reference())
	}
	// Targets above 1 are legal — the SM's saturated-server throttle.
	u.SetReference(1.3)
	if u.Reference() != 1.3 {
		t.Errorf("r_ref = %v, want 1.3", u.Reference())
	}
}

// With a saturated plant (r pinned at 1), a target above 1 must drive the
// frequency down the ladder — the coordinated SM's only throttle path.
func TestECOverUnityTargetThrottlesSaturatedPlant(t *testing.T) {
	u, _ := NewUtilizationLoop(0.6, 0.75, 100, 1000)
	u.SetReference(1.4)
	plant := FrequencyPlant{FD: 5000} // hopelessly oversubscribed
	for k := 0; k < 200; k++ {
		r, fC := plant.Observe(u.F)
		u.StepEC(r, fC)
	}
	if u.F != 100 {
		t.Errorf("f = %v, want floor 100 under saturation with r_ref > 1", u.F)
	}
}

func TestNewCappingLoopValidation(t *testing.T) {
	cases := []struct{ beta, cap, lo, hi float64 }{
		{0, 90, 0.75, 0.99}, // zero gain
		{1, 0, 0.75, 0.99},  // zero cap
		{1, 90, 0, 0.99},    // floor 0
		{1, 90, 0.99, 0.75}, // inverted
		{1, 90, 0.75, 2.5},  // ceiling above MaxRRef
	}
	for _, c := range cases {
		if _, err := NewCappingLoop(c.beta, c.cap, c.lo, c.hi); err == nil {
			t.Errorf("NewCappingLoop(%+v) should fail", c)
		}
	}
	if _, err := NewCappingLoop(0.01, 90, 0.75, 0.99); err != nil {
		t.Errorf("valid loop rejected: %v", err)
	}
}

// Appendix A SM result: pow(k̂) = (1−βc)·pow(k̂−1) + βc·cap converges to cap
// for 0 < β < 2/c. We close the loop against the linearized power plant.
func TestSMConvergesPowerToCap(t *testing.T) {
	plant := PowerPlant{C: 60, D: 140} // pow(0.75)=95, pow(0.99)=80.6
	cap := 90.0
	beta := DefaultBeta(plant.C)
	sm, err := NewCappingLoop(beta, cap, 0.5, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	pow := plant.Power(sm.RRef)
	for k := 0; k < 300; k++ {
		rRef := sm.Step(pow)
		pow = plant.Power(rRef)
	}
	if math.Abs(pow-cap) > 1e-6 {
		t.Errorf("power converged to %v, want cap %v", pow, cap)
	}
}

// When even the max r_ref cannot reach the cap, the loop saturates at the
// ceiling (maximum throttle) — a bounded, not divergent, response.
func TestSMSaturatesWhenCapUnreachable(t *testing.T) {
	plant := PowerPlant{C: 10, D: 200} // power in [190.1, 192.5] over r_ref range
	sm, _ := NewCappingLoop(0.05, 90, 0.75, 0.99)
	pow := plant.Power(sm.RRef)
	for k := 0; k < 200; k++ {
		pow = plant.Power(sm.Step(pow))
	}
	if sm.RRef != 0.99 {
		t.Errorf("r_ref = %v, want ceiling 0.99", sm.RRef)
	}
}

// When power is far under the cap the loop rests at the floor (0.75 in the
// paper), not at ever-lower utilization targets.
func TestSMFloorsWhenUnderCap(t *testing.T) {
	plant := PowerPlant{C: 60, D: 80} // pow(0.75) = 35 << cap
	sm, _ := NewCappingLoop(0.01, 90, 0.75, 0.99)
	sm.RRef = 0.9
	pow := plant.Power(sm.RRef)
	for k := 0; k < 200; k++ {
		pow = plant.Power(sm.Step(pow))
	}
	if sm.RRef != 0.75 {
		t.Errorf("r_ref = %v, want floor 0.75", sm.RRef)
	}
}

// Property: any β within (0, 2/c) is stable; β above the bound is not.
func TestSMStabilityBoundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plant := PowerPlant{C: 20 + 100*rng.Float64(), D: 150 + 100*rng.Float64()}
		cap := plant.Power(0.6) // reachable within a wide r_ref range
		beta := StableBetaBound(plant.C) * (0.05 + 0.9*rng.Float64())
		sm, err := NewCappingLoop(beta, cap, 0.1, 0.99)
		if err != nil {
			return false
		}
		sm.RRef = 0.3
		pow := plant.Power(sm.RRef)
		for k := 0; k < 5000; k++ {
			pow = plant.Power(sm.Step(pow))
		}
		return math.Abs(pow-cap) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSMUnstableBetaOscillates(t *testing.T) {
	plant := PowerPlant{C: 60, D: 140}
	cap := plant.Power(0.6)
	beta := StableBetaBound(plant.C) * 1.5 // beyond the bound
	sm, _ := NewCappingLoop(beta, cap, 0.01, 0.99)
	sm.RRef = 0.61
	pow := plant.Power(sm.RRef)
	maxErr := 0.0
	for k := 0; k < 100; k++ {
		pow = plant.Power(sm.Step(pow))
		if e := math.Abs(pow - cap); e > maxErr {
			maxErr = e
		}
	}
	if maxErr < plant.C*0.005 {
		t.Errorf("unstable gain stayed within %.4f W of the cap — expected oscillation", maxErr)
	}
}

func TestStableBetaBoundAndDefault(t *testing.T) {
	if got := StableBetaBound(4); got != 0.5 {
		t.Errorf("StableBetaBound(4) = %v", got)
	}
	if !math.IsInf(StableBetaBound(0), 1) {
		t.Error("StableBetaBound(0) should be +Inf")
	}
	if got := DefaultBeta(4); got != 0.25 {
		t.Errorf("DefaultBeta(4) = %v", got)
	}
	if got := DefaultBeta(0); got != 1 {
		t.Errorf("DefaultBeta(0) = %v", got)
	}
}

func TestCappingLoopSetReference(t *testing.T) {
	sm, _ := NewCappingLoop(0.01, 90, 0.75, 0.99)
	sm.SetReference(70)
	if sm.Cap != 70 {
		t.Errorf("cap = %v, want 70", sm.Cap)
	}
	sm.SetReference(-5) // ignored
	if sm.Cap != 70 {
		t.Errorf("negative cap should be ignored, got %v", sm.Cap)
	}
}

func TestFrequencyPlantObserve(t *testing.T) {
	p := FrequencyPlant{FD: 300}
	if r, fC := p.Observe(600); r != 0.5 || fC != 300 {
		t.Errorf("Observe(600) = %v, %v", r, fC)
	}
	if r, fC := p.Observe(200); r != 1 || fC != 200 {
		t.Errorf("Observe(200) = %v, %v", r, fC)
	}
	if r, fC := p.Observe(0); r != 0 || fC != 0 {
		t.Errorf("Observe(0) = %v, %v", r, fC)
	}
}
