package thermal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValidAndConsistent(t *testing.T) {
	m := Default()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The BladeA thermal budget (90 W) must sit below the trip point and
	// the max draw (100 W) above it — the calibration contract.
	if m.SteadyTemp(90) >= m.CritC {
		t.Errorf("90 W steady temp %.1f not below trip %.1f", m.SteadyTemp(90), m.CritC)
	}
	if m.SteadyTemp(100) <= m.CritC {
		t.Errorf("100 W steady temp %.1f not above trip %.1f", m.SteadyTemp(100), m.CritC)
	}
}

func TestValidateRejectsNonPhysical(t *testing.T) {
	bad := []Model{
		{AmbientC: 25, RthCPerW: 0, TauTicks: 10, CritC: 70},
		{AmbientC: 25, RthCPerW: 0.5, TauTicks: 0, CritC: 70},
		{AmbientC: 25, RthCPerW: 0.5, TauTicks: 10, CritC: 20},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("model %d should be rejected", i)
		}
	}
}

func TestSteadyTemp(t *testing.T) {
	m := Default()
	// T_amb + P·R_th: 25 °C idle, 65.5 °C at the 90 W budget, 70 °C at 100 W.
	for p, want := range map[float64]float64{0: 25, 90: 65.5, 100: 70} {
		if got := m.SteadyTemp(p); math.Abs(got-want) > 1e-9 {
			t.Errorf("SteadyTemp(%v W) = %v, want %v", p, got, want)
		}
	}
}

func TestConvergesToSteadyState(t *testing.T) {
	m := Default()
	s := NewState(m)
	for k := 0; k < 2000; k++ {
		s.Step(m, 80, k)
	}
	want := m.SteadyTemp(80)
	if math.Abs(s.TempC-want) > 0.01 {
		t.Errorf("temp %.2f, want steady %.2f", s.TempC, want)
	}
}

// After τ ticks of a step input, the response covers ~63% of the gap
// (discrete first-order: 1 − (1−1/τ)^τ ≈ 1 − e⁻¹).
func TestTimeConstant(t *testing.T) {
	m := Default()
	s := NewState(m)
	for k := 0; k < int(m.TauTicks); k++ {
		s.Step(m, 100, k)
	}
	gap := m.SteadyTemp(100) - m.AmbientC
	frac := (s.TempC - m.AmbientC) / gap
	if frac < 0.60 || frac < 1-math.Exp(-1)-0.03 || frac > 1-math.Exp(-1)+0.03 {
		t.Errorf("response after tau = %.3f of the gap, want ~0.632", frac)
	}
}

func TestTripRecordsFirstTick(t *testing.T) {
	m := Default()
	s := NewState(m)
	tripTick := -1
	for k := 0; k < 1000; k++ {
		if s.Step(m, 110, k) && tripTick < 0 {
			tripTick = k
		}
	}
	if !s.Tripped() {
		t.Fatal("sustained over-draw did not trip")
	}
	if s.TrippedAt != tripTick {
		t.Errorf("TrippedAt = %d, first observed trip %d", s.TrippedAt, tripTick)
	}
	if s.PeakC < m.CritC {
		t.Errorf("peak %.1f below trip point", s.PeakC)
	}
}

func TestBoundedDutyStaysCool(t *testing.T) {
	m := Default()
	s := NewState(m)
	// 20% duty at 100 W, 80% at 70 W -> average 76 W -> steady 59.2 °C < 68.
	for k := 0; k < 3000; k++ {
		p := 70.0
		if k%5 == 0 {
			p = 100
		}
		s.Step(m, p, k)
	}
	if s.Tripped() {
		t.Errorf("bounded 20%% duty tripped at %.1f °C", s.PeakC)
	}
}

// Property: temperature never overshoots the hotter of (current, steady).
func TestNoOvershootProperty(t *testing.T) {
	m := Default()
	f := func(powers []float64) bool {
		s := NewState(m)
		for k, raw := range powers {
			p := math.Mod(math.Abs(raw), 150)
			hi := math.Max(s.TempC, m.SteadyTemp(p))
			s.Step(m, p, k)
			if s.TempC > hi+1e-9 {
				return false
			}
			if s.TempC < m.AmbientC-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
