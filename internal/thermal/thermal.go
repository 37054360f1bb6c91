// Package thermal models server temperature as a first-order RC system —
// the physical basis of the paper's thermal-capping leeway: "thermal
// failover happens only when the power budget is violated long enough to
// create enough heat to increase the temperature beyond normal operational
// ranges" (§2.1). Thermal budgets therefore tolerate bounded transients;
// electrical budgets (fuses) do not.
//
// The model: dT/dt = (T_amb + P·R_th − T) / τ, i.e. temperature relaxes
// toward the steady state T_amb + P·R_th with time constant τ. A machine
// trips thermal failover when T crosses T_crit.
package thermal

import "fmt"

// Model holds the thermal parameters of one server and its cooling.
type Model struct {
	// AmbientC is the inlet air temperature, °C.
	AmbientC float64
	// RthCPerW is the thermal resistance, °C per Watt: steady-state rise
	// over ambient per Watt dissipated.
	RthCPerW float64
	// TauTicks is the thermal time constant in simulation ticks.
	TauTicks float64
	// CritC is the failover trip temperature, °C.
	CritC float64
}

// Default returns a calibration consistent with the simulator's BladeA
// budgets: the 90 W thermal budget corresponds to a steady temperature
// safely under the trip point, while sustained max draw (100 W) crosses it.
func Default() Model {
	return Model{
		AmbientC: 25,
		RthCPerW: 0.45, // 90 W -> 65.5 °C steady; 100 W -> 70 °C
		TauTicks: 60,
		CritC:    68,
	}
}

// Validate rejects non-physical parameters.
func (m Model) Validate() error {
	if m.RthCPerW <= 0 || m.TauTicks <= 0 {
		return fmt.Errorf("thermal: non-positive Rth or tau: %+v", m)
	}
	if m.CritC <= m.AmbientC {
		return fmt.Errorf("thermal: trip point %v not above ambient %v", m.CritC, m.AmbientC)
	}
	return nil
}

// SteadyTemp returns the equilibrium temperature at a constant power draw.
func (m Model) SteadyTemp(powerW float64) float64 {
	return m.AmbientC + powerW*m.RthCPerW
}

// State is one server's thermal state.
type State struct {
	// TempC is the current temperature.
	TempC float64
	// PeakC is the highest temperature seen.
	PeakC float64
	// TrippedAt is the first tick the trip point was crossed (-1 if never).
	TrippedAt int
}

// NewState starts at ambient.
func NewState(m Model) *State {
	return &State{TempC: m.AmbientC, PeakC: m.AmbientC, TrippedAt: -1}
}

// Step advances one tick at the given draw and reports whether the machine
// is at or beyond the trip point after the update.
func (s *State) Step(m Model, powerW float64, tick int) bool {
	target := m.SteadyTemp(powerW)
	s.TempC += (target - s.TempC) / m.TauTicks
	if s.TempC > s.PeakC {
		s.PeakC = s.TempC
	}
	tripped := s.TempC >= m.CritC
	if tripped && s.TrippedAt < 0 {
		s.TrippedAt = tick
	}
	return tripped
}

// Tripped reports whether the trip point was ever crossed.
func (s *State) Tripped() bool { return s.TrippedAt >= 0 }
