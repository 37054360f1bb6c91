// Package cooling implements the paper's named future work (§7): "we are
// particularly interested in extending our architecture to include
// coordination with the equivalent spectrum of solutions in the ... cooling
// domains."
//
// The model: a CRAC (computer-room air conditioner) serves a thermal zone of
// servers. Its efficiency (coefficient of performance, COP) improves with
// warmer supply air — the classic data-center result that overcooling wastes
// energy — but warmer supply air shrinks every server's thermal headroom:
// steady server temperature is supply + P·R_th, so the sustainable per-server
// power budget is (T_crit − margin − supply)/R_th.
//
// The zone manager closes exactly the kind of loop the paper's architecture
// is built from: it picks the warmest supply temperature that keeps the
// observed zone power thermally sustainable, and (coordinated mode) exposes
// the resulting cooling-derived power budget to the group manager through
// the same budget channel the GM already consumes — cooling and power
// management meeting at a reference, not at a shared actuator.
package cooling

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/state"
	"nopower/internal/thermal"
)

// CRAC models the air conditioner of one zone.
type CRAC struct {
	// SupplyC is the current supply-air temperature setpoint, °C.
	SupplyC float64
	// MinSupplyC and MaxSupplyC bound the setpoint (ASHRAE-style envelope).
	MinSupplyC, MaxSupplyC float64
	// COPAt15 is the coefficient of performance at a 15 °C setpoint.
	COPAt15 float64
	// COPSlope is the COP gain per °C of warmer supply air.
	COPSlope float64

	// Outside-air dependence (DESIGN.md §15): chillers reject heat against
	// the outdoor wet bulb, so effective COP degrades as the outside air
	// warms past OATRefC by OATCOPSlope per °C. Both default to zero — a
	// CRAC with no outside-air model behaves exactly as before.
	OATRefC     float64
	OATCOPSlope float64
}

// minCOP floors the effective COP: however hot the outside air, a real
// chiller still moves heat (at terrible efficiency) rather than running
// backwards. The floor keeps CoolingPower finite and positive under any
// weather excursion.
const minCOP = 0.5

// DefaultCRAC returns a mainstream calibration: COP 3.5 at 15 °C improving
// ~0.15 per °C, raised-floor envelope 15–27 °C.
func DefaultCRAC() *CRAC {
	return &CRAC{SupplyC: 15, MinSupplyC: 15, MaxSupplyC: 27, COPAt15: 3.5, COPSlope: 0.15}
}

// Validate rejects non-physical parameters. Beyond per-field sanity it
// checks the whole envelope: the COP line must stay positive at the coldest
// admissible setpoint, otherwise a setpoint the manager is allowed to pick
// (pinned at MinSupplyC under thermal pressure) would make CoolingPower
// negative — an air conditioner generating electricity.
func (c *CRAC) Validate() error {
	if c.MinSupplyC >= c.MaxSupplyC {
		return fmt.Errorf("cooling: supply envelope [%v, %v]", c.MinSupplyC, c.MaxSupplyC)
	}
	if c.COPAt15 <= 0 || c.COPSlope < 0 {
		return fmt.Errorf("cooling: COP model %v + %v/°C", c.COPAt15, c.COPSlope)
	}
	if c.SupplyC < c.MinSupplyC || c.SupplyC > c.MaxSupplyC {
		return fmt.Errorf("cooling: setpoint %v outside envelope", c.SupplyC)
	}
	if coldest := c.COPAt15 + c.COPSlope*(c.MinSupplyC-15); coldest <= 0 {
		return fmt.Errorf("cooling: COP %v non-positive at coldest setpoint %v °C", coldest, c.MinSupplyC)
	}
	if c.OATCOPSlope < 0 {
		return fmt.Errorf("cooling: outside-air COP slope %v", c.OATCOPSlope)
	}
	return nil
}

// COP returns the coefficient of performance at the current setpoint.
func (c *CRAC) COP() float64 {
	return c.COPAt15 + c.COPSlope*(c.SupplyC-15)
}

// COPAt returns the effective COP at the current setpoint under the given
// outside-air temperature, floored at minCOP. With a zero outside-air model
// (OATCOPSlope == 0) it reduces to COP() exactly — same bits.
func (c *CRAC) COPAt(outsideC float64) float64 {
	cop := c.COP() - c.OATCOPSlope*(outsideC-c.OATRefC)
	if cop < minCOP {
		cop = minCOP
	}
	return cop
}

// CoolingPower returns the electrical power the CRAC draws to remove the
// given IT heat load.
func (c *CRAC) CoolingPower(heatW float64) float64 {
	if heatW <= 0 {
		return 0
	}
	return heatW / c.COP()
}

// CoolingPowerAt is CoolingPower under the given outside-air temperature.
func (c *CRAC) CoolingPowerAt(heatW, outsideC float64) float64 {
	if heatW <= 0 {
		return 0
	}
	return heatW / c.COPAt(outsideC)
}

// Manager is the zone controller coordinating cooling with power management.
type Manager struct {
	// Period is the zone-control interval in ticks (slow, like the GM).
	Period int
	// CRAC is the controlled air conditioner.
	CRAC *CRAC
	// Thermal is the per-server thermal calibration; ambient tracks the
	// CRAC setpoint.
	Thermal thermal.Model
	// MarginC is the safety margin kept below the trip temperature.
	MarginC float64
	// Coordinated, when true, exports the cooling-derived zone power budget
	// to the group manager by tightening the cluster's group cap (min rule:
	// never raises it above the operator's static budget).
	Coordinated bool

	operatorCapGrp float64   // the original CAP_GRP, remembered at first tick
	operatorCapLoc []float64 // the original per-server CAP_LOC values
	states         []*thermal.State
	coolingEnergy  float64 // Σ cooling power per tick
	maxTempC       float64
	trips          int
	ticks          int
}

// NewManager wires a zone manager over the whole cluster (one zone).
func NewManager(crac *CRAC, tm thermal.Model, period int, coordinated bool) (*Manager, error) {
	if crac == nil {
		crac = DefaultCRAC()
	}
	if err := crac.Validate(); err != nil {
		return nil, err
	}
	if err := tm.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("cooling: period %d", period)
	}
	return &Manager{
		Period:      period,
		CRAC:        crac,
		Thermal:     tm,
		MarginC:     2,
		Coordinated: coordinated,
	}, nil
}

// Name implements the simulator's Controller interface.
func (m *Manager) Name() string { return "COOL" }

// EpochPeriod implements the simulator's Epochal interface: the cooling
// manager acts on its zone-control interval.
func (m *Manager) EpochPeriod() int { return m.Period }

// Tick steps every server's temperature each tick (ambient = setpoint) and,
// on zone epochs, re-optimizes the setpoint and the exported budget.
func (m *Manager) Tick(k int, cl *cluster.Cluster) {
	if m.states == nil {
		m.states = make([]*thermal.State, cl.NumServers())
		tm := m.Thermal
		tm.AmbientC = m.CRAC.SupplyC
		for i := range m.states {
			m.states[i] = thermal.NewState(tm)
		}
		m.operatorCapGrp = cl.StaticCapGrp
		m.operatorCapLoc = make([]float64, cl.NumServers())
		for i := range m.operatorCapLoc {
			m.operatorCapLoc[i] = cl.StaticCap(i)
		}
	}
	// Thermal integration every tick at the current setpoint.
	tm := m.Thermal
	tm.AmbientC = m.CRAC.SupplyC
	hottest := tm.AmbientC
	for i, n := 0, cl.NumServers(); i < n; i++ {
		p := cl.Power(i)
		if !cl.On(i) {
			p = 0
		}
		if m.states[i].Step(tm, p, k) {
			m.trips++
		}
		if m.states[i].TempC > hottest {
			hottest = m.states[i].TempC
		}
	}
	if hottest > m.maxTempC {
		m.maxTempC = hottest
	}
	m.coolingEnergy += m.CRAC.CoolingPower(cl.GroupPower)
	m.ticks++

	if k%m.Period != 0 {
		return
	}

	// Setpoint optimization: the warmest supply air whose steady-state
	// temperature for the hottest plausible server stays under trip−margin.
	// The hottest plausible draw is the largest current per-server power
	// (plus nothing: the budget channel below handles growth).
	maxServerW := 0.0
	for i, n := 0, cl.NumServers(); i < n; i++ {
		if p := cl.Power(i); cl.On(i) && p > maxServerW {
			maxServerW = p
		}
	}
	target := m.Thermal.CritC - m.MarginC - maxServerW*m.Thermal.RthCPerW
	if target < m.CRAC.MinSupplyC {
		target = m.CRAC.MinSupplyC
	}
	if target > m.CRAC.MaxSupplyC {
		target = m.CRAC.MaxSupplyC
	}
	m.CRAC.SupplyC = target

	if m.Coordinated {
		// Export the cooling-derived budgets. The temperature constraint is
		// per machine — steady temp = supply + P·R_th — so at this setpoint
		// each server can sustain (crit − margin − supply)/R_th Watts. That
		// flows into the per-server thermal budget (min rule against the
		// operator's CAP_LOC, so the SM enforces it), and its sum into the
		// group budget (min rule against CAP_GRP, so the GM and the VMC's
		// constraints see it too).
		perServer := (m.Thermal.CritC - m.MarginC - m.CRAC.SupplyC) / m.Thermal.RthCPerW
		if perServer < 0 {
			perServer = 0
		}
		for i := range m.operatorCapLoc {
			if perServer < m.operatorCapLoc[i] {
				cl.SetStaticCap(i, perServer)
			} else {
				cl.SetStaticCap(i, m.operatorCapLoc[i])
			}
		}
		zoneCap := perServer * float64(cl.NumServers())
		if zoneCap < m.operatorCapGrp {
			cl.StaticCapGrp = zoneCap
		} else {
			cl.StaticCapGrp = m.operatorCapGrp
		}
	}
}

// Stats reports the accumulated cooling telemetry.
func (m *Manager) Stats() (avgCoolingW, maxTempC float64, trips int) {
	if m.ticks == 0 {
		return 0, 0, 0
	}
	return m.coolingEnergy / float64(m.ticks), m.maxTempC, m.trips
}

// managerState is the zone manager's serializable state: per-server thermal
// integrator states, the remembered operator budgets, the CRAC setpoint,
// and the accumulated telemetry. Initialized distinguishes "never ticked"
// (lazy init pending) from a genuinely empty zone.
type managerState struct {
	Initialized    bool
	SupplyC        float64
	OperatorCapGrp float64
	OperatorCapLoc []float64
	Temps          []thermal.State
	CoolingEnergy  float64
	MaxTempC       float64
	Trips          int
	Ticks          int
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(managerState{}) }

// State implements the simulator's Snapshotter interface.
func (m *Manager) State() ([]byte, error) {
	st := managerState{
		Initialized:    m.states != nil,
		SupplyC:        m.CRAC.SupplyC,
		OperatorCapGrp: m.operatorCapGrp,
		OperatorCapLoc: append([]float64(nil), m.operatorCapLoc...),
		CoolingEnergy:  m.coolingEnergy,
		MaxTempC:       m.maxTempC,
		Trips:          m.trips,
		Ticks:          m.ticks,
	}
	for _, s := range m.states {
		st.Temps = append(st.Temps, *s)
	}
	return state.Marshal(st)
}

// Restore implements the simulator's Snapshotter interface.
func (m *Manager) Restore(data []byte) error {
	var st managerState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if !st.Initialized {
		m.states, m.operatorCapLoc = nil, nil
		m.operatorCapGrp = 0
	} else {
		m.states = make([]*thermal.State, len(st.Temps))
		for i := range st.Temps {
			s := st.Temps[i]
			m.states[i] = &s
		}
		m.operatorCapGrp = st.OperatorCapGrp
		m.operatorCapLoc = append([]float64(nil), st.OperatorCapLoc...)
	}
	m.CRAC.SupplyC = st.SupplyC
	m.coolingEnergy, m.maxTempC = st.CoolingEnergy, st.MaxTempC
	m.trips, m.ticks = st.Trips, st.Ticks
	return nil
}
