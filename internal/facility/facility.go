// Package facility co-simulates the non-IT side of the data center — the
// paper's named extension direction (§7: coordination with "the equivalent
// spectrum of solutions in the ... cooling domains"), grown into the full
// facility picture: UPS and PDU conversion losses as load-dependent
// efficiency curves, chiller/CRAC cooling power through the COP model with
// an outside-air diurnal, a fixed hotel load, and PUE as the headline
// derived metric.
//
// Everything here is a pure function of (tick, IT power): the weather noise
// comes from the stateless rng.Uniform mix, the loss curves are closed-form
// polynomials, and no call mutates the model. That purity is what lets the
// facility series stay bitwise identical across serial/sharded execution and
// checkpoint resume — there is no facility stream state to snapshot at all.
package facility

import (
	"fmt"
	"math"

	"nopower/internal/cooling"
	"nopower/internal/rng"
)

// ConversionStage models one power-conversion stage (UPS or PDU) with the
// classic quadratic loss curve: a fixed no-load loss, a proportional loss,
// and an I²R term that grows with the square of the load fraction.
//
//	loss(P) = Loss0·CapacityW + Loss1·P + Loss2·P²/CapacityW
//
// The three coefficients are dimensionless fractions; at P = CapacityW the
// stage dissipates (Loss0+Loss1+Loss2)·CapacityW. This is the standard fit
// for double-conversion UPS efficiency curves (~94 % at full load, falling
// off steeply below ~20 % load).
type ConversionStage struct {
	Name      string
	CapacityW float64
	Loss0     float64 // no-load (standby) loss, fraction of capacity
	Loss1     float64 // proportional loss, fraction of load
	Loss2     float64 // quadratic (I²R) loss, fraction of capacity at full load
}

// LossW returns the stage's dissipation at the given load.
func (s *ConversionStage) LossW(loadW float64) float64 {
	if loadW < 0 {
		loadW = 0
	}
	if s.CapacityW <= 0 {
		return 0
	}
	return s.Loss0*s.CapacityW + s.Loss1*loadW + s.Loss2*loadW*loadW/s.CapacityW
}

// Validate rejects non-physical stage parameters.
func (s *ConversionStage) Validate() error {
	if s.CapacityW <= 0 {
		return fmt.Errorf("facility: %s capacity %v W", s.Name, s.CapacityW)
	}
	if s.Loss0 < 0 || s.Loss1 < 0 || s.Loss2 < 0 {
		return fmt.Errorf("facility: %s loss curve (%v, %v, %v)", s.Name, s.Loss0, s.Loss1, s.Loss2)
	}
	return nil
}

// Weather is the outside-air temperature model: a diurnal sinusoid plus
// bounded noise drawn from the stateless RNG mix, so OutsideC is a pure
// function of the tick — replay- and shard-exact by construction.
type Weather struct {
	// MeanC is the daily mean outside-air temperature, °C.
	MeanC float64
	// AmpC is the diurnal swing amplitude: the afternoon peak sits at
	// MeanC+AmpC, one quarter day into each day, and the pre-dawn trough
	// at MeanC−AmpC.
	AmpC float64
	// TicksPerDay is the diurnal period in ticks.
	TicksPerDay int
	// NoiseC is the amplitude of the per-tick uniform noise in [−NoiseC, +NoiseC).
	NoiseC float64
	// Seed decorrelates the noise from every other stochastic input.
	Seed int64
}

// weatherNoiseSalt keeps the weather's Uniform coordinates disjoint from
// every other stateless consumer of the same scenario seed.
const weatherNoiseSalt = 0x0FAC

// OutsideC returns the outside-air temperature at tick k.
func (w *Weather) OutsideC(k int) float64 {
	day := float64(w.TicksPerDay)
	if day <= 0 {
		day = 1
	}
	t := w.MeanC + w.AmpC*math.Sin(2*math.Pi*float64(k)/day)
	if w.NoiseC > 0 {
		t += w.NoiseC * (2*rng.Uniform(w.Seed, weatherNoiseSalt, k) - 1)
	}
	return t
}

// Validate rejects non-physical weather parameters.
func (w *Weather) Validate() error {
	if w.TicksPerDay <= 0 {
		return fmt.Errorf("facility: weather period %d ticks", w.TicksPerDay)
	}
	if w.AmpC < 0 || w.NoiseC < 0 {
		return fmt.Errorf("facility: weather amplitude %v / noise %v", w.AmpC, w.NoiseC)
	}
	return nil
}

// Sample is one tick's facility-side evaluation.
type Sample struct {
	OutsideC float64 // outside-air temperature, °C
	UPSLossW float64 // UPS conversion loss
	PDULossW float64 // PDU conversion loss
	HeatW    float64 // room heat load: IT + conversion losses
	CoolingW float64 // chiller/CRAC electrical draw
	ITW      float64 // the IT load the sample was evaluated at
	TotalW   float64 // total facility draw: IT + losses + cooling + fixed
	PUE      float64 // TotalW / ITW, 0 when ITW ≤ 0
}

// Model is the complete facility model: the conversion chain (utility → UPS
// → PDU → IT), the chiller serving the whole heat load, the weather driving
// chiller efficiency, and a fixed hotel load (lighting, controls, security).
type Model struct {
	UPS     ConversionStage
	PDU     ConversionStage
	Chiller *cooling.CRAC
	// ChillerCapW is the chiller's rated heat-removal capacity in Watts at
	// the outside-air reference temperature; the deliverable capacity scales
	// with COPAt(outside)/COP(), so hot afternoons shrink it. Zero means
	// "unconstrained" (no capacity limit).
	ChillerCapW float64
	Weather     Weather
	// FixedW is the weather- and load-independent hotel load.
	FixedW float64
}

// CoolingCapW returns the heat load the chiller can remove at tick k's
// outside-air temperature. Infinite when no capacity is configured.
func (m *Model) CoolingCapW(k int) float64 {
	return m.coolingCapAt(m.Weather.OutsideC(k))
}

func (m *Model) coolingCapAt(outsideC float64) float64 {
	if m.ChillerCapW <= 0 {
		return math.Inf(1)
	}
	return m.ChillerCapW * (m.Chiller.COPAt(outsideC) / m.Chiller.COP())
}

// Validate rejects non-physical model parameters.
func (m *Model) Validate() error {
	if err := m.UPS.Validate(); err != nil {
		return err
	}
	if err := m.PDU.Validate(); err != nil {
		return err
	}
	if m.Chiller == nil {
		return fmt.Errorf("facility: nil chiller")
	}
	if err := m.Chiller.Validate(); err != nil {
		return err
	}
	if err := m.Weather.Validate(); err != nil {
		return err
	}
	if m.FixedW < 0 {
		return fmt.Errorf("facility: fixed load %v W", m.FixedW)
	}
	return nil
}

// Eval computes the facility sample for tick k at IT power itW.
func (m *Model) Eval(k int, itW float64) Sample {
	return m.EvalAt(m.Weather.OutsideC(k), itW)
}

// EvalAt is Eval at an explicit outside-air temperature. PDU losses are
// driven by the IT load, UPS losses by IT plus PDU (the UPS feeds the
// PDUs); everything dissipated inside the room — IT, PDU, UPS — is heat the
// chiller must remove, at the COP the given outside air allows.
func (m *Model) EvalAt(outsideC, itW float64) Sample {
	if itW < 0 {
		itW = 0
	}
	pduLoss := m.PDU.LossW(itW)
	upsLoss := m.UPS.LossW(itW + pduLoss)
	heat := itW + pduLoss + upsLoss
	coolW := m.Chiller.CoolingPowerAt(heat, outsideC)
	total := heat + coolW + m.FixedW
	pue := 0.0
	if itW > 0 {
		pue = total / itW
	}
	return Sample{
		OutsideC: outsideC, UPSLossW: upsLoss, PDULossW: pduLoss, HeatW: heat,
		CoolingW: coolW, ITW: itW, TotalW: total, PUE: pue,
	}
}

// ITBudget returns the largest IT power that keeps the facility feasible at
// tick k — the inversion the facility manager runs each epoch to derive the
// group's IT budget.
func (m *Model) ITBudget(k int, feedW float64) float64 {
	return m.ITBudgetAt(m.Weather.OutsideC(k), feedW)
}

// ITBudgetAt is ITBudget at an explicit outside-air temperature: the
// largest IT power whose facility total stays within feedW AND whose room
// heat stays within the chiller's weather-derated capacity. Both
// constraints are strictly increasing in IT power (every loss term is
// monotone and the chiller COP does not depend on load), so a
// fixed-iteration bisection on [0, feedW] converges deterministically:
// same bits on every platform, no tolerance knob, no early exit.
func (m *Model) ITBudgetAt(outsideC, feedW float64) float64 {
	coolCap := m.coolingCapAt(outsideC)
	feasible := func(itW float64) bool {
		s := m.EvalAt(outsideC, itW)
		return s.TotalW <= feedW && s.HeatW <= coolCap
	}
	if feedW <= 0 || !feasible(0) {
		return 0
	}
	lo, hi := 0.0, feedW // total ≥ IT, so the root is below feedW
	for i := 0; i < 53; i++ {
		mid := 0.5 * (lo + hi)
		if feasible(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// WorstCaseITBudget returns the IT budget under the hottest outside air the
// weather model can produce (mean + amplitude + noise bound) — a static
// budget feasible at any tick, the facility manager's fail-safe pin.
func (m *Model) WorstCaseITBudget(feedW float64) float64 {
	return m.ITBudgetAt(m.Weather.MeanC+m.Weather.AmpC+m.Weather.NoiseC, feedW)
}

// FeedForIT returns the facility total at the given IT power under mean
// outside air (diurnal at its midpoint, no noise) — the natural sizing for a
// default utility feed: a feed that exactly carries the given IT budget on
// an average day, so hot afternoons make the facility constraint bind.
func (m *Model) FeedForIT(itW float64) float64 {
	if itW < 0 {
		itW = 0
	}
	pduLoss := m.PDU.LossW(itW)
	upsLoss := m.UPS.LossW(itW + pduLoss)
	heat := itW + pduLoss + upsLoss
	return heat + heat/m.Chiller.COPAt(m.Weather.MeanC) + m.FixedW
}

// DefaultModel calibrates a facility around a fleet whose peak IT draw is
// maxITW: UPS sized at maxIT/0.9 with a ~6 % full-load loss, PDUs with ~2 %,
// a chiller with outside-air derating, a mild-climate diurnal, and a hotel
// load of 3 % of peak IT. With the default weather the facility lands near
// the PUE ≈ 1.5–1.7 range of a decent conventional data center.
func DefaultModel(maxITW float64, seed int64) *Model {
	if maxITW <= 0 {
		maxITW = 1
	}
	crac := cooling.DefaultCRAC()
	crac.OATRefC = 20
	crac.OATCOPSlope = 0.08
	return &Model{
		UPS: ConversionStage{
			Name: "ups", CapacityW: maxITW / 0.9,
			Loss0: 0.02, Loss1: 0.03, Loss2: 0.02,
		},
		PDU: ConversionStage{
			Name: "pdu", CapacityW: maxITW,
			Loss0: 0.005, Loss1: 0.01, Loss2: 0.005,
		},
		Chiller: crac,
		// Rated to the fleet's peak draw at reference weather: after the hot-
		// afternoon derate it can no longer carry a fully loaded fleet, which
		// is exactly the regime the FM loop exists to manage.
		ChillerCapW: maxITW,
		Weather: Weather{
			MeanC: 22, AmpC: 8, TicksPerDay: 1000, NoiseC: 0.5, Seed: seed,
		},
		FixedW: 0.03 * maxITW,
	}
}
