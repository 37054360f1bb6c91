// Package fm implements the facility manager — the sixth control level,
// above the group manager, closing the loop the paper names as future work
// (§7: coordination with the facility/cooling domain). Each epoch it inverts
// the facility model (UPS/PDU losses, weather-derated chiller) to find the
// largest IT power the utility feed and the cooling plant can carry right
// now, and exports that as the group's IT budget.
//
// Coordinated mode writes the budget to the cluster's dedicated facility
// register (FacilityCapGrp), which every consumer composes with CAP_GRP by
// the min rule — the same reference-not-actuator coordination the rest of
// the architecture uses. Uncoordinated mode reproduces the independent-
// products deployment: it overwrites CAP_GRP itself, last-writer-wins,
// fighting the operator's budget and the cooling manager for the same
// register.
package fm

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/facility"
	"nopower/internal/obs"
	"nopower/internal/state"
)

// Mode selects coordinated (min-rule) or uncoordinated budget writing.
type Mode int

const (
	// Coordinated exports the budget through the facility register,
	// composed by the min rule at every read site.
	Coordinated Mode = iota
	// Uncoordinated stomps CAP_GRP directly, racing other writers.
	Uncoordinated
)

// Controller is the facility-level coordinator.
type Controller struct {
	// Period is the facility control interval in ticks (slow: the chiller
	// plant and the weather move on minutes, not seconds).
	Period int
	// Mode selects the coordination wiring.
	Mode Mode
	// Model is the facility being managed.
	Model *facility.Model
	// FeedW is the utility feed capacity in Watts. Zero sizes the feed at
	// first tick to exactly carry the operator's CAP_GRP on an average day
	// (Model.FeedForIT), so hot afternoons make the constraint bind.
	FeedW float64

	initialized    bool
	feedW          float64 // resolved feed capacity
	operatorCapGrp float64 // CAP_GRP remembered at first tick
	safeBudget     float64 // worst-case-weather budget, the fail-safe pin
	epochs         int
	violations     int // ticks the facility total exceeded the feed
	lastBudget     float64
	last           facility.Sample
	tracer         obs.Tracer

	gPower, gPUE, gCooling, gUPS, gPDU, gOutside, gBudget *obs.Gauge
	cFeedViol                                             *obs.Counter
}

// New builds a facility manager over a validated model.
func New(m *facility.Model, mode Mode, period int) (*Controller, error) {
	if m == nil {
		return nil, fmt.Errorf("fm: nil facility model")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if period <= 0 {
		return nil, fmt.Errorf("fm: period %d", period)
	}
	return &Controller{Period: period, Mode: mode, Model: m}, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "FM" }

// EpochPeriod implements the simulator's Epochal interface: the FM acts on
// the facility control interval.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// SetMetrics resolves the np_facility_* gauge handles; nil detaches. The
// gauges mirror telemetry the controller computes anyway, so metrics-on and
// metrics-off runs are bitwise identical.
func (c *Controller) SetMetrics(reg *obs.Registry) {
	if reg == nil {
		c.gPower, c.gPUE, c.gCooling, c.gUPS, c.gPDU, c.gOutside, c.gBudget = nil, nil, nil, nil, nil, nil, nil
		c.cFeedViol = nil
		return
	}
	c.gPower = reg.Gauge("np_facility_power_watts")
	c.gPUE = reg.Gauge("np_facility_pue")
	c.gCooling = reg.Gauge("np_facility_cooling_watts")
	c.gUPS = reg.Gauge(obs.SeriesName("np_facility_conversion_loss_watts", "stage", "ups"))
	c.gPDU = reg.Gauge(obs.SeriesName("np_facility_conversion_loss_watts", "stage", "pdu"))
	c.gOutside = reg.Gauge("np_facility_outside_celsius")
	c.gBudget = reg.Gauge("np_facility_it_budget_watts")
	c.cFeedViol = reg.Counter("np_facility_feed_violations_total")
}

// Tick evaluates the facility at the previous interval's IT draw every tick
// (telemetry, feed-violation accounting, gauges) and re-derives the IT
// budget on facility epochs.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if !c.initialized {
		c.initialized = true
		c.operatorCapGrp = cl.StaticCapGrp
		c.feedW = c.FeedW
		if c.feedW <= 0 {
			c.feedW = c.Model.FeedForIT(c.operatorCapGrp)
		}
		c.safeBudget = c.Model.WorstCaseITBudget(c.feedW)
	}

	// Telemetry at the previous interval's sensors — the same discrete
	// feedback timing every other controller uses.
	c.last = c.Model.Eval(k, cl.GroupPower)
	if c.last.TotalW > c.feedW {
		c.violations++
		if c.cFeedViol != nil {
			c.cFeedViol.Inc()
		}
	}
	if c.gPower != nil {
		c.gPower.Set(c.last.TotalW)
		c.gPUE.Set(c.last.PUE)
		c.gCooling.Set(c.last.CoolingW)
		c.gUPS.Set(c.last.UPSLossW)
		c.gPDU.Set(c.last.PDULossW)
		c.gOutside.Set(c.last.OutsideC)
		c.gBudget.Set(c.lastBudget)
	}

	if k%c.Period != 0 {
		return
	}
	c.epochs++
	budget := c.Model.ITBudget(k, c.feedW)
	c.lastBudget = budget
	switch c.Mode {
	case Coordinated:
		// Floor at 1 W: zero is the register's "no facility budget"
		// sentinel, and a dead facility should read as a starved budget,
		// not an absent one.
		if budget < 1 {
			budget = 1
		}
		old := cl.FacilityCapGrp
		cl.FacilityCapGrp = budget
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Tick: k, Controller: "FM", Actuator: obs.ActGroupCap,
				Target: 0, Old: old, New: budget, Reason: "facility-budget"})
		}
	case Uncoordinated:
		old := cl.StaticCapGrp
		cl.StaticCapGrp = budget
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Tick: k, Controller: "FM", Actuator: obs.ActGroupCap,
				Target: 0, Old: old, New: budget, Reason: "raw-facility-budget"})
		}
	}
}

// FailSafe pins the facility budget to the static worst-case-weather budget
// derived from the utility feed — the degraded-mode fallback after the FM
// is disabled by a panic (sim.FaultDegrade). Feasible under any weather the
// model can produce, so a dead FM degrades to a conservative fixed feed
// allocation instead of leaving a stale hot-afternoon budget in place. The
// uncoordinated variant also hands CAP_GRP back to the operator's value.
func (c *Controller) FailSafe(k int, cl *cluster.Cluster) {
	if !c.initialized {
		return
	}
	safe := c.safeBudget
	if safe < 1 {
		safe = 1
	}
	cl.FacilityCapGrp = safe
	if c.Mode == Uncoordinated {
		cl.StaticCapGrp = c.operatorCapGrp
	}
}

// Sample returns the most recent facility evaluation (previous tick's IT
// draw) — the CLI summary hook.
func (c *Controller) Sample() facility.Sample { return c.last }

// Budget returns the most recently exported IT budget and the resolved feed
// capacity (both zero before the first epoch).
func (c *Controller) Budget() (itBudgetW, feedW float64) { return c.lastBudget, c.feedW }

// DrainViolations returns and resets the feed-violation telemetry.
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// SeriesEval adapts the facility model to the metrics.Series facility hook:
// a pure function of (tick, IT power), evaluated by the series at the
// post-advance draw of the same tick.
func (c *Controller) SeriesEval(k int, itW float64) (facilityW, pue, coolingW, outsideC float64) {
	s := c.Model.Eval(k, itW)
	return s.TotalW, s.PUE, s.CoolingW, s.OutsideC
}

// ctrlState is the FM's serializable state.
type ctrlState struct {
	Initialized    bool
	FeedW          float64
	OperatorCapGrp float64
	SafeBudget     float64
	Epochs         int
	Violations     int
	LastBudget     float64
	Last           facility.Sample
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	return state.Marshal(ctrlState{
		Initialized: c.initialized, FeedW: c.feedW,
		OperatorCapGrp: c.operatorCapGrp, SafeBudget: c.safeBudget,
		Epochs: c.epochs, Violations: c.violations,
		LastBudget: c.lastBudget, Last: c.last,
	})
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	c.initialized, c.feedW = st.Initialized, st.FeedW
	c.operatorCapGrp, c.safeBudget = st.OperatorCapGrp, st.SafeBudget
	c.epochs, c.violations = st.Epochs, st.Violations
	c.lastBudget, c.last = st.LastBudget, st.Last
	return nil
}
