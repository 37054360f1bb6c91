// Package pm implements the performance-domain half of the paper's §7
// future work: "extending our architecture to include coordination with the
// equivalent spectrum of solutions in the performance ... domains."
//
// The performance manager watches each server's delivered-to-demanded work
// ratio against a service-level objective. It owns no power actuator — by
// design: power knobs belong to the power controllers — and instead exposes
// SLO-violation telemetry through exactly the interface the capping
// controllers use (DrainViolations), which the coordinated VMC consumes as a
// packing-headroom signal: sustained SLO misses make consolidation more
// conservative, just as budget violations do.
package pm

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/state"
)

// DefaultSLO is the default delivered/demanded work objective.
const DefaultSLO = 0.95

// Controller is the performance manager.
type Controller struct {
	// Period is the control interval in ticks (like the SM's).
	Period int
	// SLO is the minimum acceptable served fraction per server.
	SLO float64

	violations int
	epochs     int
}

// New builds a performance manager.
func New(slo float64, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("pm: period %d", period)
	}
	if slo <= 0 || slo > 1 {
		return nil, fmt.Errorf("pm: slo %v", slo)
	}
	return &Controller{Period: period, SLO: slo}, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "PM" }

// EpochPeriod implements the simulator's Epochal interface: the PM acts
// on its control interval.
func (c *Controller) EpochPeriod() int { return c.Period }

// Tick samples every powered server's served fraction against the SLO. The
// PM is a pure observer, so it reads through the fleet's read-only view.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	v := cl.View()
	for i, n := 0, v.NumServers(); i < n; i++ {
		d := v.DemandSum(i)
		if !v.On(i) || d <= 0 {
			continue
		}
		c.epochs++
		// Served fraction: consumption over demand (both in full-speed
		// units, overhead included on both sides).
		if v.RealUtil(i)/d < c.SLO {
			c.violations++
		}
	}
}

// DrainViolations returns and resets the SLO telemetry — the same interface
// the capping controllers expose (Fig. 4), extended to the performance
// domain.
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// ctrlState is the PM's serializable state: the undrained SLO telemetry.
type ctrlState struct {
	Violations int
	Epochs     int
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	return state.Marshal(ctrlState{Violations: c.violations, Epochs: c.epochs})
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	c.violations, c.epochs = st.Violations, st.Epochs
	return nil
}
