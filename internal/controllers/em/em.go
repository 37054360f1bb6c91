// Package em implements the enclosure manager — power capping at the blade
// enclosure level (§3.1 "Enclosure and group power capping"). Each epoch it
// compares the enclosure's total draw with the enclosure budget and
// re-provisions per-blade budgets for the next epoch.
//
// Base policy (Fig. 6, eq. EM): proportional share —
//
//	cap_loc_i = min(CAP_LOC_i, cap_enc · pow_i / pow_enc)
//
// with cap_enc itself the min of the static enclosure budget and the GM's
// recommendation. The receiving SM applies the min rule again on its side;
// the division policy is pluggable (§5.4 studies alternatives).
//
// The uncoordinated variant drops the min rule on both sides: it divides the
// static enclosure budget regardless of what the GM handed down and writes
// raw recommendations over whatever the servers had (last writer wins).
package em

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/obs"
	"nopower/internal/policy"
	"nopower/internal/state"
)

// Mode selects coordinated (min-rule) or uncoordinated budget writing.
type Mode int

const (
	// Coordinated composes budgets with the min rule (the paper's design).
	Coordinated Mode = iota
	// Uncoordinated writes raw shares of the static budget, ignoring the GM.
	Uncoordinated
)

// Controller is the enclosure-level capper.
type Controller struct {
	// Period is T_em in ticks (25 in the paper's baseline).
	Period int
	// Mode selects the coordination wiring.
	Mode Mode
	// Policy divides the enclosure budget across blades.
	Policy policy.Division

	violations int
	epochs     int
	tracer     obs.Tracer
	scratch    []policy.Child // reused per epoch; the hot loop allocates nothing
}

// New builds an enclosure manager.
func New(mode Mode, pol policy.Division, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("em: period %d", period)
	}
	if pol == nil {
		pol = policy.Proportional{}
	}
	return &Controller{Period: period, Mode: mode, Policy: pol}, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "EM" }

// EpochPeriod implements the simulator's Epochal interface: the EM acts
// every T_em ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// Tick re-provisions per-blade budgets for every enclosure that is due.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	for _, e := range cl.Enclosures {
		c.epochs++
		if e.Power > e.StaticCap {
			c.violations++
		}
		capEnc := e.StaticCap
		if c.Mode == Coordinated && e.DynCap < capEnc {
			capEnc = e.DynCap // min(CAP_ENC, GM recommendation)
		}
		if cap(c.scratch) < len(e.Servers) {
			c.scratch = make([]policy.Child, len(e.Servers))
		}
		children := c.scratch[:len(e.Servers)]
		for i, sid := range e.Servers {
			children[i] = policy.Child{ID: sid, Power: cl.Power(sid), MaxPower: cl.ServerModel(sid).MaxPower()}
		}
		shares := c.Policy.Divide(capEnc, children)
		for i, sid := range e.Servers {
			old := cl.DynCap(sid)
			reason := "min-rule-share"
			switch c.Mode {
			case Coordinated:
				rec := shares[i]
				if s := cl.StaticCap(sid); rec > s {
					rec = s // min(CAP_LOC, recommendation)
				}
				cl.SetDynCap(sid, rec)
			case Uncoordinated:
				cl.SetDynCap(sid, shares[i]) // raw overwrite, no min
				reason = "raw-share"
			}
			if c.tracer != nil {
				c.tracer.Emit(obs.Event{Tick: k, Controller: "EM", Actuator: obs.ActServerCap,
					Target: sid, Old: old, New: cl.DynCap(sid), Reason: reason})
			}
		}
	}
}

// FailSafe resets every blade's dynamic budget to its static thermal budget
// CAP_LOC — the degraded-mode fallback after the EM is disabled by a panic
// (sim.FaultDegrade). The static budgets are the provisioned-safe hierarchy
// (§2.1), so with the EM dead each blade's SM keeps enforcing a bound that
// cannot exceed what the enclosure was built for.
func (c *Controller) FailSafe(k int, cl *cluster.Cluster) {
	for _, e := range cl.Enclosures {
		for _, sid := range e.Servers {
			cl.SetDynCap(sid, cl.StaticCap(sid))
		}
	}
}

// DrainViolations returns and resets the enclosure-level violation
// telemetry (Fig. 4: "expose power budget violations to VMC").
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// ctrlState is the EM's serializable state: undrained telemetry plus the
// division policy's accumulated state (History's EWMA), when it has any.
type ctrlState struct {
	Violations int
	Epochs     int
	Policy     []byte
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	st := ctrlState{Violations: c.violations, Epochs: c.epochs}
	if sp, ok := c.Policy.(policy.Stateful); ok {
		blob, err := sp.PolicyState()
		if err != nil {
			return nil, err
		}
		st.Policy = blob
	}
	return state.Marshal(st)
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	c.violations, c.epochs = st.Violations, st.Epochs
	if st.Policy != nil {
		sp, ok := c.Policy.(policy.Stateful)
		if !ok {
			return fmt.Errorf("em: snapshot carries %s policy state but the policy is stateless", c.Policy.Name())
		}
		return sp.RestorePolicyState(st.Policy)
	}
	return nil
}
