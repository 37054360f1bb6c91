// Package gm implements the group manager — power capping at the rack /
// data-center level (§3.1). Each epoch it compares the group's total draw
// with the group budget and re-provisions budgets to its children: blade
// enclosures (via their EMs) and standalone servers (directly).
//
// Base policy (Fig. 6, eqs. GMs): proportional share —
//
//	cap_enc_q = min(CAP_ENC_q, CAP_GRP · pow_enc_q / pow_grp)
//	cap_loc_i = min(CAP_LOC_i, CAP_GRP · pow_i / pow_grp)   (standalone)
//
// The uncoordinated variant writes raw shares with no min rule, racing with
// the EM and SM for the same budget registers.
package gm

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
	// Uncoordinated writes raw shares, ignoring lower-level budgets.
	Uncoordinated
)

// Controller is the group-level capper.
type Controller struct {
	// Period is T_grp in ticks (50 in the paper's baseline).
	Period int
	// Mode selects the coordination wiring.
	Mode Mode
	// Policy divides the group budget across children.
	Policy policy.Division

	violations int
	epochs     int
	tracer     obs.Tracer
	scratch    []policy.Child // reused per epoch; the hot loop allocates nothing
}

// New builds a group manager.
func New(mode Mode, pol policy.Division, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("gm: period %d", period)
	}
	if pol == nil {
		pol = policy.Proportional{}
	}
	return &Controller{Period: period, Mode: mode, Policy: pol}, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "GM" }

// EpochPeriod implements the simulator's Epochal interface: the GM acts
// every T_grp ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// Tick re-provisions enclosure and standalone-server budgets when due.
// Children are ordered enclosures-first, then standalone servers; a policy
// only sees (power, max power, id), so the ordering is an implementation
// detail except for FIFO's id ordering.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	c.epochs++
	if cl.GroupPower > cl.CapGrp() {
		c.violations++
	}

	standalone := cl.StandaloneServers()
	if cap(c.scratch) < len(cl.Enclosures)+len(standalone) {
		c.scratch = make([]policy.Child, 0, len(cl.Enclosures)+len(standalone))
	}
	children := c.scratch[:0]
	for _, e := range cl.Enclosures {
		maxP := 0.0
		for _, sid := range e.Servers {
			maxP += cl.ServerModel(sid).MaxPower()
		}
		children = append(children, policy.Child{ID: e.ID, Power: e.Power, MaxPower: maxP})
	}
	for _, sid := range standalone {
		// Offset standalone IDs past the enclosures so FIFO ordering is
		// stable and unambiguous.
		children = append(children, policy.Child{
			ID: len(cl.Enclosures) + sid, Power: cl.Power(sid), MaxPower: cl.ServerModel(sid).MaxPower(),
		})
	}

	// Divide the effective group budget: CAP_GRP tightened by the facility
	// manager's feed/cooling budget when an FM sits above this GM (min rule).
	shares := c.Policy.Divide(cl.CapGrp(), children)

	reason := "min-rule-share"
	if c.Mode == Uncoordinated {
		reason = "raw-share"
	}
	for i, e := range cl.Enclosures {
		old := e.DynCap
		switch c.Mode {
		case Coordinated:
			rec := shares[i]
			if rec > e.StaticCap {
				rec = e.StaticCap // min(CAP_ENC, recommendation)
			}
			e.DynCap = rec
		case Uncoordinated:
			e.DynCap = shares[i]
		}
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Tick: k, Controller: "GM", Actuator: obs.ActEnclosureCap,
				Target: e.ID, Old: old, New: e.DynCap, Reason: reason})
		}
	}
	for j, sid := range standalone {
		old := cl.DynCap(sid)
		rec := shares[len(cl.Enclosures)+j]
		if s := cl.StaticCap(sid); c.Mode == Coordinated && rec > s {
			rec = s // min(CAP_LOC, recommendation)
		}
		cl.SetDynCap(sid, rec)
		if c.tracer != nil {
			c.tracer.Emit(obs.Event{Tick: k, Controller: "GM", Actuator: obs.ActServerCap,
				Target: sid, Old: old, New: rec, Reason: reason})
		}
	}
}

// FailSafe resets every child's dynamic budget to its static budget — the
// degraded-mode fallback after the GM is disabled by a panic
// (sim.FaultDegrade). Enclosures fall back to CAP_ENC and standalone
// servers to CAP_LOC: the statically provisioned hierarchy the dynamic
// re-provisioning always stayed below (the min rule), so the group bound
// degrades gracefully to its design-time value instead of drifting.
func (c *Controller) FailSafe(k int, cl *cluster.Cluster) {
	for _, e := range cl.Enclosures {
		e.DynCap = e.StaticCap
	}
	for _, sid := range cl.StandaloneServers() {
		cl.SetDynCap(sid, cl.StaticCap(sid))
	}
}

// DrainViolations returns and resets the group-level violation telemetry.
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// ctrlState is the GM's serializable state: undrained telemetry plus the
// division policy's accumulated state (History's EWMA), when it has any.
// Note the policy instance is shared with the EM in the default stack; both
// controllers snapshot it at the same tick boundary, so the duplicate
// restore is idempotent.
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
			return fmt.Errorf("gm: snapshot carries %s policy state but the policy is stateless", c.Policy.Name())
		}
		return sp.RestorePolicyState(st.Policy)
	}
	return nil
}
