// Package budget implements the enclosure manager (EM) and the group
// manager (GM) of §3.1 "Enclosure and group power capping" as one
// controller. Each epoch it compares a parent's draw with the parent's
// budget and re-provisions its children's budgets by Fig. 6's law,
//
//	cap_child = min(CAP_child, cap_parent · pow_child / pow_parent)
//
// The EM divides each enclosure's cap_enc, the min of CAP_ENC and the GM's
// recommendation, over its blades. The GM divides the group budget CAP_GRP,
// already tightened by the facility manager when one sits above it, over
// the enclosures and then the standalone servers. Proportional share is the
// base policy; the division policy is pluggable (§5.4).
//
// The uncoordinated variant drops the min rule on both sides: it divides
// the parent's static budget regardless of what the level above handed
// down, and writes raw shares over whatever the children had (last writer
// wins), racing the other levels for the same budget registers.
package budget

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
	// Uncoordinated writes raw shares of the static budget, ignoring the
	// recommendation from above and the children's static budgets.
	Uncoordinated
)

// Level selects which budgets a Controller divides; it is also the
// controller's name.
type Level string

const (
	// EM divides each enclosure's budget over its blades.
	EM Level = "EM"
	// GM divides the group budget over the enclosures, then the standalone
	// servers.
	GM Level = "GM"
)

// Controller is the budget divider of one level.
type Controller struct {
	// Period is the epoch in ticks: T_em (25 in the paper's baseline) or
	// T_grp (50).
	Period int
	// Mode selects the coordination wiring.
	Mode Mode
	// Policy divides a parent's budget across its children.
	Policy policy.Division

	level      Level
	violations int
	epochs     int
	tracer     obs.Tracer
	// One division's children as the policy sees them, the registers their
	// shares go to and the shares, reused per division so the hot loop
	// allocates nothing.
	children []policy.Child
	sinks    []sink
	shares   []float64
}

// parent is what a division needs of the parent besides its children: its
// measured draw, its static budget and the recommendation from above.
type parent struct{ power, static, rec float64 }

// sink is the register a child's share goes to, an enclosure's cap_enc
// when enc is set and else a server's cap_loc, and that register's static
// bound (CAP_ENC or CAP_LOC).
type sink struct {
	enc    *cluster.Enclosure
	server int
	static float64
}

// New builds the budget divider of one level.
func New(level Level, mode Mode, pol policy.Division, period int) (*Controller, error) {
	if level != EM && level != GM {
		return nil, fmt.Errorf("budget: unknown level %q", level)
	}
	if period <= 0 {
		return nil, fmt.Errorf("budget: %s period %d", level, period)
	}
	if pol == nil {
		pol = policy.Proportional{}
	}
	return &Controller{Period: period, Mode: mode, Policy: pol, level: level}, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return string(c.level) }

// EpochPeriod implements the simulator's Epochal interface: the controller
// acts every Period ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// Tick re-provisions the level's budgets when due.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period == 0 {
		c.each(cl, func(p parent) { c.divide(k, cl, p) })
	}
}

// each loads the level's divisions into c.children and c.sinks one at a
// time and hands fn each one's parent: one per enclosure for the EM, one
// for the GM. The GM's children are the enclosures and then the standalone
// servers; a policy sees only (id, power, max power), so that order matters
// only to FIFO, and standalone IDs are offset past the enclosures to keep
// it unambiguous. CapGrp is both the GM's static budget and, min-ruled with
// the facility manager's, its recommendation.
func (c *Controller) each(cl *cluster.Cluster, fn func(parent)) {
	server := func(id, sid int) {
		c.children = append(c.children, policy.Child{ID: id, Power: cl.Power(sid), MaxPower: cl.ServerModel(sid).MaxPower()})
		c.sinks = append(c.sinks, sink{server: sid, static: cl.StaticCap(sid)})
	}
	if c.level == EM {
		for _, e := range cl.Enclosures {
			c.reset(len(e.Servers))
			for _, sid := range e.Servers {
				server(sid, sid)
			}
			fn(parent{power: e.Power, static: e.StaticCap, rec: e.DynCap})
		}
		return
	}
	standalone := cl.StandaloneServers()
	c.reset(len(cl.Enclosures) + len(standalone))
	for _, e := range cl.Enclosures {
		maxP := 0.0
		for _, sid := range e.Servers {
			maxP += cl.ServerModel(sid).MaxPower()
		}
		c.children = append(c.children, policy.Child{ID: e.ID, Power: e.Power, MaxPower: maxP})
		c.sinks = append(c.sinks, sink{enc: e, static: e.StaticCap})
	}
	for _, sid := range standalone {
		server(len(cl.Enclosures)+sid, sid)
	}
	fn(parent{power: cl.GroupPower, static: cl.CapGrp(), rec: cl.CapGrp()})
}

// reset empties the division buffers for n children. They grow to exactly
// n when they must: a fleet's GM division is tens of thousands of children,
// and growing by append would leave each smaller copy behind.
func (c *Controller) reset(n int) {
	if cap(c.children) < n {
		c.children, c.sinks = make([]policy.Child, 0, n), make([]sink, 0, n)
	}
	c.children, c.sinks = c.children[:0], c.sinks[:0]
}

// divide applies Fig. 6's law to the loaded division and counts the epoch,
// and a violation when the parent drew more than its static budget.
func (c *Controller) divide(k int, cl *cluster.Cluster, p parent) {
	c.epochs++
	if p.power > p.static {
		c.violations++
	}
	budget := p.static
	if c.Mode == Coordinated && p.rec < budget {
		budget = p.rec // min(CAP_parent, recommendation from above)
	}
	c.shares = c.Policy.Divide(c.shares, budget, c.children)
	reason := "min-rule-share"
	if c.Mode == Uncoordinated {
		reason = "raw-share" // no min: overwrite whatever the child had
	}
	for i, s := range c.sinks {
		rec := c.shares[i]
		if c.Mode == Coordinated && rec > s.static {
			rec = s.static // min(CAP_child, share)
		}
		old := s.set(cl, rec)
		if c.tracer != nil {
			act, target := obs.ActServerCap, s.server
			if s.enc != nil {
				act, target = obs.ActEnclosureCap, s.enc.ID
			}
			c.tracer.Emit(obs.Event{Tick: k, Controller: c.Name(), Actuator: act,
				Target: target, Old: old, New: rec, Reason: reason})
		}
	}
}

// set writes the child's dynamic budget and returns the one it replaced.
func (s sink) set(cl *cluster.Cluster, watts float64) (old float64) {
	if s.enc != nil {
		old, s.enc.DynCap = s.enc.DynCap, watts
		return old
	}
	old = cl.DynCap(s.server)
	cl.SetDynCap(s.server, watts)
	return old
}

// FailSafe resets every child's dynamic budget to its static budget — the
// degraded-mode fallback after the controller is disabled by a panic
// (sim.FaultDegrade). Enclosures fall back to CAP_ENC and servers to
// CAP_LOC: the statically provisioned hierarchy (§2.1) the dynamic
// re-provisioning always stayed below (the min rule), so each level's
// bound degrades gracefully to its design-time value instead of drifting.
func (c *Controller) FailSafe(k int, cl *cluster.Cluster) {
	c.each(cl, func(parent) {
		for _, s := range c.sinks {
			s.set(cl, s.static)
		}
	})
}

// DrainViolations returns and resets the level's violation telemetry
// (Fig. 4: "expose power budget violations to VMC").
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// ctrlState is the controller's serializable state: undrained telemetry
// plus the division policy's accumulated state (History's EWMA), when it
// has any. The policy instance is shared by the EM and the GM in the
// default stack; both snapshot it at the same tick boundary, so the
// duplicate restore is idempotent.
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
			return fmt.Errorf("budget: %s snapshot carries %s policy state but the policy is stateless", c.level, c.Policy.Name())
		}
		return sp.RestorePolicyState(st.Policy)
	}
	return nil
}
