// Package sm implements the server manager — per-server thermal power
// capping (§3.1 "Local power capping"). It measures server power, compares
// it with the effective local budget, and reacts.
//
// The key coordination idea of the paper lives here: in the coordinated
// architecture the SM does NOT touch the P-state. It actuates the EC's
// utilization target instead (Fig. 6, eq. SM):
//
//	r_ref(k̂) = r_ref(k̂−1) − β_loc·(cap_loc − pow(k̂−1))
//
// so a budget violation raises r_ref, the EC shrinks the container, and
// power falls — with the SM↔EC interaction analyzable exactly like a
// workload change (Appendix A: stable for 0 < β_loc < 2/c_max; r_ref floored
// at 0.75).
//
// The uncoordinated variant reproduces the commercial state of the art the
// paper warns about (§2.3): the SM writes the P-state directly, on the same
// knob the EC uses, and the two overwrite each other.
package sm

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/control"
	"nopower/internal/obs"
	"nopower/internal/state"
)

// RRefSetter is the EC-side coordination interface: the one API the paper
// adds to the EC (Fig. 4).
type RRefSetter interface {
	SetRRef(server int, rRef float64)
	RRef(server int) float64
}

// Mode selects the actuation style.
type Mode int

const (
	// Coordinated actuates the EC's r_ref (the paper's design).
	Coordinated Mode = iota
	// Uncoordinated writes P-states directly, racing with the EC.
	Uncoordinated
)

// Controller is the per-server power capper.
type Controller struct {
	// Period is T_sm in ticks (5 in the paper's baseline).
	Period int
	// Mode selects coordinated or uncoordinated actuation.
	Mode Mode

	ec RRefSetter
	// loops is a value slice: per-server loop states live contiguously,
	// matching the cluster's columnar layout.
	loops []control.CappingLoop
	// violations counts server-epochs over budget since the last Drain —
	// the telemetry the coordinated design "exposes to the VMC" (Fig. 4).
	violations int
	epochs     int
	tracer     obs.Tracer
}

// RRefCeil bounds the actuated utilization target. It is deliberately above
// 1: targets in (1, RRefCeil] are how the SM throttles a saturated server
// (see control.MaxRRef) — the paper specifies only the 0.75 floor.
const RRefCeil = 1.5

// New builds an SM over every server. In Coordinated mode ecIface must be
// non-nil; beta <= 0 selects a per-server default of half the Appendix-A
// stability bound computed from the server's power model.
func New(cl *cluster.Cluster, ecIface RRefSetter, mode Mode, beta float64, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("sm: period %d", period)
	}
	if mode == Coordinated && ecIface == nil {
		return nil, fmt.Errorf("sm: coordinated mode needs the EC interface")
	}
	c := &Controller{Period: period, Mode: mode, ec: ecIface, loops: make([]control.CappingLoop, cl.NumServers())}
	for i := range c.loops {
		b := beta
		if b <= 0 {
			// Normalize the Appendix-A bound by the model's power/r_ref
			// slope so the gain is expressed in r_ref-per-Watt.
			b = control.DefaultBeta(cl.ServerModel(i).CapSlopeMax())
		}
		loop, err := control.NewCappingLoop(b, cl.StaticCap(i), 0.75, RRefCeil)
		if err != nil {
			return nil, fmt.Errorf("sm: server %d: %w", i, err)
		}
		// Release the throttle more cautiously than it is applied (thermal
		// protection asymmetry): bounds the violation duty cycle under
		// sustained overload.
		loop.DownScale = 0.25
		c.loops[i] = loop
	}
	return c, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "SM" }

// EpochPeriod implements the simulator's Epochal interface: the SM acts
// every T_sm ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// Tick runs the capping law on every powered server that is due.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	for i, n := 0, cl.NumServers(); i < n; i++ {
		if !cl.On(i) {
			continue
		}
		c.epochs++
		cap := c.effectiveCap(cl, i)
		pow := cl.Power(i)
		// Telemetry counts violations of the server's OWN thermal budget
		// (CAP_LOC), not of the dynamic allocation: a group-level shortfall
		// is the GM's violation to report, and conflating the two would
		// push the VMC's local buffer instead of its group buffer.
		if pow > cl.StaticCap(i) {
			c.violations++
		}
		switch c.Mode {
		case Coordinated:
			loop := &c.loops[i]
			loop.SetReference(cap)
			oldRef := loop.RRef
			rRef := loop.Step(pow)
			c.ec.SetRRef(i, rRef)
			if c.tracer != nil {
				c.tracer.Emit(obs.Event{Tick: k, Controller: "SM", Actuator: obs.ActRRef,
					Target: i, Old: oldRef, New: rRef, Reason: "power-cap"})
			}
		case Uncoordinated:
			// Commercial-style hardware capper: clamp to the shallowest
			// P-state whose projected draw at the present demand meets the
			// budget; recover one state when comfortably under. It shares
			// the P-state knob with the EC, which overwrites it on the
			// EC's next tick — the "power struggle": the cap holds for one
			// tick out of every T_sm, the violation persists the rest.
			old := cl.PState(i)
			if pow > cap {
				m := cl.ServerModel(i)
				for cl.PState(i) < m.NumPStates()-1 && projected(cl, i) > cap {
					cl.SetPState(i, cl.PState(i)+1)
				}
				if c.tracer != nil {
					c.tracer.Emit(obs.Event{Tick: k, Controller: "SM", Actuator: obs.ActPState,
						Target: i, Old: float64(old), New: float64(cl.PState(i)), Reason: "cap-clamp"})
				}
			} else if pow < 0.85*cap && cl.PState(i) > 0 {
				cl.SetPState(i, cl.PState(i)-1)
				if c.tracer != nil {
					c.tracer.Emit(obs.Event{Tick: k, Controller: "SM", Actuator: obs.ActPState,
						Target: i, Old: float64(old), New: float64(cl.PState(i)), Reason: "cap-recover"})
				}
			}
		}
	}
}

// projected estimates the draw of server i at its current P-state with its
// present demand.
func projected(cl *cluster.Cluster, i int) float64 {
	m := cl.ServerModel(i)
	p := cl.PState(i)
	cap := m.Capacity(p)
	r := 1.0
	if d := cl.DemandSum(i); cap > 0 && d < cap {
		r = d / cap
	}
	return m.Power(p, r)
}

// effectiveCap returns the budget the SM enforces. Coordinated: the paper's
// min rule over the static budget and the EM/GM recommendation (which the
// cluster stores in DynCap, itself already min'ed upstream). Uncoordinated:
// whatever was last written to DynCap wins — no min — reproducing the
// last-writer-wins conflict of independent products.
func (c *Controller) effectiveCap(cl *cluster.Cluster, i int) float64 {
	dyn, static := cl.DynCap(i), cl.StaticCap(i)
	if c.Mode == Coordinated {
		if dyn < static {
			return dyn
		}
		return static
	}
	if dyn > 0 {
		return dyn
	}
	return static
}

// FailSafe drives every powered server to the most conservative capping
// posture — the degraded-mode fallback the engine invokes after the SM is
// disabled by a panic (sim.FaultDegrade). Coordinated: r_ref is pinned at
// the ceiling through the EC channel, so the utilization loop throttles to
// the deepest P-state and the thermal budget stays respected without any SM
// feedback. Uncoordinated: the P-state itself is pinned deepest, after any
// other writer of the knob has acted this tick.
func (c *Controller) FailSafe(k int, cl *cluster.Cluster) {
	for i, n := 0, cl.NumServers(); i < n; i++ {
		if !cl.On(i) {
			continue
		}
		if c.Mode == Coordinated {
			c.ec.SetRRef(i, RRefCeil)
		} else {
			cl.SetPState(i, cl.ServerModel(i).NumPStates()-1)
		}
	}
}

// DrainViolations returns and resets the violation telemetry: the count of
// over-budget server-epochs and the epoch count since the previous drain.
// This is the "expose power budget violations to VMC" interface of Fig. 4.
func (c *Controller) DrainViolations() (violations, epochs int) {
	violations, epochs = c.violations, c.epochs
	c.violations, c.epochs = 0, 0
	return violations, epochs
}

// ctrlState is the SM's serializable state: per-server capping-loop cursors
// and the undrained violation telemetry.
type ctrlState struct {
	RRef       []float64
	Cap        []float64
	Violations int
	Epochs     int
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	st := ctrlState{
		RRef:       make([]float64, len(c.loops)),
		Cap:        make([]float64, len(c.loops)),
		Violations: c.violations,
		Epochs:     c.epochs,
	}
	for i := range c.loops {
		st.RRef[i], st.Cap[i] = c.loops[i].RRef, c.loops[i].Cap
	}
	return state.Marshal(st)
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.RRef) != len(c.loops) || len(st.Cap) != len(c.loops) {
		return fmt.Errorf("sm: state covers %d loops, controller has %d", len(st.RRef), len(c.loops))
	}
	for i := range c.loops {
		c.loops[i].RRef, c.loops[i].Cap = st.RRef[i], st.Cap[i]
	}
	c.violations, c.epochs = st.Violations, st.Epochs
	return nil
}
