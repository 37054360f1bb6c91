// Package ec implements the efficiency controller — the innermost loop of
// the paper's architecture (§3.1). Per server, it regulates CPU utilization
// around a target r_ref by resizing the "container" (the clock frequency,
// actuated through P-states), so consumed power tracks the workload's
// resource demand in real time.
//
// Control law (Fig. 6, eq. EC): f(k) = f(k−1) − λ·(f_C(k−1)/r_ref)·(r_ref −
// r(k−1)), with the continuous frequency quantized to the nearest available
// P-state. The integral gain is self-tuning (proportional to consumption);
// stability is guaranteed for 0 < λ < 1/r_ref (Appendix A).
//
// Coordination: the EC "exposes an API to the SM to change r_ref" (Fig. 4) —
// SetRRef here. Nothing else about the controller changes between the
// coordinated and uncoordinated deployments; what differs is who else writes
// the P-state.
package ec

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/control"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/state"
)

// DefaultLambda is the paper's base EC gain (Fig. 5: λ = 0.8, below the
// 1/r_ref ≈ 1.33 global-stability bound at the 0.75 floor).
const DefaultLambda = 0.8

// DefaultRRef is the paper's utilization-target floor (75 %).
const DefaultRRef = 0.75

// Controller runs one utilization loop per server. Frequencies are handled
// in full-speed-relative units (1.0 = the model's P0 frequency) so that the
// loop state composes directly with the cluster's capacity/consumption
// sensors.
type Controller struct {
	// Period is T_ec in ticks (1 in the paper's baseline).
	Period int

	// loops is a value slice: the per-server loop states live contiguously,
	// matching the cluster's columnar layout (one cache-friendly stream per
	// fleet walk instead of a pointer chase per server).
	loops []control.UtilizationLoop
	wasOn []bool
	rRef0 float64
	// steps counts per-server control actions, one slot per server: a call
	// adds its count to the slot of the first server in its list (the serial
	// Tick to slot 0), so concurrent TickShard calls over disjoint server
	// sets write disjoint slots, and Steps sums them on read.
	steps  []int64
	tracer obs.Tracer
}

// New builds an EC over every server of the cluster.
func New(cl *cluster.Cluster, lambda, rRef float64, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("ec: period %d", period)
	}
	n := cl.NumServers()
	c := &Controller{Period: period, rRef0: rRef, steps: make([]int64, n),
		loops: make([]control.UtilizationLoop, n), wasOn: make([]bool, n)}
	for i := range c.loops {
		m := cl.ServerModel(i)
		fMin := m.MinFreq() / m.MaxFreq()
		loop, err := control.NewUtilizationLoop(lambda, rRef, fMin, 1.0)
		if err != nil {
			return nil, fmt.Errorf("ec: server %d: %w", i, err)
		}
		c.loops[i] = loop
		c.wasOn[i] = true
	}
	return c, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "EC" }

// EpochPeriod implements the simulator's Epochal interface: the EC acts
// every T_ec ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// SetRRef overloads server i's utilization target — the SM's coordination
// channel (Fig. 4: "Expose API to SM to change r_ref").
func (c *Controller) SetRRef(server int, rRef float64) {
	c.loops[server].SetReference(rRef)
}

// RRef reports server i's current utilization target.
func (c *Controller) RRef(server int) float64 { return c.loops[server].Reference() }

// Tick advances every per-server loop that is due this tick.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	c.tickServers(k, cl, nil)
}

// TickShard implements the simulator's ShardTicker interface: it advances
// only the listed servers' loops. Loop state and step counts are kept per
// server, so concurrent calls over disjoint server sets never race.
func (c *Controller) TickShard(k int, cl *cluster.Cluster, servers []int) {
	if k%c.Period != 0 || len(servers) == 0 {
		return
	}
	c.tickServers(k, cl, servers)
}

// tickServers advances the loops for the given server IDs (nil = all).
func (c *Controller) tickServers(k int, cl *cluster.Cluster, servers []int) {
	n, slot := cl.NumServers(), 0
	if servers != nil {
		n, slot = len(servers), servers[0]
	}
	steps := int64(0)
	// Fleets are usually model-homogeneous (or model-clustered), so the
	// per-model P0 frequency is hoisted across runs of servers sharing a
	// model pointer instead of being re-derived per server.
	var lastM *model.Model
	maxF := 0.0
	for j := 0; j < n; j++ {
		i := j
		if servers != nil {
			i = servers[j]
		}
		loop := &c.loops[i]
		if !cl.On(i) {
			c.wasOn[i] = false
			continue
		}
		if !c.wasOn[i] {
			// Fresh boot: restart the loop at full frequency with the
			// default target, mirroring cluster.PowerOn's P0 reset.
			loop.F = 1.0
			loop.SetReference(c.rRef0)
			c.wasOn[i] = true
		}
		// Sensors from the previous interval: r and f_C in relative units.
		loop.StepEC(cl.Util(i), cl.RealUtil(i))
		m := cl.ServerModel(i)
		if m != lastM {
			lastM, maxF = m, m.MaxFreq()
		}
		old := cl.PState(i)
		next := m.Quantize(loop.F * maxF)
		cl.SetPState(i, next)
		steps++
		if c.tracer != nil {
			// Every assignment is traced, not just changes: a same-value
			// rewrite is still a claim on the shared knob, which is exactly
			// what the conflict detector needs to see.
			c.tracer.Emit(obs.Event{Tick: k, Controller: "EC", Actuator: obs.ActPState,
				Target: i, Old: float64(old), New: float64(next), Reason: "utilization-loop"})
		}
	}
	c.steps[slot] += steps
}

// Steps reports how many per-server control actions have run (telemetry).
func (c *Controller) Steps() int {
	total := int64(0)
	for _, s := range c.steps {
		total += s
	}
	return int(total)
}

// ctrlState is the EC's serializable state: the per-server loop cursors
// (target and continuous frequency) plus the boot-detection latches.
type ctrlState struct {
	RRef  []float64
	F     []float64
	WasOn []bool
	Steps int
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	st := ctrlState{
		RRef:  make([]float64, len(c.loops)),
		F:     make([]float64, len(c.loops)),
		WasOn: append([]bool(nil), c.wasOn...),
		Steps: c.Steps(),
	}
	for i := range c.loops {
		st.RRef[i], st.F[i] = c.loops[i].RRef, c.loops[i].F
	}
	return state.Marshal(st)
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.RRef) != len(c.loops) || len(st.F) != len(c.loops) || len(st.WasOn) != len(c.loops) {
		return fmt.Errorf("ec: state covers %d loops, controller has %d", len(st.RRef), len(c.loops))
	}
	for i := range c.loops {
		c.loops[i].RRef, c.loops[i].F = st.RRef[i], st.F[i]
	}
	copy(c.wasOn, st.WasOn)
	clear(c.steps)
	c.steps[0] = int64(st.Steps)
	return nil
}
