// Package vmec implements VM-level efficiency control — the paper's §6.1
// extension (4): "multiple ECs implemented at the VM level ... addressed
// with an arbitration interface similar to the <min> interface used for
// SM/EM/GM interactions, though likely more generalized".
//
// Each VM gets its own utilization loop in the style of the paper's cited
// basis (Wang, Zhu, Singhal — utilization-based dynamic sizing of resource
// partitions): the loop resizes the VM's CPU *allocation* (its container, in
// full-speed platform units) so the VM's utilization of that allocation
// tracks r_ref. The platform-level arbitration is a generalized sum/clamp:
// the host's frequency is set to cover the sum of all resident allocations.
//
// Coordination with the SM is unchanged: the SM broadcasts its r_ref output
// to every loop resident on the server (SetRRef), so power capping throttles
// all resident VMs together, exactly as with the platform-level EC — the
// Controller satisfies the same RRefSetter interface.
package vmec

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/control"
	"nopower/internal/obs"
	"nopower/internal/state"
)

// minAllocation floors a VM's container so an idle VM can still wake up.
const minAllocation = 0.02

// Controller runs one utilization loop per VM and arbitrates per server.
type Controller struct {
	// Period is the control interval in ticks (T_ec).
	Period int

	loops   []*control.UtilizationLoop // indexed by VM ID
	targets []float64                  // per-server r_ref broadcast by the SM
	wasOn   []bool                     // per server
	rRef0   float64
	tracer  obs.Tracer
}

// New builds a VM-level EC over every VM of the cluster.
func New(cl *cluster.Cluster, lambda, rRef float64, period int) (*Controller, error) {
	if period <= 0 {
		return nil, fmt.Errorf("vmec: period %d", period)
	}
	c := &Controller{Period: period, rRef0: rRef}
	for i, n := 0, cl.NumServers(); i < n; i++ {
		c.wasOn = append(c.wasOn, true)
		c.targets = append(c.targets, rRef)
	}
	for i := range cl.VMs {
		loop, err := control.NewUtilizationLoop(lambda, rRef, minAllocation, 1.0)
		if err != nil {
			return nil, fmt.Errorf("vmec: vm %d: %w", cl.VMs[i].ID, err)
		}
		c.loops = append(c.loops, &loop)
	}
	return c, nil
}

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "VMEC" }

// EpochPeriod implements the simulator's Epochal interface: the VMEC acts
// every T_ec ticks.
func (c *Controller) EpochPeriod() int { return c.Period }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// SetRRef records a per-server utilization target; at the next control epoch
// it is broadcast to every VM loop resident there — the SM's coordination
// channel, generalized from one loop to many.
func (c *Controller) SetRRef(server int, rRef float64) {
	if server >= 0 && server < len(c.targets) {
		c.targets[server] = control.Clamp(rRef, 0.01, control.MaxRRef)
	}
}

// RRef reports the server's current broadcast target.
func (c *Controller) RRef(server int) float64 {
	if server < 0 || server >= len(c.targets) {
		return c.rRef0
	}
	return c.targets[server]
}

// Allocation reports a VM's current container size (telemetry for tests).
func (c *Controller) Allocation(vmID int) float64 { return c.loops[vmID].F }

// ctrlState is the VMEC's serializable state: per-VM loop cursors, the
// per-server broadcast targets, and the boot-detection latches.
type ctrlState struct {
	RRef, F []float64
	Targets []float64
	WasOn   []bool
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	st := ctrlState{
		RRef:    make([]float64, len(c.loops)),
		F:       make([]float64, len(c.loops)),
		Targets: append([]float64(nil), c.targets...),
		WasOn:   append([]bool(nil), c.wasOn...),
	}
	for i, loop := range c.loops {
		st.RRef[i], st.F[i] = loop.RRef, loop.F
	}
	return state.Marshal(st)
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.RRef) != len(c.loops) || len(st.F) != len(c.loops) ||
		len(st.Targets) != len(c.targets) || len(st.WasOn) != len(c.wasOn) {
		return fmt.Errorf("vmec: state shape mismatch (%d loops / %d servers, have %d / %d)",
			len(st.RRef), len(st.Targets), len(c.loops), len(c.targets))
	}
	for i, loop := range c.loops {
		loop.RRef, loop.F = st.RRef[i], st.F[i]
	}
	copy(c.targets, st.Targets)
	copy(c.wasOn, st.WasOn)
	return nil
}

// Tick steps every resident VM loop and arbitrates each powered server's
// frequency to cover the sum of its allocations.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.Period != 0 {
		return
	}
	c.tickServers(k, cl, nil)
}

// TickShard implements the simulator's ShardTicker interface: it steps only
// the listed servers (and the VM loops resident on them). VM placement is a
// partition — every VM lives on exactly one server — so disjoint server sets
// touch disjoint loops and concurrent calls never race.
func (c *Controller) TickShard(k int, cl *cluster.Cluster, servers []int) {
	if k%c.Period != 0 {
		return
	}
	c.tickServers(k, cl, servers)
}

// tickServers steps the loops for the given server IDs (nil = all).
func (c *Controller) tickServers(k int, cl *cluster.Cluster, servers []int) {
	n := cl.NumServers()
	if servers != nil {
		n = len(servers)
	}
	for j := 0; j < n; j++ {
		sid := j
		if servers != nil {
			sid = servers[j]
		}
		if !cl.On(sid) {
			c.wasOn[sid] = false
			continue
		}
		hosted := cl.ServerVMs(sid)
		if !c.wasOn[sid] {
			// Fresh boot: reset resident loops and the broadcast target.
			c.targets[sid] = c.rRef0
			for _, vmID := range hosted {
				c.loops[vmID].F = 1.0 / float64(len(hosted))
				c.loops[vmID].SetReference(c.rRef0)
			}
			c.wasOn[sid] = true
		}
		sum := 0.0
		for _, vmID := range hosted {
			loop := c.loops[vmID]
			loop.SetReference(c.targets[sid])
			demand := 0.0
			if cl.LastTick >= 0 {
				demand = cl.VMs[vmID].Trace.At(cl.LastTick) * (1 + cl.Cfg.AlphaV)
			}
			// The VM's consumption of its container and the resulting
			// utilization (the per-VM Appendix-A plant).
			consumed := demand
			if consumed > loop.F {
				consumed = loop.F
			}
			u := 0.0
			if loop.F > 0 {
				u = consumed / loop.F
			}
			loop.StepEC(u, consumed)
			sum += loop.F
		}
		// Arbitration: the platform covers the resident allocations.
		if len(hosted) > 0 {
			m := cl.ServerModel(sid)
			old := cl.PState(sid)
			next := m.Quantize(m.ClampFreq(sum * m.MaxFreq()))
			cl.SetPState(sid, next)
			if c.tracer != nil {
				c.tracer.Emit(obs.Event{Tick: k, Controller: "VMEC", Actuator: obs.ActPState,
					Target: sid, Old: float64(old), New: float64(next), Reason: "vm-arbitration"})
			}
		}
	}
}
