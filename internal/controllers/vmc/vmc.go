// Package vmc implements the virtual machine controller — the outermost,
// slowest loop of the paper's architecture (§3.1 "Virtual machine
// controller"). Every epoch it re-solves a constrained placement problem
// that maps VMs onto servers to minimize aggregate power plus migration
// overhead, consolidating load and turning emptied machines off.
//
// The three coordination changes the paper adds to a conventional VM
// consolidator (Fig. 4) are all here, individually switchable so the Fig. 9
// interface ablations can be reproduced:
//
//  1. "Use real utilization": demand estimates are corrected for the current
//     P-state (real = apparent × capacity) so a throttled server is not
//     mistaken for a busy one, and a busy one not for a consolidation
//     candidate (UseRealUtil).
//  2. "Use power budgets as constraints": the local/enclosure/group budgets,
//     shrunk by safety buffers b_loc/b_enc/b_grp, constrain the packing
//     (UseBudgets).
//  3. "Explicit feedback to violations": the buffers are tuned from the
//     violation telemetry the capping controllers expose, damping the
//     vicious consolidate→throttle→consolidate cycle (UseFeedback).
package vmc

import (
	"fmt"
	"math"

	"nopower/internal/binpack"
	"nopower/internal/cluster"
	"nopower/internal/controllers/ec"
	"nopower/internal/obs"
	"nopower/internal/state"
)

// ViolationSource is the telemetry interface the capping controllers expose
// to the VMC (Fig. 4): over-budget epochs and total epochs since last drain.
type ViolationSource interface {
	DrainViolations() (violations, epochs int)
}

// Config selects the VMC's behaviour.
type Config struct {
	// Period is T_vmc in ticks (500 in the paper's baseline).
	Period int
	// SamplePeriod is how often the demand estimator samples the per-VM
	// utilization sensors; defaults to Period/20 (min 1).
	SamplePeriod int
	// UseRealUtil applies the P-state correction to utilization readings.
	UseRealUtil bool
	// UseBudgets enforces power budgets as packing constraints.
	UseBudgets bool
	// UseFeedback tunes the budget buffers from violation telemetry.
	UseFeedback bool
	// AllowOff permits powering emptied servers down (§5.4 studies the
	// effect of forbidding this).
	AllowOff bool
	// PackFraction is the fraction of a server's full-speed capacity the
	// packer may fill (leaves control headroom for the EC/SM).
	PackFraction float64
	// AssumeEC selects the packer's internal power model. When true the VMC
	// knows an efficiency controller will throttle packed servers to the
	// r_ref operating point, so a bin's power envelope runs from the deepest
	// P-state's idle draw up to the P0 draw at r_ref — a linear secant of
	// the EC-managed steady state. When false (no EC deployed), servers stay
	// at P0 and the plain P0 model applies.
	AssumeEC bool
	// DelayWeight switches the optimizer toward an energy-delay objective
	// (§6.1 extension 6): positive values penalize dense packing in
	// proportion to utilization squared, trading some consolidation savings
	// for latency headroom. Zero keeps the paper's pure-power objective.
	DelayWeight float64
	// Headroom scales the demand-variability margin added to the mean
	// estimate (estimate = mean + Headroom·meanAbsDeviation).
	Headroom float64
}

const (
	// migrationWeight is α_M expressed as a Watts-equivalent objective cost
	// per migration.
	migrationWeight = 5
	// bufferStep, bufferDecay and bufferMax shape the feedback buffers: the
	// rise per violating epoch share, the decay per 500 quiet ticks, and
	// the ceiling.
	bufferStep  = 0.15
	bufferDecay = 0.02
	bufferMax   = 0.10
)

// Controller is the VM consolidation controller.
type Controller struct {
	cfg Config

	// Violation telemetry sources per level (any may be nil).
	smViol, emViol, gmViol ViolationSource
	// perfViol is the optional performance-SLO telemetry (§7 future work):
	// sustained SLO misses shrink the effective pack fraction.
	perfViol ViolationSource

	// Demand estimator state, per VM: EWMA of the observed utilization and
	// of its absolute deviation.
	mean, dev []float64
	seeded    []bool

	// Feedback buffers b_loc, b_enc, b_grp (Fig. 6 eqs. 3-5), plus the
	// performance-headroom buffer b_perf (§7 extension).
	bLoc, bEnc, bGrp, bPerf float64

	// Telemetry.
	migrations int
	repacks    int
	unplaced   int
	tracer     obs.Tracer
}

// New builds a VMC over the cluster.
func New(cl *cluster.Cluster, cfg Config) (*Controller, error) {
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("vmc: period %d", cfg.Period)
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = cfg.Period / 20
		if cfg.SamplePeriod < 1 {
			cfg.SamplePeriod = 1
		}
	}
	if cfg.PackFraction <= 0 || cfg.PackFraction > 1 {
		return nil, fmt.Errorf("vmc: pack fraction %v", cfg.PackFraction)
	}
	return &Controller{
		cfg:    cfg,
		mean:   make([]float64, len(cl.VMs)),
		dev:    make([]float64, len(cl.VMs)),
		seeded: make([]bool, len(cl.VMs)),
	}, nil
}

// AttachViolationSources wires the capping controllers' telemetry. Any
// source may be nil (e.g. a VMC-only deployment).
func (c *Controller) AttachViolationSources(sm, em, gm ViolationSource) {
	c.smViol, c.emViol, c.gmViol = sm, em, gm
}

// AttachPerfSource wires performance-SLO telemetry: SLO misses raise the
// b_perf headroom buffer, which shrinks the effective pack fraction — the
// performance domain speaking the same feedback language as the cappers.
func (c *Controller) AttachPerfSource(src ViolationSource) { c.perfViol = src }

// PerfBuffer reports the current b_perf headroom buffer.
func (c *Controller) PerfBuffer() float64 { return c.bPerf }

// Name implements the simulator's Controller interface.
func (c *Controller) Name() string { return "VMC" }

// EpochPeriod implements the simulator's Epochal interface. The VMC does
// work every SamplePeriod ticks (the demand estimator), not just on the
// consolidation epochs, so that is the tick set its profiling spans cover.
func (c *Controller) EpochPeriod() int { return c.cfg.SamplePeriod }

// SetTracer attaches an observability tracer; nil disables tracing.
func (c *Controller) SetTracer(t obs.Tracer) { c.tracer = t }

// Buffers reports the current feedback buffers (b_loc, b_enc, b_grp).
func (c *Controller) Buffers() (bLoc, bEnc, bGrp float64) { return c.bLoc, c.bEnc, c.bGrp }

// Migrations reports the cumulative migration count.
func (c *Controller) Migrations() int { return c.migrations }

// Unplaced reports how many items could not be feasibly placed, cumulative.
func (c *Controller) Unplaced() int { return c.unplaced }

// Estimates returns the current per-VM packing demand estimates: the
// estimator state the VMC tests observe (convergence, the real-utilization
// correction under throttling, the snapshot round trip).
func (c *Controller) Estimates(cl *cluster.Cluster) []float64 {
	out := make([]float64, len(cl.VMs))
	for i := range cl.VMs {
		out[i] = c.estimate(cl.VMs[i].ID)
	}
	return out
}

// ctrlState is the VMC's serializable state: the demand estimator, the
// feedback buffers, and the telemetry counters.
type ctrlState struct {
	Mean, Dev               []float64
	Seeded                  []bool
	BLoc, BEnc, BGrp, BPerf float64
	Migrations              int
	Repacks                 int
	Unplaced                int
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(ctrlState{}) }

// State implements the simulator's Snapshotter interface.
func (c *Controller) State() ([]byte, error) {
	return state.Marshal(ctrlState{
		Mean: append([]float64(nil), c.mean...), Dev: append([]float64(nil), c.dev...),
		Seeded: append([]bool(nil), c.seeded...),
		BLoc:   c.bLoc, BEnc: c.bEnc, BGrp: c.bGrp, BPerf: c.bPerf,
		Migrations: c.migrations, Repacks: c.repacks, Unplaced: c.unplaced,
	})
}

// Restore implements the simulator's Snapshotter interface.
func (c *Controller) Restore(data []byte) error {
	var st ctrlState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if len(st.Mean) != len(c.mean) || len(st.Dev) != len(c.dev) || len(st.Seeded) != len(c.seeded) {
		return fmt.Errorf("vmc: state covers %d VMs, controller has %d", len(st.Mean), len(c.mean))
	}
	copy(c.mean, st.Mean)
	copy(c.dev, st.Dev)
	copy(c.seeded, st.Seeded)
	c.bLoc, c.bEnc, c.bGrp, c.bPerf = st.BLoc, st.BEnc, st.BGrp, st.BPerf
	c.migrations, c.repacks, c.unplaced = st.Migrations, st.Repacks, st.Unplaced
	return nil
}

// Tick samples the demand estimator and, on VMC epochs, repacks the cluster.
func (c *Controller) Tick(k int, cl *cluster.Cluster) {
	if k%c.cfg.SamplePeriod == 0 {
		c.sample(cl)
	}
	if k%c.cfg.Period != 0 || k == 0 {
		// Skip the very first tick: no sensor data exists yet.
		return
	}
	if c.cfg.UseFeedback {
		c.updateBuffers()
	}
	c.repack(k, cl)
}

// sample folds the current per-VM utilization observation into the EWMA
// estimator. The observation is what the Sr sensor of Fig. 2 would report:
// the VM's share of its host's utilization — apparent, or corrected to real
// by multiplying with the host's current capacity (the paper's "simple
// models ... translate apparent utilization to real utilization when the
// power state is known").
func (c *Controller) sample(cl *cluster.Cluster) {
	const alpha = 0.25
	if cl.LastTick < 0 {
		return // no sensor data before the first Advance
	}
	for i := range cl.VMs {
		vm := &cl.VMs[i]
		host := vm.Server
		var obs float64
		if cl.On(host) && cl.DemandSum(host) > 0 {
			obs = observedShare(cl, vm, host)
			if c.cfg.UseRealUtil {
				// Translate apparent to real utilization using the host's
				// current power state (the paper's "simple models").
				obs *= cl.Capacity(host)
			}
		}
		if !c.seeded[vm.ID] {
			c.mean[vm.ID], c.dev[vm.ID], c.seeded[vm.ID] = obs, obs*0.25, true
			continue
		}
		d := math.Abs(obs - c.mean[vm.ID])
		// Each float64(x*y) rounds its product, so no GOARCH fuses it into
		// a multiply-add and the estimate has the same bits everywhere.
		c.mean[vm.ID] = float64(alpha*obs) + float64((1-alpha)*c.mean[vm.ID])
		c.dev[vm.ID] = float64(alpha*d) + float64((1-alpha)*c.dev[vm.ID])
	}
}

// observedShare returns the utilization the Sr sensor attributes to one VM:
// the host splits its measured utilization across VMs proportionally to
// their (overhead-inflated) demands. Apparent readings are in units of the
// host's *current* capacity and therefore both saturate under overload and
// overstate demand under throttling; the real-utilization correction
// (applied in estimate) multiplies by the host capacity — the paper's fix.
func observedShare(cl *cluster.Cluster, vm *cluster.VM, host int) float64 {
	demand := vm.Trace.At(cl.LastTick) * (1 + cl.Cfg.AlphaV)
	ds := cl.DemandSum(host)
	if ds <= 0 {
		return 0
	}
	return cl.Util(host) * demand / ds
}

// estimate returns the packing demand estimate for a VM: smoothed mean plus
// a variability margin. Units are whatever the sampler recorded — real
// (full-speed) when UseRealUtil, raw apparent otherwise, which is exactly
// the naive consolidator's mistake.
func (c *Controller) estimate(vmID int) float64 {
	est := c.mean[vmID] + float64(c.cfg.Headroom*c.dev[vmID])
	if est < 0.01 {
		est = 0.01
	}
	if est > 1.3 {
		est = 1.3
	}
	return est
}

// updateBuffers drains violation telemetry and adjusts the consolidation
// buffers: violations push the buffer up (more conservative packing);
// quiet epochs decay it.
func (c *Controller) updateBuffers() {
	c.bLoc = c.adjust(c.bLoc, c.smViol)
	c.bEnc = c.adjust(c.bEnc, c.emViol)
	c.bGrp = c.adjust(c.bGrp, c.gmViol)
	c.bPerf = c.adjust(c.bPerf, c.perfViol)
}

func (c *Controller) adjust(b float64, src ViolationSource) float64 {
	if src == nil {
		return b
	}
	viol, epochs := src.DrainViolations()
	if epochs > 0 && viol > 0 {
		b += bufferStep * float64(viol) / float64(epochs)
	} else {
		// The upward step is event-driven (per violation report); the decay
		// is a TIME rate, scaled by the epoch length. A faster-running VMC
		// therefore steps up more often but decays no faster — the paper's
		// "increased aggressiveness in the feedback parameter with
		// increased frequency of operation" (§5.4).
		b -= bufferDecay * float64(c.cfg.Period) / 500.0
	}
	if b < 0 {
		b = 0
	}
	if b > bufferMax {
		b = bufferMax
	}
	return b
}

// repack solves the placement problem and applies the moves.
func (c *Controller) repack(k int, cl *cluster.Cluster) {
	c.repacks++
	items := make([]binpack.Item, len(cl.VMs))
	for i := range cl.VMs {
		items[i] = binpack.Item{ID: cl.VMs[i].ID, Demand: c.estimate(cl.VMs[i].ID), Current: cl.VMs[i].Server}
	}
	bins := make([]binpack.Bin, cl.NumServers())
	encBudgets := map[int]float64{}
	grpBudget := 0.0
	if c.cfg.UseBudgets {
		for _, e := range cl.Enclosures {
			encBudgets[e.ID] = (1 - c.bEnc) * e.StaticCap
		}
		grpBudget = (1 - c.bGrp) * cl.CapGrp()
	}
	// The EC-managed envelope is drawn at the EC's utilization target.
	const rRef = ec.DefaultRRef
	packFraction := c.cfg.PackFraction * (1 - c.bPerf)
	for i, n := 0, cl.NumServers(); i < n; i++ {
		m := cl.ServerModel(i)
		budget := math.Inf(1)
		if c.cfg.UseBudgets {
			budget = (1 - c.bLoc) * cl.StaticCap(i)
		}
		capacity := packFraction * m.Capacity(0)
		idle := m.PStates[0].D
		slope := m.PStates[0].C
		if c.cfg.AssumeEC {
			// EC-managed envelope: an empty server idles in the deepest
			// P-state; a server loaded to L runs at capacity ≈ L/r_ref, so
			// at L = r_ref it is back at P0 with utilization r_ref. The
			// secant between those endpoints is the packer's linear
			// objective model.
			deep := m.PStates[m.NumPStates()-1]
			idle = deep.D
			slope = (m.Power(0, rRef) - deep.D) / rRef
			if c.cfg.UseBudgets {
				// Local-budget feasibility uses the exact (piecewise)
				// EC steady-state curve rather than the linear secant,
				// which is pessimistic at mid loads: fold the budget
				// into the bin capacity and lift the linear cap.
				capacity = m.MaxLoadUnderCap(rRef, budget, capacity)
				budget = math.Inf(1)
				if capacity <= 0 {
					capacity = 1e-6 // nothing fits, but keep the bin valid
				}
			}
		}
		bins[i] = binpack.Bin{
			ID:           i,
			Capacity:     capacity,
			FullCapacity: m.Capacity(0),
			IdlePower:    idle,
			PowerSlope:   slope,
			PowerBudget:  budget,
			Enclosure:    cl.EnclosureOf(i),
			On:           cl.On(i),
		}
	}
	res, err := binpack.Solve(binpack.Problem{
		Items:            items,
		Bins:             bins,
		EnclosureBudgets: encBudgets,
		GroupBudget:      grpBudget,
		MigrationWeight:  migrationWeight,
		DelayWeight:      c.cfg.DelayWeight,
	})
	if err != nil {
		// A solver error means a malformed problem; placement is left
		// untouched (the safe failure mode for an optimizer).
		return
	}
	c.unplaced += res.Unplaced

	for i := range cl.VMs {
		vm := &cl.VMs[i]
		target := res.Assignment[i]
		if target != vm.Server {
			from := vm.Server
			if err := cl.Move(vm.ID, target, k); err == nil {
				c.migrations++
				if c.tracer != nil {
					c.tracer.Emit(obs.Event{Tick: k, Controller: "VMC", Actuator: obs.ActPlacement,
						Target: vm.ID, Old: float64(from), New: float64(target), Reason: "repack"})
				}
			}
		}
	}
	if c.cfg.AllowOff {
		for i, n := 0, cl.NumServers(); i < n; i++ {
			if cl.On(i) && len(cl.ServerVMs(i)) == 0 {
				// PowerOff only fails for non-empty servers, checked above.
				_ = cl.PowerOff(i)
				if c.tracer != nil {
					c.tracer.Emit(obs.Event{Tick: k, Controller: "VMC", Actuator: obs.ActPower,
						Target: i, Old: 1, New: 0, Reason: "consolidation-off"})
				}
			}
		}
	}
}
