// Package chaos is the fault-injection library for the simulation engine:
// generators that compile recurring fault patterns — flapping servers, sensor
// dropout and noise, budget flapping — into plain sim.Event schedules for the
// existing EventInjector, plus a controller wrapper that crashes at chosen
// ticks to exercise the engine's panic sandbox and degraded mode.
//
// The package exists to test the paper's §3.2 dynamism claim the way
// CloudPowerCap-style production stacks are tested: not "does the happy path
// converge" but "does the coordinated hierarchy keep its budget bounds when
// a component misbehaves". Everything here composes with the unmodified
// engine: chaos is data (events) or decoration (the Crash wrapper), never a
// special execution mode.
package chaos

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/obs"
	"nopower/internal/rng"
	"nopower/internal/sim"
)

// FlapServer compiles a server power-flap: the server hard-fails at start,
// is restored after period ticks, fails again after another period, and so
// on for cycles fail/restore pairs — the classic flapping host an HA layer
// keeps resurrecting. Each failure evacuates VMs exactly like sim.FailServer.
func FlapServer(server, start, period, cycles int) []sim.Event {
	if period < 1 {
		period = 1
	}
	var evs []sim.Event
	for c := 0; c < cycles; c++ {
		at := start + 2*c*period
		evs = append(evs, sim.FailServer(at, server))
		evs = append(evs, sim.RestoreServer(at+period, server))
	}
	return evs
}

// DropSensors compiles a sensor dropout window: on every tick in [from, to)
// the listed servers' utilization and power readings flatline to zero before
// the controllers of that tick read them (no servers listed = the whole
// cluster). The plant itself is untouched — the next Advance recomputes true
// readings — so this models a telemetry outage, not a power outage: the EC
// sees an idle machine, the SM sees no draw, and neither reacts until the
// window closes.
func DropSensors(from, to int, servers ...int) []sim.Event {
	var evs []sim.Event
	for k := from; k < to; k++ {
		evs = append(evs, sim.Event{
			At:   k,
			Name: fmt.Sprintf("sensor-drop-%d", k),
			Apply: func(cl *cluster.Cluster) {
				for _, id := range pickServers(cl, servers) {
					cl.SetSensorReadings(id, 0, 0, 0)
				}
			},
		})
	}
	return evs
}

// NoiseSensors compiles a measurement-noise window: on every tick in
// [from, to) each server's utilization and power readings are scaled by an
// independent factor 1+u, u uniform in [-amp, amp], deterministically from
// seed. This is the jittery telemetry of a real fleet; a robust capping
// stack must not amplify it into budget violations.
//
// The noise factor is a pure function of (seed, tick, server id) — no
// sequential stream — so a run resumed from a checkpoint draws the same
// noise as an uninterrupted run regardless of how many events have fired.
func NoiseSensors(from, to int, amp float64, seed int64, servers ...int) []sim.Event {
	var evs []sim.Event
	for k := from; k < to; k++ {
		tick := k
		evs = append(evs, sim.Event{
			At:   k,
			Name: fmt.Sprintf("sensor-noise-%d", k),
			Apply: func(cl *cluster.Cluster) {
				for _, id := range pickServers(cl, servers) {
					f := 1 + amp*(2*rng.Uniform(seed, tick, id)-1)
					u := cl.Util(id) * f
					if u > 1 {
						u = 1
					}
					cl.SetSensorReadings(id, u, cl.RealUtil(id)*f, cl.Power(id)*f)
				}
			},
		})
	}
	return evs
}

// pickServers resolves a server-index filter against the cluster; an empty
// filter selects every server, out-of-range indices are skipped.
func pickServers(cl *cluster.Cluster, ids []int) []int {
	n := cl.NumServers()
	if len(ids) == 0 {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	}
	out := make([]int, 0, len(ids))
	for _, id := range ids {
		if id >= 0 && id < n {
			out = append(out, id)
		}
	}
	return out
}

// FlapGroupBudget compiles budget flapping: starting at start the group
// budget alternates every period ticks between lowFrac and highFrac of the
// cluster's design-time budget (1−CapOffGrp)·maxGroupPower — an operator (or
// a confused higher-level manager) re-provisioning back and forth. cycles
// counts low/high pairs; the budget is left at highFrac·base after the last
// cycle.
//
// The base is recomputed from the cluster's immutable configuration inside
// each event rather than remembered from the first fire: events carry no
// hidden state, so a checkpointed run replays identically however it is
// split across resumes.
func FlapGroupBudget(start, period, cycles int, lowFrac, highFrac float64) []sim.Event {
	if period < 1 {
		period = 1
	}
	set := func(frac float64) func(cl *cluster.Cluster) {
		return func(cl *cluster.Cluster) {
			base := (1 - cl.Cfg.CapOffGrp) * cl.MaxGroupPower()
			if w := frac * base; w > 0 {
				cl.StaticCapGrp = w
			}
		}
	}
	var evs []sim.Event
	for c := 0; c < cycles; c++ {
		at := start + 2*c*period
		evs = append(evs,
			sim.Event{At: at, Name: fmt.Sprintf("budget-low-x%.2f", lowFrac), Apply: set(lowFrac)},
			sim.Event{At: at + period, Name: fmt.Sprintf("budget-high-x%.2f", highFrac), Apply: set(highFrac)},
		)
	}
	return evs
}

// crasher decorates a controller with scheduled panics. It forwards the
// inner controller's identity, tracer and metrics wiring, epoch period,
// fail-safe and state, so to the engine it is the same controller — one
// that happens to hit a bug at the scheduled ticks. It deliberately does not
// forward sim.ShardTicker: the engine would then call TickShard, and the
// crash must go through Tick.
type crasher struct {
	inner sim.Controller
	at    map[int]bool
}

// Crash wraps a controller so that Tick panics at each of the given ticks
// (before the inner controller acts). Combined with sim.FaultDegrade this
// is the controller-crash chaos event: the engine recovers the panic,
// disables the controller, and falls back to its fail-safe.
func Crash(inner sim.Controller, at ...int) sim.Controller {
	m := make(map[int]bool, len(at))
	for _, k := range at {
		m[k] = true
	}
	return &crasher{inner: inner, at: m}
}

// Name implements sim.Controller.
func (c *crasher) Name() string { return c.inner.Name() }

// Tick implements sim.Controller, detonating on schedule.
func (c *crasher) Tick(k int, cl *cluster.Cluster) {
	if c.at[k] {
		panic(fmt.Sprintf("chaos: injected crash in %s at tick %d", c.inner.Name(), k))
	}
	c.inner.Tick(k, cl)
}

// SetTracer implements sim.Traceable by forwarding when the inner
// controller traces.
func (c *crasher) SetTracer(t obs.Tracer) {
	if tc, ok := c.inner.(sim.Traceable); ok {
		tc.SetTracer(t)
	}
}

// SetMetrics implements sim.MetricsAware by forwarding when the inner
// controller publishes gauges.
func (c *crasher) SetMetrics(reg *obs.Registry) {
	if mc, ok := c.inner.(sim.MetricsAware); ok {
		mc.SetMetrics(reg)
	}
}

// EpochPeriod implements sim.Epochal by forwarding; a controller without an
// epoch acts every tick.
func (c *crasher) EpochPeriod() int {
	if ep, ok := c.inner.(sim.Epochal); ok {
		return ep.EpochPeriod()
	}
	return 1
}

// FailSafe implements sim.FailSafer by forwarding when the inner controller
// has a fail-safe.
func (c *crasher) FailSafe(k int, cl *cluster.Cluster) {
	if fs, ok := c.inner.(sim.FailSafer); ok {
		fs.FailSafe(k, cl)
	}
}

// State implements sim.Snapshotter by forwarding: the wrapper itself holds
// only the (deterministic, rebuild-time) crash schedule.
func (c *crasher) State() ([]byte, error) {
	s, ok := c.inner.(sim.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("chaos: wrapped controller %s does not implement Snapshotter", c.inner.Name())
	}
	return s.State()
}

// Restore implements sim.Snapshotter by forwarding.
func (c *crasher) Restore(data []byte) error {
	s, ok := c.inner.(sim.Snapshotter)
	if !ok {
		return fmt.Errorf("chaos: wrapped controller %s does not implement Snapshotter", c.inner.Name())
	}
	return s.Restore(data)
}

// CrashByName replaces the named controller in the engine's stack with a
// Crash wrapper detonating at the given ticks. It reports whether a
// controller with that name was found. Must be called before the engine's
// first Run (the engine caches per-controller wiring on the first tick).
func CrashByName(eng *sim.Engine, name string, at ...int) bool {
	for i, c := range eng.Controllers {
		if c.Name() == name {
			eng.Controllers[i] = Crash(c, at...)
			return true
		}
	}
	return false
}
