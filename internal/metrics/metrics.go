// Package metrics accumulates the evaluation metrics of §4.2: aggregate
// power savings (vs. a no-management baseline), performance loss, and power
// budget violations at the server, enclosure, and group levels.
//
// Violations are measured against the *static* budgets CAP_LOC / CAP_ENC /
// CAP_GRP and reported as the percentage of observation intervals in
// violation (powered server-ticks for the SM level — an off server has no
// controller interval, so it is excluded from the denominator). Peak power savings are not
// reported as a metric because, as the paper notes, they are configuration
// inputs (the budget headrooms), not outcomes.
package metrics

import (
	"fmt"
	"math"

	"nopower/internal/cluster"
	"nopower/internal/state"
)

// Collector folds per-tick cluster observations into running totals.
type Collector struct {
	ticks int

	energy      float64 // Σ group power (W·tick)
	demandWork  float64
	delivered   float64
	onServerSum int

	violSM     int // server-ticks over CAP_LOC
	serverObs  int // ViolSM denominator: powered server-ticks (§4.2 controller intervals)
	violEM     int // enclosure-ticks over CAP_ENC
	encObs     int
	violGM     int // ticks over CAP_GRP
	grpObs     int
	peakPower  float64
	violSMMass float64 // Σ overshoot (W·tick), magnitude telemetry
}

// Observe folds one advanced tick of the cluster into the collector. It is a
// convenience wrapper over ObserveStats using the cluster's own per-tick
// aggregate — inside the simulator the engine shares one Stats() pass between
// the collector, the live gauges, and the series recorder.
func (c *Collector) Observe(cl *cluster.Cluster) {
	c.ObserveStats(cl.Stats())
}

// ObserveStats folds one tick's fleet aggregate into the collector.
//
// A powered-off server has no SM controller interval: FleetStats counts only
// powered servers in ServersOn, so the §4.2 violation-rate denominator
// ("percentage of controller intervals in violation") is not diluted.
func (c *Collector) ObserveStats(st cluster.FleetStats) {
	c.ticks++
	c.energy += st.GroupPower
	c.demandWork += st.DemandWork
	c.delivered += st.DeliveredWork
	if st.GroupPower > c.peakPower {
		c.peakPower = st.GroupPower
	}

	c.serverObs += st.ServersOn
	c.violSM += st.ViolSM
	c.violSMMass += st.ViolSMWatts
	c.encObs += st.EnclosureObs
	c.violEM += st.ViolEM
	c.grpObs++
	if st.ViolGM {
		c.violGM++
	}
	c.onServerSum += st.ServersOn
}

// CollectorState mirrors the collector's unexported accumulators for the
// checkpoint subsystem (DESIGN.md §10). All counters are exact — integers
// and float64 sums — so a restored collector finalizes bit-identically.
type CollectorState struct {
	Ticks       int
	Energy      float64
	DemandWork  float64
	Delivered   float64
	OnServerSum int
	ViolSM      int
	ServerObs   int
	ViolEM      int
	EncObs      int
	ViolGM      int
	GrpObs      int
	PeakPower   float64
	ViolSMMass  float64
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(CollectorState{}) }

// State implements the simulator's Snapshotter interface (structurally —
// this package cannot import sim, which imports it).
func (c *Collector) State() ([]byte, error) {
	return state.Marshal(CollectorState{
		Ticks: c.ticks, Energy: c.energy, DemandWork: c.demandWork,
		Delivered: c.delivered, OnServerSum: c.onServerSum,
		ViolSM: c.violSM, ServerObs: c.serverObs, ViolEM: c.violEM, EncObs: c.encObs,
		ViolGM: c.violGM, GrpObs: c.grpObs, PeakPower: c.peakPower, ViolSMMass: c.violSMMass,
	})
}

// Restore implements the simulator's Snapshotter interface.
func (c *Collector) Restore(data []byte) error {
	var st CollectorState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	c.ticks, c.energy, c.demandWork, c.delivered = st.Ticks, st.Energy, st.DemandWork, st.Delivered
	c.onServerSum = st.OnServerSum
	c.violSM, c.serverObs, c.violEM, c.encObs = st.ViolSM, st.ServerObs, st.ViolEM, st.EncObs
	c.violGM, c.grpObs, c.peakPower, c.violSMMass = st.ViolGM, st.GrpObs, st.PeakPower, st.ViolSMMass
	return nil
}

// Result is the final evaluation summary of one run.
type Result struct {
	// Ticks is the number of observed intervals.
	Ticks int
	// AvgPower is the mean group draw in Watts.
	AvgPower float64
	// PeakPower is the highest observed group draw in Watts.
	PeakPower float64
	// PowerSavings is 1 − AvgPower/baseline, in [ −∞, 1 ]; zero when no
	// baseline was supplied.
	PowerSavings float64
	// PerfLoss is 1 − delivered/demanded work.
	PerfLoss float64
	// ViolSM, ViolEM, ViolGM are violation rates (fraction of observation
	// intervals over the static budget at each level).
	ViolSM, ViolEM, ViolGM float64
	// ViolSMWatts is the mean overshoot magnitude per violating server-tick.
	ViolSMWatts float64
	// AvgServersOn is the mean number of powered servers.
	AvgServersOn float64
}

// Finalize computes the summary. baselineAvgPower <= 0 skips the savings
// metric.
func (c *Collector) Finalize(baselineAvgPower float64) Result {
	r := Result{Ticks: c.ticks, PeakPower: c.peakPower}
	if c.ticks == 0 {
		return r
	}
	r.AvgPower = c.energy / float64(c.ticks)
	if baselineAvgPower > 0 {
		r.PowerSavings = 1 - r.AvgPower/baselineAvgPower
	}
	if c.demandWork > 0 {
		r.PerfLoss = 1 - c.delivered/c.demandWork
		if r.PerfLoss < 0 && r.PerfLoss > -1e-12 {
			r.PerfLoss = 0
		}
	}
	if c.serverObs > 0 {
		r.ViolSM = float64(c.violSM) / float64(c.serverObs)
	}
	if c.encObs > 0 {
		r.ViolEM = float64(c.violEM) / float64(c.encObs)
	}
	if c.grpObs > 0 {
		r.ViolGM = float64(c.violGM) / float64(c.grpObs)
	}
	if c.violSM > 0 {
		r.ViolSMWatts = c.violSMMass / float64(c.violSM)
	}
	r.AvgServersOn = float64(c.onServerSum) / float64(c.ticks)
	return r
}

// String renders the result compactly for logs and CLI output.
func (r Result) String() string {
	return fmt.Sprintf(
		"avg %.0fW peak %.0fW save %.1f%% perf-loss %.1f%% viol SM/EM/GM %.1f/%.1f/%.1f%% on %.1f",
		r.AvgPower, r.PeakPower, 100*r.PowerSavings, 100*r.PerfLoss,
		100*r.ViolSM, 100*r.ViolEM, 100*r.ViolGM, r.AvgServersOn)
}

// Diff compares two summaries bitwise — math.Float64bits on every float
// field, so −0 differs from +0 and a NaN equals an identical NaN, where ==
// says the opposite — and names the first field that differs with both
// values. It returns "" when the summaries are identical.
func (r Result) Diff(o Result) string {
	if r.Ticks != o.Ticks {
		return fmt.Sprintf("Ticks: %d vs %d", r.Ticks, o.Ticks)
	}
	a, b := r.floatFields(), o.floatFields()
	for i := range a {
		if math.Float64bits(a[i].v) != math.Float64bits(b[i].v) {
			return fmt.Sprintf("%s: %v vs %v", a[i].name, a[i].v, b[i].v)
		}
	}
	return ""
}

// namedFloat is one float field of a Result under its Go name.
type namedFloat struct {
	name string
	v    float64
}

// floatFields lists the float fields in declaration order.
func (r Result) floatFields() [9]namedFloat {
	return [9]namedFloat{
		{"AvgPower", r.AvgPower}, {"PeakPower", r.PeakPower},
		{"PowerSavings", r.PowerSavings}, {"PerfLoss", r.PerfLoss},
		{"ViolSM", r.ViolSM}, {"ViolEM", r.ViolEM}, {"ViolGM", r.ViolGM},
		{"ViolSMWatts", r.ViolSMWatts}, {"AvgServersOn", r.AvgServersOn},
	}
}

// Valid sanity-checks a result's ranges (used by integration tests).
func (r Result) Valid() error {
	checks := []struct {
		name string
		v    float64
		lo   float64
		hi   float64
	}{
		{"PerfLoss", r.PerfLoss, 0, 1},
		{"ViolSM", r.ViolSM, 0, 1},
		{"ViolEM", r.ViolEM, 0, 1},
		{"ViolGM", r.ViolGM, 0, 1},
	}
	for _, c := range checks {
		if math.IsNaN(c.v) || c.v < c.lo-1e-9 || c.v > c.hi+1e-9 {
			return fmt.Errorf("metrics: %s = %v out of [%v,%v]", c.name, c.v, c.lo, c.hi)
		}
	}
	if r.AvgPower < 0 || r.PeakPower < r.AvgPower-1e-9 {
		return fmt.Errorf("metrics: power stats inconsistent: avg %v peak %v", r.AvgPower, r.PeakPower)
	}
	return nil
}
