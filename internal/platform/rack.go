package platform

import (
	"fmt"

	"nopower/internal/policy"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// This file implements the component↔platform↔rack coordination the paper
// sketches in §6.1 extension (1): "Coordination of controllers at the
// component and platform levels ... we expect the solution be similar to the
// platform-cluster coordination across EM and GM." A rack of multi-component
// platforms shares a rack power budget; a rack manager re-provisions
// per-platform budgets by proportional share with the min rule, and each
// platform's MIMO capper co-selects component states under its allocation —
// the same nested pattern as GM → EM → SM, one level further down.

// RackWorkload is one workload hosted on one platform of the rack.
type RackWorkload struct {
	// Trace is the scalar demand series.
	Trace *trace.Trace
	// Weights is the per-component intensity vector (cpu, mem, disk).
	Weights [3]float64
	// Platform is the index of the hosting platform.
	Platform int
}

// Rack is a collection of multi-component platforms under one budget.
type Rack struct {
	// Platforms are the member machines.
	Platforms []*Platform
	// Controllers are the per-platform MIMO cappers.
	Controllers []*Controller
	// StaticBudget is the rack-level power budget, Watts.
	StaticBudget float64
	// StaticLocal is each platform's own budget, Watts.
	StaticLocal float64
	// Workloads are the hosted demands.
	Workloads []RackWorkload

	// The rack manager's division buffers, its children as the policy sees
	// them and their shares, reused every epoch.
	children []policy.Child
	shares   []float64
}

// NewRack builds n Standard platforms with one workload each, drawn from
// the tracegen classes (including their component-intensity vectors).
// Budgets follow the paper's shape: local = (1-offLoc)·platform max,
// rack = (1-offRack)·Σ platform max.
func NewRack(n, ticks int, seed int64, level, offRack, offLoc float64) (*Rack, error) {
	if n <= 0 {
		return nil, fmt.Errorf("platform: rack size %d", n)
	}
	set, err := tracegen.Generate(n, tracegen.Params{Ticks: ticks, Seed: seed, Level: level})
	if err != nil {
		return nil, err
	}
	r := &Rack{}
	classes := tracegen.Classes()
	for i := 0; i < n; i++ {
		p := Standard()
		r.Platforms = append(r.Platforms, p)
		cls := classes[i%len(classes)]
		cpu, mem, disk := cls.ComponentWeights()
		r.Workloads = append(r.Workloads, RackWorkload{
			Trace:    set.Traces[i],
			Weights:  [3]float64{cpu, mem, disk},
			Platform: i,
		})
	}
	max := r.Platforms[0].MaxPower()
	r.StaticLocal = (1 - offLoc) * max
	r.StaticBudget = (1 - offRack) * max * float64(n)
	for _, p := range r.Platforms {
		ctrl, err := NewController(p, r.StaticLocal)
		if err != nil {
			return nil, err
		}
		r.Controllers = append(r.Controllers, ctrl)
	}
	return r, nil
}

// demandAt assembles platform i's component-demand vector at a tick.
func (r *Rack) demandAt(platform, tick int) Demand {
	d := Demand{0, 0, 0}
	for _, w := range r.Workloads {
		if w.Platform != platform {
			continue
		}
		scalar := w.Trace.At(tick)
		for c := 0; c < 3; c++ {
			d[c] += float64(scalar * w.Weights[c])
		}
	}
	return d
}

// RackResult summarizes a rack simulation.
type RackResult struct {
	// AvgPower is the mean rack draw, Watts.
	AvgPower float64
	// AvgServed is the mean served fraction across platforms and ticks.
	AvgServed float64
	// RackViolations is the fraction of ticks the rack exceeded its budget.
	RackViolations float64
	// LocalViolations is the fraction of platform-ticks over the local
	// allocation.
	LocalViolations float64
}

// Run simulates the rack for the given ticks. Every rackPeriod ticks the
// rack manager re-provisions per-platform budgets proportionally to the
// last-observed draw (min rule against the static local budget); every tick
// each platform's MIMO capper re-optimizes under its allocation.
func (r *Rack) Run(ticks, rackPeriod int) (RackResult, error) {
	if ticks <= 0 || rackPeriod <= 0 {
		return RackResult{}, fmt.Errorf("platform: ticks %d period %d", ticks, rackPeriod)
	}
	lastPower := make([]float64, len(r.Platforms))
	var res RackResult
	rackViol, localViol := 0, 0
	for k := 0; k < ticks; k++ {
		if k%rackPeriod == 0 {
			r.reprovision(lastPower)
		}
		total := 0.0
		for i := range r.Platforms {
			served, power, err := r.Controllers[i].Step(r.demandAt(i, k))
			if err != nil {
				return RackResult{}, err
			}
			lastPower[i] = power
			total += power
			res.AvgServed += served
			if power > r.Controllers[i].Budget+1e-9 {
				localViol++
			}
		}
		res.AvgPower += total
		if total > r.StaticBudget {
			rackViol++
		}
	}
	n := float64(ticks)
	res.AvgPower /= n
	res.AvgServed /= n * float64(len(r.Platforms))
	res.RackViolations = float64(rackViol) / n
	res.LocalViolations = float64(localViol) / (n * float64(len(r.Platforms)))
	return res, nil
}

// reprovision divides the rack budget by proportional share of the
// observed draw (policy.Proportional) and installs min(static, share) as
// each platform controller's budget — the GM→SM pattern one level down.
func (r *Rack) reprovision(lastPower []float64) {
	r.children = r.children[:0]
	for i, p := range r.Platforms {
		r.children = append(r.children, policy.Child{ID: i, Power: lastPower[i], MaxPower: p.MaxPower()})
	}
	r.shares = policy.Proportional{}.Divide(r.shares, r.StaticBudget, r.children)
	for i, share := range r.shares {
		if share > r.StaticLocal {
			share = r.StaticLocal
		}
		if share > 0 {
			r.Controllers[i].Budget = share
		}
	}
}
