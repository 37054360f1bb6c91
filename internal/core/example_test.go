package core_test

import (
	"fmt"
	"log"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/model"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// Assemble and run the paper's coordinated stack on a four-server cluster
// with constant light demand: the VMC consolidates and powers machines off.
func ExampleBuild() {
	// Four flat 20 % workloads on four blades.
	set := &trace.Set{Name: "demo"}
	for i := 0; i < 4; i++ {
		d := make([]float64, 600)
		for k := range d {
			d[k] = 0.2
		}
		set.Traces = append(set.Traces, trace.New("w", "flat", d))
	}
	cl, _ := cluster.New(cluster.Config{
		Standalone: 4, Model: model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 10,
	}, set)

	spec := core.Coordinated()
	spec.Periods = core.Periods{EC: 1, SM: 5, EM: 10, GM: 20, VMC: 100}
	engine, _, _ := core.Build(cl, spec)
	engine.Run(600)

	fmt.Printf("servers on: %d of 4\n", cl.OnCount())
	// Output: servers on: 2 of 4
}

// curfew is a controller the architecture never heard of: during a
// utility's peak-tariff window it lowers the group budget, and off-peak it
// restores the operator's. It never touches a P-state or a placement; it
// speaks the architecture's language, budgets, and leaves enforcement to
// the coordinated chain.
type curfew struct {
	ticksPerDay          int
	operatorCap, peakCap float64
}

func (c *curfew) Name() string { return "curfew" }

// peak reports whether tick k falls in the peak-tariff window.
func (c *curfew) peak(k int) bool {
	pos := float64(k%c.ticksPerDay) / float64(c.ticksPerDay)
	return pos > 0.5 && pos < 0.75
}

func (c *curfew) Tick(k int, cl *cluster.Cluster) {
	if c.operatorCap == 0 {
		c.operatorCap = cl.StaticCapGrp
		c.peakCap = 0.55 * c.operatorCap
	}
	cl.StaticCapGrp = c.operatorCap
	if c.peak(k) {
		cl.StaticCapGrp = c.peakCap
	}
}

// Extend the stack with your own controller, the extensibility §3.2
// promises: anything implementing the two-method sim.Controller interface
// can join. Prepended, the curfew writes the group budget before the GM
// reads it within each tick, and the unchanged GM → EM → SM chain enforces
// a budget cut to 55 % for a quarter of every day: mean peak-window power
// stays under the cut.
func ExampleBuild_customController() {
	const ticksPerDay, ticks = 600, 1800
	set, err := tracegen.Generate(16, tracegen.Params{Ticks: ticks, TicksPerDay: ticksPerDay, Seed: 29, Level: 1.2})
	if err != nil {
		log.Fatal(err)
	}
	cl, err := experiments.Scenario{Model: "BladeA", Budgets: experiments.Base201510(), Ticks: ticks, Traces: set}.BuildCluster()
	if err != nil {
		log.Fatal(err)
	}
	spec := core.Coordinated()
	spec.Periods.VMC = 150
	engine, _, err := core.Build(cl, spec)
	if err != nil {
		log.Fatal(err)
	}
	c := &curfew{ticksPerDay: ticksPerDay}
	engine.Controllers = append([]sim.Controller{c}, engine.Controllers...)

	var sumW, capW [2]float64 // [off-peak, peak]
	var n, over [2]int
	engine.OnTick = func(k int, cl *cluster.Cluster) {
		w := 0
		if c.peak(k) {
			w = 1
		}
		sumW[w] += cl.GroupPower
		capW[w] = cl.StaticCapGrp
		n[w]++
		if cl.GroupPower > cl.StaticCapGrp {
			over[w]++
		}
	}
	if _, err := engine.Run(ticks); err != nil {
		log.Fatal(err)
	}
	for w, name := range []string{"off-peak", "peak"} {
		fmt.Printf("%-8s cap %4.0f W, mean group power %4.0f W, over budget %.1f %% of ticks\n",
			name, capW[w], sumW[w]/float64(n[w]), 100*float64(over[w])/float64(n[w]))
	}
	// Output:
	// off-peak cap 1280 W, mean group power  679 W, over budget 0.0 % of ticks
	// peak     cap  704 W, mean group power  671 W, over budget 19.9 % of ticks
}
