package experiments_test

import (
	"context"
	"fmt"
	"log"

	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// Run one simulation the way npsim does: validate a RunSpec, measure its
// scenario's no-management baseline (all servers on at full speed, no
// controllers), and run the spec's controller stack against it. The run
// reads the baseline only when it finalizes, so npserved starts the two
// side by side instead.
func ExampleRunSpec_Run() {
	spec := experiments.RunSpec{Mix: "60L", Stack: "coordinated", Ticks: 1500, Seed: 7}
	if err := spec.Validate(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	baseline, err := experiments.BaselinePower(ctx, spec.Scenario())
	if err != nil {
		log.Fatal(err)
	}
	res, _, err := spec.Run(ctx, func() (float64, error) { return baseline, nil }, experiments.Observers{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline %.0f W, coordinated %.0f W\n", baseline, res.AvgPower)
	fmt.Printf("power savings %.1f %%, performance loss %.1f %%\n", 100*res.PowerSavings, 100*res.PerfLoss)
	fmt.Printf("budget violations SM/EM/GM %.1f / %.1f / %.1f %%\n", 100*res.ViolSM, 100*res.ViolEM, 100*res.ViolGM)
	fmt.Printf("servers on %.1f of 60\n", res.AvgServersOn)
	// Output:
	// baseline 4010 W, coordinated 1898 W
	// power savings 52.7 %, performance loss 3.7 %
	// budget violations SM/EM/GM 4.3 / 0.0 / 0.0 %
	// servers on 31.7 of 60
}

// Consolidation under correlated demand (§4.3): the tiers of one
// multi-tier application peak together, which would defeat statistical
// multiplexing if they were co-located. Run the coordinated stack on the
// paper's 30-server layout twice — 30 independent workloads, then ten
// 3-tier stacks — with the trace sets handed to the scenario directly. The
// packer places by estimated demand alone and mixes tiers of different
// stacks, so the tiered corpus consolidates as well as the independent one.
func ExampleScenario_multiTier() {
	const ticks = 3000
	p := tracegen.Params{Ticks: ticks, Seed: 17}
	independent, err := tracegen.Generate(30, p)
	if err != nil {
		log.Fatal(err)
	}
	tiered, err := tracegen.GenerateMultiTier(10, nil, p)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		set  *trace.Set
	}{{"independent", independent}, {"3-tier x10", tiered}} {
		sc := experiments.Scenario{Model: "BladeA", Budgets: experiments.Base201510(), Ticks: ticks, Traces: c.set}
		baseline, err := experiments.BaselinePower(ctx, sc)
		if err != nil {
			log.Fatal(err)
		}
		res, err := experiments.RunVsBaseline(ctx, sc, core.Coordinated(), baseline)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-11s  mean demand %.3f  savings %.1f %%  perf loss %.1f %%  servers on %.1f\n",
			c.name, c.set.MeanDemand(), 100*res.PowerSavings, 100*res.PerfLoss, res.AvgServersOn)
	}
	// Output:
	// independent  mean demand 0.260  savings 45.6 %  perf loss 5.0 %  servers on 17.0
	// 3-tier x10   mean demand 0.247  savings 46.9 %  perf loss 3.2 %  servers on 16.3
}
