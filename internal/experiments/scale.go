package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"

	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/report"
	"nopower/internal/tracegen"
)

// fleetScale is one fleet-scale identity experiment. E17 and E18 are the
// same experiment at two fleet sizes: the Mix180 utilization blend scaled to
// the fleet, the paper's base budgets, and the coordinated stack without the
// VMC (bin-packing 10k VMs every VMC epoch is a different scaling problem —
// the tick engine is what they measure), run through the identity harness.
type fleetScale struct {
	// name titles the table and its errors.
	name string
	// full is the fleet at paper-length runs; short is the shrunk fleet
	// for runs under 2000 ticks (tests, smokes): still many enclosures per
	// shard, so the sharded paths are genuinely exercised, without the
	// minutes-long wall clock of the full fleet.
	full, short int
	// bench is the benchmark that measures the wall clock.
	bench string
}

var (
	// scale10k is E17: 10k servers, roughly 55x the paper's 180-server
	// evaluation rack.
	scale10k = fleetScale{"Scale", 10000, 900, "BenchmarkScale10k"}
	// scale100k is E18: 100k servers, the scale the columnar
	// (struct-of-arrays) cluster store was built for.
	scale100k = fleetScale{"Scale100k", 100000, 2000, "BenchmarkScale100k"}
)

// fleet picks the fleet size for the run length.
func (f fleetScale) fleet(opts Options) int {
	if opts.Ticks < 2000 {
		return f.short
	}
	return f.full
}

// data runs the fleet's scenario through the identity harness. opts must be
// normalized.
func (f fleetScale) data(ctx context.Context, opts Options) (IdentityReport, error) {
	sc := Scenario{
		Model:   "BladeA",
		Mix:     tracegen.ScaleMix(f.fleet(opts)),
		Budgets: Base201510(),
		Ticks:   opts.Ticks,
		Seed:    opts.Seed,
	}
	// Sharding cannot change the baseline, so compute it at full
	// parallelism.
	bsc := sc
	bsc.Shards = runtime.GOMAXPROCS(0)
	baseline, err := BaselinePower(ctx, bsc)
	if err != nil {
		return IdentityReport{}, fmt.Errorf("%s baseline: %w", strings.ToLower(f.name), err)
	}
	return CheckIdentity(ctx, sc, core.NoVMC(), ChaosCase{}, baseline, Observers{})
}

// run renders the table: the serial reference and each variant with its own
// summary. The claim is correctness, not speed — every variant must
// reproduce the serial run bitwise (the wall-clock trajectory lives in the
// benchmark, where it can be measured without contending with the
// experiment worker pool). A non-identical row fails the experiment: a fast
// wrong answer is not an optimization.
func (f fleetScale) run(ctx context.Context, opts Options) ([]*report.Table, error) {
	opts = opts.normalized()
	rep, err := f.data(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: fmt.Sprintf("%s — %d-server fleet, sharded and resumed tick engine vs serial", f.name, f.fleet(opts)),
		Note: "Same scenario in every row; 'bit-identical' compares the per-tick series and " +
			"every final metric against the serial run with math.Float64bits. Wall-clock " +
			"speedup is benchmarked separately (" + f.bench + ").",
		Header: []string{"Run", "Avg power (W)", "Savings", "Perf-loss",
			"Viol SM/EM/GM (%)", "Bit-identical"},
	}
	row := func(name string, r metrics.Result, verdict string) {
		t.AddRow(name,
			fmt.Sprintf("%.0f", r.AvgPower),
			report.Pct(r.PowerSavings),
			report.Pct(r.PerfLoss),
			fmt.Sprintf("%s/%s/%s", report.Pct(r.ViolSM), report.Pct(r.ViolEM), report.Pct(r.ViolGM)),
			verdict)
	}
	row("serial", rep.Result, "reference")
	for _, v := range rep.Variants {
		row(v.Name, v.Result, yesNo(v.Diff == ""))
	}
	if err := rep.Err(); err != nil {
		return []*report.Table{t}, fmt.Errorf("experiments: %s %w", strings.ToLower(f.name), err)
	}
	return []*report.Table{t}, nil
}
