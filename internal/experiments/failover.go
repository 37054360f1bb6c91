package experiments

import (
	"context"
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/thermal"
	"nopower/internal/trace"
)

// FailoverRow is one stack's outcome in the single-server prototype.
type FailoverRow struct {
	Stack string
	// ViolationDuty is the fraction of ticks over the thermal budget.
	ViolationDuty float64
	// PeakTempC is the highest simulated component temperature.
	PeakTempC float64
	// Failover reports whether the temperature crossed the trip point.
	Failover bool
	// PerfLoss is the work lost to throttling.
	PerfLoss float64
}

// FailoverData reproduces the paper's §5.1 validation anecdote in
// simulation: one server under sustained high load, EC+SM deployed
// coordinated vs uncoordinated, with an RC thermal model
// (internal/thermal) integrating the power signal. The uncoordinated pair
// struggles over the P-state, the violation persists, heat accumulates, and
// the machine trips thermal failover; the coordinated pair bounds the
// violation duty cycle and the temperature settles below the trip point —
// exactly the §2.1 leeway thermal budgeting relies on.
func FailoverData(ctx context.Context, opts Options) ([]FailoverRow, error) {
	opts = opts.normalized()
	stacks := []stack{
		{"Coordinated EC+SM", failoverPair(true)},
		{"Uncoordinated EC+SM", failoverPair(false)},
	}
	return runner.Map(ctx, opts.Parallelism, stacks, func(ctx context.Context, s stack) (FailoverRow, error) {
		return runFailover(ctx, s.name, s.spec, opts)
	})
}

func failoverPair(coordinated bool) core.Spec {
	return core.Spec{
		EnableEC: true, EnableSM: true,
		Coordinated: coordinated,
		Periods:     core.DefaultPeriods(),
	}
}

// runFailover runs one stack over a single standalone BladeA server
// (TopologyFor(1)) at the base budgets, with the RC thermal model
// integrating the server's power on the engine's OnTick hook.
func runFailover(ctx context.Context, name string, spec core.Spec, opts Options) (FailoverRow, error) {
	demand := make([]float64, opts.Ticks)
	for i := range demand {
		demand[i] = 1.05 // sustained saturating load
	}
	set := &trace.Set{Name: "hot", Traces: []*trace.Trace{trace.New("load", "synthetic", demand)}}
	sc := Scenario{Model: "BladeA", Budgets: Base201510(), Ticks: opts.Ticks, Seed: opts.Seed, Traces: set}.normalized()
	tm := thermal.Default()
	ts := thermal.NewState(tm)
	over := 0
	integrate := func(k int, cl *cluster.Cluster) {
		if cl.Power(0) > cl.StaticCap(0) {
			over++
		}
		ts.Step(tm, cl.Power(0), k)
	}
	_, res, err := execute(ctx, sc, spec, ChaosCase{}, nil, Observers{OnTick: integrate}, sc.Ticks)
	if err != nil {
		return FailoverRow{}, fmt.Errorf("failover %s: %w", name, err)
	}
	return FailoverRow{
		Stack:         name,
		ViolationDuty: float64(over) / float64(opts.Ticks),
		PeakTempC:     ts.PeakC,
		Failover:      ts.Tripped(),
		PerfLoss:      res.PerfLoss,
	}, nil
}

// Failover renders the §5.1 thermal-failover prototype.
func Failover(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := FailoverData(ctx, opts)
	if err != nil {
		return nil, err
	}
	tm := thermal.Default()
	t := &report.Table{
		Title: "§5.1 validation — single-server prototype under sustained high load",
		Note: fmt.Sprintf("RC thermal model: ambient %.0f °C, %.2f °C/W, τ=%.0f ticks; failover trips at %.0f °C.",
			tm.AmbientC, tm.RthCPerW, tm.TauTicks, tm.CritC),
		Header: []string{"Stack", "Violation duty (%)", "Peak temp (°C)", "Thermal failover", "Perf-loss (%)"},
	}
	for _, r := range rows {
		fo := "no"
		if r.Failover {
			fo = "YES"
		}
		t.AddRow(r.Stack, report.Pct(r.ViolationDuty), report.F(r.PeakTempC), fo, report.Pct(r.PerfLoss))
	}
	return []*report.Table{t}, nil
}
