package experiments

import (
	"context"
	"math"
	"sync"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// groupSet returns the set ctx's run group holds for sc, failing the test
// when the group would have to synthesize it.
func groupSet(t *testing.T, ctx context.Context, sc Scenario) *trace.Set {
	t.Helper()
	sc = sc.normalized()
	g := ctx.Value(traceGroupKey{}).(*traceGroup)
	set, err := g.Get(traceKey{sc.Mix, sc.Ticks, sc.Seed}, func() (*trace.Set, error) {
		t.Fatalf("the group holds no %s set at %d ticks, seed %d", sc.Mix, sc.Ticks, sc.Seed)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// firstTrace runs (sc, spec) in ctx and returns the first VM's trace as
// its cluster read it at tick 0 — the set it got.
func firstTrace(t *testing.T, ctx context.Context, sc Scenario, spec core.Spec) *trace.Trace {
	t.Helper()
	var p *trace.Trace
	o := Observers{OnTick: func(k int, cl *cluster.Cluster) {
		if k == 0 {
			p = cl.VMs[0].Trace
		}
	}}
	sc = sc.normalized()
	if _, _, err := execute(ctx, sc, spec, ChaosCase{}, nil, o, sc.Ticks); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRunGroupSharesOneSet pins the run group's memo: a scenario's baseline
// and its managed runs read one synthesized set, and so does every scenario
// that differs only in what the traces do not depend on — model, budgets,
// AlphaV, stack — while a different mix, length or seed gets its own.
func TestRunGroupSharesOneSet(t *testing.T) {
	ctx := ShareTraces(context.Background())
	if ShareTraces(ctx) != ctx {
		t.Fatal("ShareTraces opened a second group inside the first")
	}
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix60L, Budgets: Base201510(), Ticks: 60, Seed: 3}
	if _, err := BaselinePower(ctx, sc); err != nil {
		t.Fatal(err)
	}
	set := groupSet(t, ctx, sc)
	shared := set.Traces[0]
	for i := 0; i < 2; i++ {
		if firstTrace(t, ctx, sc, core.Coordinated()) != shared {
			t.Fatalf("managed run %d did not read the baseline's set", i)
		}
	}

	variant := func(edit func(*Scenario)) Scenario {
		v := sc
		edit(&v)
		return v
	}
	for _, c := range []struct {
		name  string
		sc    Scenario
		spec  core.Spec
		share bool
	}{
		{"model", variant(func(v *Scenario) { v.Model = "ServerB" }), core.Coordinated(), true},
		{"budgets", variant(func(v *Scenario) { v.Budgets = BudgetConfigs()[2] }), core.Coordinated(), true},
		{"alphaV", variant(func(v *Scenario) { v.AlphaV = 0.2 }), core.Coordinated(), true},
		{"stack", sc, core.Uncoordinated(), true},
		{"mix", variant(func(v *Scenario) { v.Mix = tracegen.Mix60H }), core.Coordinated(), false},
		{"ticks", variant(func(v *Scenario) { v.Ticks = 61 }), core.Coordinated(), false},
		{"seed", variant(func(v *Scenario) { v.Seed = 4 }), core.Coordinated(), false},
	} {
		if got := firstTrace(t, ctx, c.sc, c.spec) == shared; got != c.share {
			t.Errorf("%s: shares the set = %v, want %v", c.name, got, c.share)
		}
	}
	if g := ctx.Value(traceGroupKey{}).(*traceGroup); g.Len() != 4 {
		t.Errorf("the group holds %d sets, want 4 (the base and the mix, ticks and seed variants)", g.Len())
	}
	// Outside any group every build synthesizes afresh.
	if firstTrace(t, context.Background(), sc, core.Coordinated()) == shared {
		t.Error("a run outside the group read the group's set")
	}
}

// TestSharedSetConcurrentRuns runs two engines at once over one group's
// set, one of them rescaling its demand mid-run (the golden case's
// ScaleDemand event), on the golden 60L mix and on the AI-burst mix, whose
// traces read one shared schedule. A write through the shared set would
// race — `make race` runs this ten times under the detector — and would
// show here as a changed set or a run that no longer matches the same run
// made alone.
func TestSharedSetConcurrentRuns(t *testing.T) {
	golden := goldenScenario().normalized()
	aiburst := golden
	aiburst.Mix = tracegen.MixAIBurst
	for _, sc := range []Scenario{golden, aiburst} {
		t.Run(string(sc.Mix), func(t *testing.T) { sharedSetConcurrentRuns(t, sc) })
	}
}

func sharedSetConcurrentRuns(t *testing.T, sc Scenario) {
	ctx := ShareTraces(context.Background())
	spec := core.Coordinated()
	cases := []ChaosCase{goldenCase(), {}}
	run := func(ctx context.Context, cse ChaosCase) (metrics.Result, error) {
		_, res, err := execute(ctx, sc, spec, cse, nil, Observers{FaultPolicy: sim.FaultDegrade}, sc.Ticks)
		return res, err
	}
	got := make([]metrics.Result, len(cases))
	errs := make([]error, len(cases))
	var wg sync.WaitGroup
	for i, cse := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = run(ctx, cse)
		}()
	}
	wg.Wait()
	for i, cse := range cases {
		if errs[i] != nil {
			t.Fatalf("%q: %v", cse.Name, errs[i])
		}
		alone, err := run(context.Background(), cse)
		if err != nil {
			t.Fatal(err)
		}
		if d := alone.Diff(got[i]); d != "" {
			t.Errorf("%q over the shared set differs from its run alone: %s", cse.Name, d)
		}
	}
	fresh, err := tracegen.BuildMix(sc.Mix, sc.Ticks, sc.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range groupSet(t, ctx, sc).Traces {
		for k := 0; k < tr.Len(); k++ {
			if d := tr.At(k); math.Float64bits(d) != math.Float64bits(fresh.Traces[i].At(k)) || tr.Mutated {
				t.Fatalf("shared trace %d changed at tick %d: %v, synthesized %v", i, k, d, fresh.Traces[i].At(k))
			}
		}
	}
}
