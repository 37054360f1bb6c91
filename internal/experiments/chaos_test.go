package experiments

import (
	"context"
	"strings"
	"testing"

	"nopower/internal/core"
	"nopower/internal/obs"
	"nopower/internal/sim"
)

// runChaos runs one soak case against one stack through the package's run
// path, with baseline 0 as the soak does.
func runChaos(t *testing.T, sc Scenario, spec core.Spec, cse ChaosCase, o Observers) ChaosRow {
	t.Helper()
	sc = sc.normalized()
	eng, res, err := execute(context.Background(), sc, spec, cse, nil, o, sc.Ticks)
	if err != nil {
		t.Fatalf("%s: %v", cse.Name, err)
	}
	return ChaosRow{Scenario: cse.Name, Result: res, Disabled: len(eng.Disabled())}
}

// soakTicks keeps the chaos soak fast enough for the -race gate while still
// spanning several flap cycles and a post-crash steady state.
const soakTicks = 600

// TestChaosSoak is the acceptance run for the fault-injection layer: under
// FaultPolicy = degrade every chaos scenario must complete (a mid-run panic
// never crashes the engine), the disabled-controller counter must be visible
// on the metrics endpoint, and the coordinated stack's group violation rate
// must stay bounded relative to its fault-free anchor.
func TestChaosSoak(t *testing.T) {
	sc := chaosScenario(Options{Ticks: soakTicks, Seed: 42})
	run := func(t *testing.T, spec core.Spec, cse ChaosCase, o Observers) ChaosRow {
		t.Helper()
		return runChaos(t, sc, spec, cse, o)
	}

	base := run(t, core.Coordinated(), ChaosCase{Name: "fault-free"},
		Observers{FaultPolicy: sim.FaultDegrade})
	baseU := run(t, core.Uncoordinated(), ChaosCase{Name: "fault-free"},
		Observers{FaultPolicy: sim.FaultDegrade})
	t.Logf("fault-free: coord ViolGM=%.4f ViolEM=%.4f ViolSM=%.4f | uncoord ViolGM=%.4f",
		base.Result.ViolGM, base.Result.ViolEM, base.Result.ViolSM, baseU.Result.ViolGM)

	// Bounded means < 2x the fault-free rate plus an absolute slack: a small
	// epsilon (the anchor is ~zero, so literal zero under injected faults is
	// too strict), widened for budget-flap to the reaction-latency floor — a
	// budget step-down cannot be answered faster than one GM period, so with
	// three injected drops the inherent minimum is ~cycles*T_gm/ticks.
	slack := func(cse ChaosCase) float64 {
		if cse.Name == "budget-flap" {
			return 3 * float64(core.DefaultPeriods().GM) / float64(soakTicks)
		}
		return 0.02
	}

	for _, cse := range ChaosCases() {
		if cse.Name == "fault-free" {
			continue
		}
		cse := cse
		t.Run(cse.Name, func(t *testing.T) {
			bound := 2*base.Result.ViolGM + slack(cse)
			reg := obs.NewRegistry()
			row := run(t, core.Coordinated(), cse,
				Observers{FaultPolicy: sim.FaultDegrade, Metrics: reg})
			rowU := run(t, core.Uncoordinated(), cse,
				Observers{FaultPolicy: sim.FaultDegrade})
			t.Logf("coord ViolGM=%.4f (bound %.4f) Disabled=%d | uncoord ViolGM=%.4f Disabled=%d",
				row.Result.ViolGM, bound, row.Disabled, rowU.Result.ViolGM, rowU.Disabled)

			if row.Result.ViolGM >= bound {
				t.Errorf("coordinated ViolGM = %.4f, want < %.4f (2x fault-free + slack)",
					row.Result.ViolGM, bound)
			}
			if cse.Name == "budget-flap" && row.Result.ViolGM >= rowU.Result.ViolGM {
				t.Errorf("coordinated ViolGM = %.4f not better than uncoordinated %.4f under budget flapping",
					row.Result.ViolGM, rowU.Result.ViolGM)
			}
			if cse.Crash != "" {
				if row.Disabled == 0 {
					t.Errorf("crash scenario disabled no controller")
				}
				var b strings.Builder
				reg.WritePrometheus(&b)
				out := b.String()
				for _, want := range []string{
					`np_sim_controller_panics_total{controller="` + cse.Crash + `"} 1`,
					`np_sim_controller_disabled_total{controller="` + cse.Crash + `"} 1`,
					"np_sim_controllers_disabled 1",
				} {
					if !strings.Contains(out, want) {
						t.Errorf("metrics output missing %q", want)
					}
				}
			}
		})
	}
}

// TestChaosUncoordinatedDegrades pins the comparative claim: across the soak
// scenarios the uncoordinated stack accumulates measurably more group-budget
// violation than the coordinated hierarchy.
func TestChaosUncoordinatedDegrades(t *testing.T) {
	sc := chaosScenario(Options{Ticks: soakTicks, Seed: 42})
	var coord, uncoord float64
	for _, cse := range ChaosCases() {
		row := runChaos(t, sc, core.Coordinated(), cse, Observers{FaultPolicy: sim.FaultDegrade})
		rowU := runChaos(t, sc, core.Uncoordinated(), cse, Observers{FaultPolicy: sim.FaultDegrade})
		t.Logf("%-14s coord ViolGM=%.4f uncoord ViolGM=%.4f", cse.Name, row.Result.ViolGM, rowU.Result.ViolGM)
		coord += row.Result.ViolGM
		uncoord += rowU.Result.ViolGM
	}
	if uncoord <= coord {
		t.Errorf("uncoordinated total ViolGM %.4f not worse than coordinated %.4f", uncoord, coord)
	}
}

// TestChaosTable exercises the registered experiment end to end at soak size.
func TestChaosTable(t *testing.T) {
	tables, err := Chaos(context.Background(), Options{Ticks: soakTicks})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d, want 1", len(tables))
	}
	wantRows := 2 * len(ChaosCases())
	if got := len(tables[0].Rows); got != wantRows {
		t.Errorf("rows = %d, want %d", got, wantRows)
	}
}

// TestChaosCaseByName covers the CLI resolution path.
func TestChaosCaseByName(t *testing.T) {
	if _, err := ChaosCaseByName("nope"); err == nil {
		t.Error("unknown case resolved")
	}
	for _, name := range ChaosCaseNames() {
		c, err := ChaosCaseByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if c.Name != name {
			t.Errorf("resolved %q for %q", c.Name, name)
		}
	}
}
