package experiments

import (
	"context"
	"testing"

	"nopower/internal/core"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// replayScenario is the golden-test setup: the paper's blade hardware and
// high-utilization mix, shortened to keep the suite fast.
func replayScenario(ticks int) Scenario {
	return Scenario{Model: "BladeA", Mix: tracegen.Mix60HH, Budgets: Base201510(),
		Ticks: ticks, Seed: 42}
}

// shortPeriods compresses the control hierarchy so every controller gets
// multiple epochs — including a VMC repack — inside a short run.
func shortPeriods() core.Periods { return core.Periods{EC: 1, SM: 2, EM: 5, GM: 10, VMC: 20} }

// TestReplayGoldenAllStacks is the determinism contract's golden test: for
// every registered stack preset, the identity harness's sharded run and its
// chain of kills resumed from (disk-format round-tripped) checkpoints must
// reproduce the serial run's per-tick series bitwise.
func TestReplayGoldenAllStacks(t *testing.T) {
	const ticks = 90
	sc := replayScenario(ticks)
	for _, name := range core.StackNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := core.SpecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec.Periods = shortPeriods()
			rep, err := CheckIdentity(context.Background(), sc, spec, ChaosCase{}, 0, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Errorf("stack %s: %v", name, err)
			}
			if rep.SnapshotBytes <= 0 {
				t.Error("empty snapshot")
			}
			// The comparison must cover the whole run, not a trivially empty
			// series: every variant's collector counts the full tick span.
			for _, v := range rep.Variants {
				if v.Result.Ticks != ticks {
					t.Errorf("%s observed %d ticks, want %d", v.Name, v.Result.Ticks, ticks)
				}
			}
		})
	}
}

// TestReplayGoldenSpecVariants covers the stateful corners the presets miss:
// stochastic and history-keeping division policies, the cooling zone manager,
// and the electrical capper.
func TestReplayGoldenSpecVariants(t *testing.T) {
	const ticks = 90
	sc := replayScenario(ticks)
	variants := []struct {
		name string
		spec func() core.Spec
	}{
		{"policy-random", func() core.Spec {
			s := core.Coordinated()
			s.Policy = "random"
			return s
		}},
		{"policy-history", func() core.Spec {
			s := core.Coordinated()
			s.Policy = "history"
			return s
		}},
		{"cooling", func() core.Spec {
			s := core.Coordinated()
			s.EnableCooling = true
			return s
		}},
		{"electrical-cap", func() core.Spec {
			s := core.Coordinated()
			s.ElectricalCap = 200
			return s
		}},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			spec := v.spec()
			spec.Periods = shortPeriods()
			rep, err := CheckIdentity(context.Background(), sc, spec, ChaosCase{}, 0, Observers{})
			if err != nil {
				t.Fatal(err)
			}
			if err := rep.Err(); err != nil {
				t.Errorf("%s: %v", v.name, err)
			}
		})
	}
}

// TestReplayGoldenChaosCases runs the full E16 sweep — every fault-injection
// scenario under both headline stacks — at test scale and requires every
// sharded run and resume chain to be bitwise identical, including runs whose
// controller crash or fault window lands between kill points.
func TestReplayGoldenChaosCases(t *testing.T) {
	rows, err := ReplayData(context.Background(), Options{Ticks: 120})
	if err != nil {
		t.Fatal(err)
	}
	// 2 stacks x every chaos case, plus the committed aos-golden row.
	if want := 2*len(ChaosCases()) + 1; len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if err := r.Identity.Err(); err != nil {
			t.Errorf("%s/%s: %v", r.Scenario, r.Stack, err)
		}
	}
}

// TestReplayGoldenDemandSurge pins the mutated-trace path: a ScaleDemand
// event before the kill rewrites every demand trace in place, so the
// snapshot must capture the scaled demand (pristine traces are skipped and
// rebuilt); the event after the mid-run kill replays from the rebuilt
// schedule.
func TestReplayGoldenDemandSurge(t *testing.T) {
	const ticks = 90
	sc := replayScenario(ticks)
	spec := core.Coordinated()
	spec.Periods = shortPeriods()
	surge := ChaosCase{
		Name: "demand-surge",
		Events: func(ticks int, seed int64) []sim.Event {
			return []sim.Event{sim.ScaleDemand(20, 1.5), sim.ScaleDemand(70, 0.8)}
		},
	}
	rep, err := CheckIdentity(context.Background(), sc, spec, surge, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Errorf("after an in-place demand rewrite: %v", err)
	}
}

func TestReplayExperimentRegistered(t *testing.T) {
	found := false
	for _, n := range Names() {
		if n == "replay" {
			found = true
		}
	}
	if !found {
		t.Fatalf("replay missing from Names(): %v", Names())
	}
	tables, err := RunExperiment(context.Background(), "replay", WithTicks(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 2*len(ChaosCases())+1 {
		t.Errorf("replay tables = %d with %d rows", len(tables), len(tables[0].Rows))
	}
}
