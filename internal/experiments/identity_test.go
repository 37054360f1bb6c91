package experiments

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/model"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// The kill ticks come from the spec's effective periods: the first tick,
// mid-run, the last tick, and every period P > 1 at P-1, P, P+1 — the VMC at
// its 500-tick consolidation epoch, not the 25-tick sample period it reports
// through sim.Epochal.
func TestKillTicksDerived(t *testing.T) {
	for _, c := range []struct {
		ticks   int
		periods core.Periods
		want    []int
	}{
		{1200, core.Periods{}, []int{1, 4, 5, 6, 24, 25, 26, 49, 50, 51, 99, 100, 101, 499, 500, 501, 600, 1199}},
		// shortPeriods leaves FM unset: it takes the default 100, past the run.
		{90, shortPeriods(), []int{1, 2, 3, 4, 5, 6, 9, 10, 11, 19, 20, 21, 45, 89}},
		{2, core.Periods{}, []int{1}},
		{1, core.Periods{}, nil},
	} {
		if got := killTicks(c.ticks, c.periods); !slices.Equal(got, c.want) {
			t.Errorf("killTicks(%d, %+v) = %v, want %v", c.ticks, c.periods, got, c.want)
		}
	}
}

// The harness owns resuming and checkpointing.
func TestCheckIdentityRejectsOwnedObservers(t *testing.T) {
	sc := replayScenario(20)
	for name, o := range map[string]Observers{
		"resume":     {Resume: &checkpoint.File{}},
		"checkpoint": {Checkpoint: &checkpoint.Saver{}},
	} {
		if _, err := CheckIdentity(ctx, sc, core.Coordinated(), ChaosCase{}, 0, o); err == nil {
			t.Errorf("%s observer accepted", name)
		}
	}
}

// A chaos case whose schedule changes after the first build makes every
// variant diverge; the report names the variant, the tick the injected event
// fires on, and the first column it moves.
func TestCheckIdentityNamesDivergence(t *testing.T) {
	builds := 0
	drift := ChaosCase{
		Name: "drift",
		Events: func(ticks int, seed int64) []sim.Event {
			builds++
			if builds == 1 {
				return nil
			}
			return []sim.Event{sim.ScaleDemand(30, 0.5)}
		},
	}
	spec := core.Coordinated()
	spec.Periods = shortPeriods()
	rep, err := CheckIdentity(ctx, replayScenario(60), spec, drift, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Variants) < 2 {
		t.Fatalf("variants %q, want sharded and resumed runs", rep.VariantNames())
	}
	for _, v := range rep.Variants {
		if !strings.HasPrefix(v.Diff, "tick 30: power_w: ") {
			t.Errorf("%s: Diff = %q, want the tick-30 power_w divergence", v.Name, v.Diff)
		}
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "shards=2: tick 30: power_w: ") {
		t.Errorf("Err() = %v, want it to name shards=2, tick 30 and power_w", err)
	}
}

// The sharded variant is there even on one CPU: 2 is always on the ladder.
func TestCheckIdentityShardsOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rep, err := CheckIdentity(ctx, replayScenario(30), core.Coordinated(), ChaosCase{}, 0, Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Variants) == 0 || rep.Variants[0].Name != "shards=2" {
		t.Fatalf("variants %q, want shards=2 first", rep.VariantNames())
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}

// FuzzIdentity is the determinism contract as a property over generated
// scenarios: any stack, fleet (one registered model or a heterogeneous
// mix), chaos case, length in [60, 240] ticks and seed — with the paper's
// periods or compressed ones — must pass the identity harness. The seed
// corpus runs under plain `go test`; `go test -fuzz=FuzzIdentity
// ./internal/experiments` explores further.
func FuzzIdentity(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), int64(1), true)
	f.Add(uint8(1), uint8(1), uint8(1), uint16(180), int64(7), false)
	f.Add(uint8(2), uint8(2), uint8(2), uint16(90), int64(-3), true)
	f.Add(uint8(3), uint8(3), uint8(3), uint16(45), int64(11), true)
	f.Add(uint8(4), uint8(10), uint8(4), uint16(120), int64(5), false)
	f.Add(uint8(5), uint8(11), uint8(5), uint16(60), int64(13), true)
	f.Add(uint8(6), uint8(12), uint8(6), uint16(150), int64(2), true)
	f.Add(uint8(7), uint8(9), uint8(7), uint16(10), int64(42), true)
	f.Fuzz(func(t *testing.T, stackIdx, fleetIdx, caseIdx uint8, ticks uint16, seed int64, short bool) {
		stacks := core.StackNames()
		stack := stacks[int(stackIdx)%len(stacks)]
		spec, err := core.SpecByName(stack)
		if err != nil {
			t.Fatal(err)
		}
		if short {
			spec.Periods = shortPeriods()
		}
		sc := Scenario{Mix: tracegen.Mix60HH, Budgets: Base201510(), Ticks: 60 + int(ticks)%181, Seed: seed}
		models, fleets := model.Names(), HeteroFleets()
		if i := int(fleetIdx) % (len(models) + len(fleets)); i < len(models) {
			sc.Model = models[i]
		} else {
			sc.Profiles, sc.Mix = fleets[i-len(models)].Profiles, tracegen.MixHetero
		}
		cases := ChaosCases()
		cse := cases[int(caseIdx)%len(cases)]
		rep, err := CheckIdentity(ctx, sc, spec, cse, 0, Observers{FaultPolicy: sim.FaultDegrade})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s, model %q profiles %q, %s, %d ticks, seed %d, short periods %v: %v",
				stack, sc.Model, sc.Profiles, cse.Name, sc.Ticks, seed, short, err)
		}
	})
}
