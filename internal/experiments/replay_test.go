package experiments

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
	"nopower/internal/state"
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

// encodeOrderEnv hands a child of TestCheckpointBytesAcrossProcesses its
// encode order ("forward" or "reverse") and output path, as "order:path".
const encodeOrderEnv = "NOPOWER_TEST_ENCODE_ORDER"

// gob numbers each type in the order a process first encodes it, and every
// checkpoint carries those numbers. Under -parallel, the job that snapshots
// first would decide that order, so two processes of one binary must write
// byte-identical checkpoints of identical runs even when they first encode
// state types in opposite orders. E16's Snapshot cell depends on it.
func TestCheckpointBytesAcrossProcesses(t *testing.T) {
	if v := os.Getenv(encodeOrderEnv); v != "" {
		order, path, _ := strings.Cut(v, ":")
		writeOrderedCheckpoints(t, order == "reverse", path)
		return
	}
	dir := t.TempDir()
	var out [2][]byte
	for i, order := range []string{"forward", "reverse"} {
		path := filepath.Join(dir, order)
		cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointBytesAcrossProcesses$")
		cmd.Env = append(os.Environ(), encodeOrderEnv+"="+order+":"+path)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%s child: %v\n%s", order, err, msg)
		}
		var err error
		if out[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Errorf("identical runs wrote different checkpoints (%d and %d bytes) after encoding state types in opposite orders",
			len(out[0]), len(out[1]))
	}
}

// orderProbe is a type no package registers. One child encodes it first and
// the other last, so a state type its package does not encode at init gets a
// different number in each child even when it is the only one.
type orderProbe struct{ N int }

// writeOrderedCheckpoints builds two short runs that between them hold
// every gob-encoded state type: the coordinated stack with the FM, cooling,
// the PM, the history policy, a fault schedule and a series, and the
// VM-level EC stack. It encodes orderProbe, the runs' checkpoints and each
// component's state in that order, or all of it in reverse, then writes
// both runs' checkpoints to path.
func writeOrderedCheckpoints(t *testing.T, reverse bool, path string) {
	full := facilitySpec(core.Coordinated())
	full.EnablePM = true
	full.Policy = "history"
	vmLevel := core.Coordinated()
	vmLevel.VMLevelEC = true
	flap, err := ChaosCaseByName("server-flap")
	if err != nil {
		t.Fatal(err)
	}
	sc := replayScenario(60).normalized()
	encoders := []func() ([]byte, error){func() ([]byte, error) { return state.Marshal(orderProbe{}) }}
	var checkpoints []func() ([]byte, error)
	for _, spec := range []core.Spec{full, vmLevel} {
		spec.Periods = shortPeriods()
		var series metrics.Series
		eng, _, err := execute(ctx, sc, spec, flap, nil, Observers{Series: &series}, 30)
		if err != nil {
			t.Fatal(err)
		}
		ckpt := func() ([]byte, error) {
			snap, err := eng.Snapshot()
			if err != nil {
				return nil, err
			}
			return checkpoint.Encode(&checkpoint.File{Meta: checkpoint.Meta{Tick: snap.Tick}, State: snap})
		}
		checkpoints = append(checkpoints, ckpt)
		encoders = append(encoders, ckpt, eng.Collector.State, series.State)
		for _, c := range eng.Controllers {
			if s, ok := c.(sim.Snapshotter); ok {
				encoders = append(encoders, s.State)
			}
		}
	}
	if reverse {
		slices.Reverse(encoders)
	}
	for _, encode := range encoders {
		if _, err := encode(); err != nil {
			t.Fatal(err)
		}
	}
	var all []byte
	for _, ckpt := range checkpoints {
		data, err := ckpt()
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, data...)
	}
	if err := os.WriteFile(path, all, 0o644); err != nil {
		t.Fatal(err)
	}
}
