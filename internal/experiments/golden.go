package experiments

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// The golden AoS checkpoint: a snapshot written at tick 300 of a 600-tick
// chaos run by the pre-columnar (array-of-structs) engine, committed under
// testdata/ together with the Float64bits of that run's uninterrupted final
// summary. The columnar (struct-of-arrays) cluster must restore it
// bit-identically and replay the remaining ticks to the exact committed
// result — the cross-layout compatibility contract for the on-disk format.
//
// The artifacts are frozen provenance: they were generated once, from the
// AoS engine, via TestRegenerateGoldenAoS (GOLDEN_REGEN=1). Regenerating
// them from the current engine would make the test tautological; only do so
// if the wire format itself changes version.
//
//go:embed testdata/golden_aos.ckpt
var goldenCkpt []byte

//go:embed testdata/golden_aos_result.json
var goldenResultJSON []byte

const (
	// goldenTicks and goldenKillAt are frozen with the artifacts.
	goldenTicks  = 600
	goldenKillAt = 300
	goldenSeed   = 7
)

// goldenScenario is the frozen run setup behind the committed artifacts.
// Shards is pinned to 1 so the golden run never depends on GOMAXPROCS
// (sharded runs are bit-identical anyway, per E17/E18, but the golden files
// should not lean on that).
func goldenScenario() Scenario {
	return Scenario{Model: "BladeA", Mix: tracegen.Mix60L, Budgets: Base201510(),
		Ticks: goldenTicks, Seed: goldenSeed, Shards: 1}
}

// goldenCase is the frozen fault schedule: a demand rescale (so a Mutated
// trace rides in the checkpoint), a server failure before the snapshot and
// its restoration after it — the mutators whose state must cross the
// AoS→SoA boundary intact.
func goldenCase() ChaosCase {
	return ChaosCase{
		Name: "aos-golden",
		Desc: "frozen schedule behind the committed AoS-era checkpoint",
		Events: func(ticks int, seed int64) []sim.Event {
			return []sim.Event{
				sim.ScaleDemand(ticks/5, 1.15),
				sim.FailServer(ticks/3, 3),
				sim.RestoreServer(8*ticks/15, 3),
			}
		},
	}
}

// goldenResultBits is the committed final summary, field by field as raw
// Float64bits — JSON round-trips of decimal floats are not bit-faithful, so
// the file stores the bits themselves.
type goldenResultBits struct {
	Ticks        int    `json:"ticks"`
	AvgPower     uint64 `json:"avgPowerBits"`
	PeakPower    uint64 `json:"peakPowerBits"`
	PowerSavings uint64 `json:"powerSavingsBits"`
	PerfLoss     uint64 `json:"perfLossBits"`
	ViolSM       uint64 `json:"violSMBits"`
	ViolEM       uint64 `json:"violEMBits"`
	ViolGM       uint64 `json:"violGMBits"`
	ViolSMWatts  uint64 `json:"violSMWattsBits"`
	AvgServersOn uint64 `json:"avgServersOnBits"`
}

// result converts the committed bits back to the summary they encode.
func (b goldenResultBits) result() metrics.Result {
	return metrics.Result{
		Ticks:        b.Ticks,
		AvgPower:     math.Float64frombits(b.AvgPower),
		PeakPower:    math.Float64frombits(b.PeakPower),
		PowerSavings: math.Float64frombits(b.PowerSavings),
		PerfLoss:     math.Float64frombits(b.PerfLoss),
		ViolSM:       math.Float64frombits(b.ViolSM),
		ViolEM:       math.Float64frombits(b.ViolEM),
		ViolGM:       math.Float64frombits(b.ViolGM),
		ViolSMWatts:  math.Float64frombits(b.ViolSMWatts),
		AvgServersOn: math.Float64frombits(b.AvgServersOn),
	}
}

// GoldenReplay runs the cross-layout compatibility check end to end. Its
// reference is the committed AoS result, and it reports two variants:
//
//   - "uninterrupted": the scenario run from tick 0 on today's engine must
//     finalize to the committed bits;
//   - "resume@300": the committed AoS checkpoint, decoded and resumed on
//     today's cluster implementation for ticks 300..600, must reproduce the
//     uninterrupted run's per-tick series and the committed bits.
//
// It is wired into E16 (Replay) as an extra row, so the experiment fails
// loudly if the current engine ever drifts from the AoS seed behavior.
func GoldenReplay(ctx context.Context) (IdentityReport, error) {
	sc := goldenScenario().normalized()
	cse := goldenCase()
	spec := core.Coordinated()

	file, err := checkpoint.Decode(goldenCkpt)
	if err != nil {
		return IdentityReport{}, fmt.Errorf("experiments: golden checkpoint: %w", err)
	}
	var want goldenResultBits
	if err := json.Unmarshal(goldenResultJSON, &want); err != nil {
		return IdentityReport{}, fmt.Errorf("experiments: golden result file: %w", err)
	}
	rep := IdentityReport{Result: want.result(), SnapshotBytes: len(goldenCkpt)}

	var full, resumed metrics.Series
	_, fullRes, err := execute(ctx, sc, spec, cse, nil, Observers{Series: &full, FaultPolicy: sim.FaultDegrade}, sc.Ticks)
	if err != nil {
		return IdentityReport{}, fmt.Errorf("experiments: golden reference run: %w", err)
	}
	_, resumedRes, err := execute(ctx, sc, spec, cse, nil, Observers{
		Series: &resumed, FaultPolicy: sim.FaultDegrade, Resume: file,
	}, sc.Ticks)
	if err != nil {
		return IdentityReport{}, fmt.Errorf("experiments: golden resume run: %w", err)
	}
	rep.Variants = []IdentityVariant{
		{Name: "uninterrupted", Result: fullRes, Diff: firstDiff(nil, nil, rep.Result, fullRes)},
		{Name: fmt.Sprintf("resume@%d", file.Meta.Tick), Result: resumedRes,
			Diff: firstDiff(&full, &resumed, rep.Result, resumedRes)},
	}
	return rep, nil
}
