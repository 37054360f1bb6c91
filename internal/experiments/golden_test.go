package experiments

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
)

// TestRegenerateGoldenAoS writes the committed golden artifacts. It is
// gated behind GOLDEN_REGEN=1 because the whole point of the files is that
// they were produced by the pre-columnar (AoS) engine: regenerating them
// from the current code would turn the compatibility test into a tautology.
// Only rerun it if the checkpoint wire format version changes.
func TestRegenerateGoldenAoS(t *testing.T) {
	if os.Getenv("GOLDEN_REGEN") == "" {
		t.Skip("set GOLDEN_REGEN=1 to rewrite the golden AoS artifacts (see golden.go)")
	}
	ctx := context.Background()
	sc := goldenScenario().normalized()
	cse := goldenCase()
	spec := core.Coordinated()

	// Partial run to the kill tick, snapshot, persist.
	eng, _, err := newChaosEngine(sc, spec, cse)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var part metrics.Series
	o := Observers{Series: &part, FaultPolicy: sim.FaultDegrade}
	if err := o.attach(eng, sc.Ticks); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if _, err := eng.RunContext(ctx, goldenKillAt); err != nil {
		t.Fatalf("partial run: %v", err)
	}
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	data, err := checkpoint.Encode(&checkpoint.File{
		Meta:  checkpoint.Meta{Tick: snap.Tick, Experiment: "aos-golden"},
		State: snap,
	})
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := os.WriteFile("testdata/golden_aos.ckpt", data, 0o644); err != nil {
		t.Fatalf("write checkpoint: %v", err)
	}

	// Uninterrupted run for the reference result bits.
	var full metrics.Series
	_, fullRes, err := execute(ctx, sc, spec, cse, 0, Observers{Series: &full, FaultPolicy: sim.FaultDegrade}, sc.Ticks)
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	buf, err := json.MarshalIndent(resultToBits(fullRes), "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := os.WriteFile("testdata/golden_aos_result.json", append(buf, '\n'), 0o644); err != nil {
		t.Fatalf("write result: %v", err)
	}
	t.Logf("golden artifacts rewritten: %d checkpoint bytes, kill tick %d", len(data), snap.Tick)
}

// TestGoldenAoSReplay is the cross-layout compatibility contract: the
// committed AoS checkpoint resumes on the current cluster implementation
// and replays to the committed result, bit for bit.
func TestGoldenAoSReplay(t *testing.T) {
	rep, err := GoldenReplay(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("golden AoS replay: %v", err)
	}
	if want := fmt.Sprintf("uninterrupted, resume@%d", goldenKillAt); rep.VariantNames() != want {
		t.Fatalf("golden variants = %q, want %q", rep.VariantNames(), want)
	}
}

// TestGoldenAoSStateRoundTrip restores the committed AoS checkpoint onto a
// freshly built cluster and re-serializes it: the wire state must come back
// byte-identical (gob encodes floats by their bits, so this is a bitwise
// field-by-field comparison of the plant state across the layout change).
func TestGoldenAoSStateRoundTrip(t *testing.T) {
	file, err := checkpoint.Decode(goldenCkpt)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	sc := goldenScenario().normalized()
	eng, _, err := newChaosEngine(sc, core.Coordinated(), goldenCase())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var series metrics.Series
	o := Observers{Series: &series, FaultPolicy: sim.FaultDegrade}
	if err := o.attach(eng, sc.Ticks); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := eng.RestoreSnapshot(file.State); err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := eng.Cluster.State()

	var wantBuf, gotBuf bytes.Buffer
	if err := gob.NewEncoder(&wantBuf).Encode(file.State.Cluster); err != nil {
		t.Fatalf("encode want: %v", err)
	}
	if err := gob.NewEncoder(&gotBuf).Encode(got); err != nil {
		t.Fatalf("encode got: %v", err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatalf("cluster state did not round-trip bit-identically through RestoreState/State (%d vs %d bytes)",
			wantBuf.Len(), gotBuf.Len())
	}
}

// resultToBits is the inverse of goldenResultBits.result, for writing the
// committed file.
func resultToBits(r metrics.Result) goldenResultBits {
	return goldenResultBits{
		Ticks:        r.Ticks,
		AvgPower:     math.Float64bits(r.AvgPower),
		PeakPower:    math.Float64bits(r.PeakPower),
		PowerSavings: math.Float64bits(r.PowerSavings),
		PerfLoss:     math.Float64bits(r.PerfLoss),
		ViolSM:       math.Float64bits(r.ViolSM),
		ViolEM:       math.Float64bits(r.ViolEM),
		ViolGM:       math.Float64bits(r.ViolGM),
		ViolSMWatts:  math.Float64bits(r.ViolSMWatts),
		AvgServersOn: math.Float64bits(r.AvgServersOn),
	}
}
