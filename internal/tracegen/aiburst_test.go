package tracegen

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"nopower/internal/trace"
)

func TestAIBurstDeterministic(t *testing.T) {
	a, err := GenerateAIBurst(8, Params{Ticks: 600, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAIBurst(8, Params{Ticks: 600, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces {
		for k := 0; k < a.Traces[i].Len(); k++ {
			if math.Float64bits(a.Traces[i].At(k)) != math.Float64bits(b.Traces[i].At(k)) {
				t.Fatalf("trace %d tick %d differs across identical seeds", i, k)
			}
		}
	}
	c, _ := GenerateAIBurst(8, Params{Ticks: 600, Seed: 43})
	same := true
	for k := 0; k < a.Traces[0].Len(); k++ {
		if a.Traces[0].At(k) != c.Traces[0].At(k) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical AI-burst traces")
	}
}

// The square wave has exactly two plateaus — compute near 0.95, stall near
// 0.20, each within the ±3 % amplitude jitter — and compute dominates.
func TestAIBurstStepMagnitudes(t *testing.T) {
	set, err := GenerateAIBurst(12, Params{Ticks: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	high := 0
	for _, tr := range set.Traces {
		if tr.Class != aiClassName {
			t.Fatalf("%s: class %q, want %q", tr.Name, tr.Class, aiClassName)
		}
		if tr.Len() != 2000 {
			t.Fatalf("%s: %d ticks, want 2000", tr.Name, tr.Len())
		}
		for k := 0; k < tr.Len(); k++ {
			d := tr.At(k)
			switch {
			case d >= aiComputeLevel*0.97 && d <= aiComputeLevel*1.03:
				high++
			case d >= aiStallLevel*0.97 && d <= aiStallLevel*1.03:
			default:
				t.Fatalf("%s tick %d: demand %v on neither plateau", tr.Name, k, d)
			}
		}
	}
	total := len(set.Traces) * 2000
	if frac := float64(high) / float64(total); frac < 0.75 || frac > 0.97 {
		t.Errorf("compute fraction %.3f outside the 30–60-on / 3–8-off duty cycle", frac)
	}
}

// Interior phase lengths obey the schedule: compute runs of 30–60 ticks,
// stalls of 3–8 (the leading run may be stretched by the ≤ 2-tick offset, the
// trailing one truncated — both are skipped).
func TestAIBurstPhasePeriods(t *testing.T) {
	set, err := GenerateAIBurst(6, Params{Ticks: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mid := (aiComputeLevel + aiStallLevel) / 2
	for _, tr := range set.Traces {
		type run struct {
			high bool
			n    int
		}
		var runs []run
		for k := 0; k < tr.Len(); k++ {
			h := tr.At(k) > mid
			if len(runs) == 0 || runs[len(runs)-1].high != h {
				runs = append(runs, run{high: h})
			}
			runs[len(runs)-1].n++
		}
		if len(runs) < 10 {
			t.Fatalf("%s: only %d phases in 3000 ticks", tr.Name, len(runs))
		}
		for i, r := range runs[1 : len(runs)-1] {
			if r.high && (r.n < 30 || r.n > 60) {
				t.Errorf("%s phase %d: compute run of %d ticks outside [30, 60]", tr.Name, i+1, r.n)
			}
			if !r.high && (r.n < 3 || r.n > 8) {
				t.Errorf("%s phase %d: stall run of %d ticks outside [3, 8]", tr.Name, i+1, r.n)
			}
		}
	}
}

// The fleet steps together: away from phase edges (> 4 ticks, covering the
// maximum 2-tick offset each way) every trace is in the same phase — the
// synchronized facility-scale swing the trace class exists to model.
func TestAIBurstSynchronized(t *testing.T) {
	set, err := GenerateAIBurst(20, Params{Ticks: 1500, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mid := (aiComputeLevel + aiStallLevel) / 2
	bin := make([][]bool, len(set.Traces))
	for i, tr := range set.Traces {
		bin[i] = make([]bool, tr.Len())
		for k := range bin[i] {
			bin[i][k] = tr.At(k) > mid
		}
	}
	ref := bin[0]
	farFromEdge := func(k int) bool {
		for d := -4; d <= 4; d++ {
			j := k + d
			if j < 0 || j >= len(ref) {
				return false
			}
			if ref[j] != ref[k] {
				return false
			}
		}
		return true
	}
	checked := 0
	for k := range ref {
		if !farFromEdge(k) {
			continue
		}
		checked++
		for i := range bin {
			if bin[i][k] != ref[k] {
				t.Fatalf("trace %d tick %d: phase %v, fleet phase %v", i, k, bin[i][k], ref[k])
			}
		}
	}
	if checked < 1000 {
		t.Fatalf("only %d interior ticks checked", checked)
	}
}

func TestAIBurstMixNames(t *testing.T) {
	set, err := BuildMix(MixAIBurst, 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 60 {
		t.Errorf("canonical aiburst mix has %d traces, want 60", set.Len())
	}
	sized, err := BuildMix(AIBurstMix(12), 300, 42)
	if err != nil {
		t.Fatal(err)
	}
	if sized.Len() != 12 {
		t.Errorf("aiburst12 has %d traces, want 12", sized.Len())
	}
	if _, err := BuildMix(Mix("aiburst0"), 300, 42); err == nil {
		t.Error("aiburst0 accepted")
	}
	if _, err := GenerateAIBurst(0, Params{Ticks: 10}); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := GenerateAIBurst(3, Params{Ticks: 0}); err == nil {
		t.Error("ticks=0 accepted")
	}
}

// The committed golden CSV pins the generator's exact output for one small
// configuration: any change to the schedule derivation, the jitter draw
// order, or the CSV encoding shows up as a byte diff. Regenerate with
// GOLDEN_REGEN=1 only for a deliberate, documented format change.
func TestAIBurstGoldenCSV(t *testing.T) {
	set, err := GenerateAIBurst(4, Params{Ticks: 48, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, set); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "aiburst_golden.csv")
	if os.Getenv("GOLDEN_REGEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with GOLDEN_REGEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("AI-burst CSV drifted from the committed golden (%d vs %d bytes)", buf.Len(), len(want))
	}
}

// materializedAIBurst is the AI-burst generator as it was before its traces
// read one shared schedule: every trace's samples written out, one per tick,
// from the same draws. It returns the samples and each trace's start offset.
func materializedAIBurst(n int, p Params) (demand [][]float64, offsets []int) {
	if p.Level <= 0 {
		p.Level = 1.0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	sched := make([]float64, p.Ticks)
	for k, high := 0, true; k < p.Ticks; high = !high {
		span := 3 + rng.Intn(6)
		lvl := aiStallLevel
		if high {
			span = 30 + rng.Intn(31)
			lvl = aiComputeLevel
		}
		for i := 0; i < span && k < p.Ticks; i++ {
			sched[k] = lvl
			k++
		}
	}
	for i := 0; i < n; i++ {
		offset := rng.Intn(3)
		u := float64(rng.Float64())
		amp := 1 + float64(0.06*(u-0.5))
		d := make([]float64, p.Ticks)
		for k := range d {
			src := k - offset
			if src < 0 {
				src = 0
			}
			d[k] = sched[src] * amp * p.Level
		}
		demand = append(demand, d)
		offsets = append(offsets, offset)
	}
	return demand, offsets
}

// TestAIBurstReadsMaterialized is the reader contract for schedule-backed
// traces: for every AI-burst case of the digest table, At(k) for k in
// [0, 3·Len) returns the bits the materialized trace holds at k mod Len, so
// a tick past the end wraps before the shift. The cases cover every start
// offset, 0–2.
func TestAIBurstReadsMaterialized(t *testing.T) {
	var shifts [3]int
	for _, c := range digestCases() {
		n, ok := aiBurstMixSize(c.mix)
		if c.mix == MixAIBurst {
			n, ok = 60, true
		}
		if !ok {
			continue
		}
		set, err := BuildMix(c.mix, c.ticks, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		want, offsets := materializedAIBurst(n, Params{Ticks: c.ticks, Seed: c.seed})
		if set.Len() != n {
			t.Fatalf("%s: %d traces, want %d", c, set.Len(), n)
		}
		for i, tr := range set.Traces {
			shifts[offsets[i]]++
			if tr.Len() != c.ticks {
				t.Fatalf("%s: %s has %d ticks, want %d", c, tr.Name, tr.Len(), c.ticks)
			}
			for k := 0; k < 3*c.ticks; k++ {
				if got, w := tr.At(k), want[i][k%c.ticks]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%s: %s (offset %d) At(%d) = %v, materialized %v", c, tr.Name, offsets[i], k, got, w)
				}
			}
		}
	}
	for s, n := range shifts {
		if n == 0 {
			t.Errorf("no AI-burst case has a trace at offset %d", s)
		}
	}
}

// The facility benchmark's set, 2500 traces over 3000 ticks, costs what its
// schedule and its per-trace headers cost: materialized, it was ~60 MB.
func TestAIBurstSetAllocations(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	set, err := BuildMix(AIBurstMix(2500), 3000, 42)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("BuildMix(aiburst2500, 3000 ticks) allocated %d bytes, want under 1 MiB", got)
	}
	if set.Len() != 2500 || set.Traces[2499].Len() != 3000 {
		t.Errorf("set of %d traces, last %d ticks", set.Len(), set.Traces[2499].Len())
	}
}
