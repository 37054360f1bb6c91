package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"nopower/internal/metrics"
)

// toySize runs every workload path in a fraction of a second per run.
var toySize = sizes{
	fleetServers: 200, fleetTicks: 20,
	facServers: 60, facTicks: 100,
	npexpTicks: 300, npexpFigs: []string{"fig7"},
	serveTicks: 300,
}

// buildNpexp compiles the npexp binary the npexp-figs workload executes.
func buildNpexp(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "npexp")
	out, err := exec.Command("go", "build", "-o", bin, "nopower/cmd/npexp").CombinedOutput()
	if err != nil {
		t.Fatalf("build npexp: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsToy smoke-runs every workload, untraced and traced, at toy
// size with every seed-independent check on.
func TestWorkloadsToy(t *testing.T) {
	npexp := buildNpexp(t)
	for _, w := range workloadDefs {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 7, seconds: time.Second, trace: traced, out: t.TempDir(), npexp: npexp, size: toySize}
			rep, err := runWorkload(context.Background(), w.name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d/%d errors=%v",
					w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.Errors)
			}
			want := []string{"setup_s", "op_ms_p50"}
			if traced {
				want = []string{"tracegen.build_s", "cluster.advance_ms_per_tick", "ec.ms_per_tick",
					"cluster.shard_speedup", "trace.residual_share", "trace.overhead"}
			}
			for _, m := range want {
				if v, ok := rep.Metrics[m]; !ok || v == 0 {
					t.Errorf("%s trace=%v: metric %s = %v (present %v)", w.name, traced, m, v, ok)
				}
			}
			if traced && rep.Metrics["trace.residual_share"] > 0.05 {
				t.Errorf("%s: residual share %v", w.name, rep.Metrics["trace.residual_share"])
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite golden/ from full-size seed-42 reference runs")

// TestUpdateGoldens regenerates the seed-42 goldens (go test -run
// TestUpdateGoldens -update, a few minutes): one serial run of each
// simulator workload, one npexp sweep, and direct runs of the sampled
// npserved specs — the references each workload checks against.
func TestUpdateGoldens(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite golden/")
	}
	ctx := context.Background()
	cfg := config{seed: goldenSeed, size: fullSize, npexp: buildNpexp(t)}
	g := goldenSet{}
	for name, w := range map[string]simWorkload{
		"fleet100k-sharded":    fleetWorkload(cfg),
		"facility2500-aiburst": facilityWorkload(cfg),
	} {
		g[name] = map[string]map[string]string{}
		w.shards = 1
		for j := 0; j < w.scenarios; j++ {
			sc, eng, _, err := w.at(j).setup(nil)
			if err != nil {
				t.Fatal(err)
			}
			col, err := eng.RunContext(ctx, sc.Ticks)
			if err != nil {
				t.Fatal(err)
			}
			g[name][goldenKey(sc)] = bits(col.Finalize(0))
		}
	}
	g["npserved-fresh"] = map[string]map[string]string{}
	for i := 0; i < sampleSpecs; i++ {
		spec := readmeJob(seedBase(goldenSeed)+int64(i), fullSize.serveTicks)
		out, err := directOutput(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		g["npserved-fresh"][spec.Key()] = bits(out)
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("golden", "seed42.json"), append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, _, err := execNpexp(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("golden", "npexp-figs.seed42.json"), out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFailureNamesField checks that a one-bit difference is reported with
// the workload, the run and the field.
func TestFailureNamesField(t *testing.T) {
	r, err := newRun("fleet100k-sharded", config{size: toySize})
	if err != nil {
		t.Fatal(err)
	}
	a := metrics.Result{Ticks: 3, AvgPower: 100}
	b := a
	if !r.same(2, "ref", bits(a), bits(b)) {
		t.Fatalf("identical results reported different: %v", r.rep.Errors)
	}
	b.PerfLoss = math.Copysign(0, -1)
	if r.same(2, "ref", bits(a), bits(b)) {
		t.Fatal("-0 against +0 not caught")
	}
	msg := strings.Join(r.rep.Errors, "\n")
	for _, part := range []string{"fleet100k-sharded", "run 2", "field PerfLoss"} {
		if !strings.Contains(msg, part) {
			t.Errorf("failure %q does not name %q", msg, part)
		}
	}
}

// TestSeedBase checks that npserved-fresh's job seeds depend on the run
// seed alone.
func TestSeedBase(t *testing.T) {
	if seedBase(3) != seedBase(3) {
		t.Fatal("same seed, different job seeds")
	}
	if seedBase(3) == seedBase(4) {
		t.Error("different seeds, same job seeds")
	}
}

// TestMedianRun checks that the median run is assembled tick by tick, so a
// burst that slows one run's ticks drops out.
func TestMedianRun(t *testing.T) {
	runs := [][]float64{{1, 5, 1}, {1, 5, 9}, {9, 5, 1}}
	if got := medianRun(runs); got != 7 {
		t.Errorf("medianRun = %v, want 7", got)
	}
	if got := medianRun(nil); got != 0 {
		t.Errorf("medianRun(nil) = %v", got)
	}
}

// TestQuartiles pins the exclusive method of Python's
// statistics.quantiles(n=4).
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 5.5/5.5 {
		t.Errorf("spread = %v, want 1", s)
	}
}

// TestCompareVerdicts covers each verdict compare can give, from one result
// file a side (raw samples) and from several (one median a file).
func TestCompareVerdicts(t *testing.T) {
	var def benchDef
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"op_ms_p50","unit":"ms","better":"lower","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.1},
		{"name":"peak_rss_mb","unit":"MB","better":"lower","bound":0.1}]}`), &def); err != nil {
		t.Fatal(err)
	}
	// file is one result file whose op and setup samples are given, and whose
	// medians are the samples' medians unless metrics overrides them.
	file := func(op, setup []float64, failed int) resultFile {
		return resultFile{Workloads: []*report{{
			Workload: "w", Attempted: 10, Failed: failed,
			Samples: map[string][]float64{"op_ms_p50": op, "setup_s": setup, "peak_rss_mb": {30}},
			Metrics: map[string]float64{"op_ms_p50": median(op), "setup_s": median(setup), "peak_rss_mb": 30},
		}}}
	}
	verdicts := func(a, b side) []string {
		var out []string
		for _, r := range compareResults(def, a, b) {
			out = append(out, r.Metric+"="+r.Verdict)
		}
		return out
	}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		name string
		a, b side
		want []string
	}{
		{"one file a side", side{file(steady, []float64{1, 1.01, 0.99}, 0)},
			side{file([]float64{120, 121, 119, 120}, []float64{0.5, 0.51, 0.49}, 1)},
			[]string{"op_ms_p50=regressed", "setup_s=improved", "peak_rss_mb=unresolved", "failed_frac=regressed"}},
		{"wide samples", side{file(steady, []float64{1, 2, 1, 2}, 0)},
			side{file([]float64{104, 105, 103, 104}, []float64{1, 1.05, 1.1}, 0)},
			[]string{"op_ms_p50=unchanged", "setup_s=unresolved", "peak_rss_mb=unresolved", "failed_frac=unchanged"}},
		{"wide but every b better", side{file([]float64{100, 140, 100, 140}, steady, 0)},
			side{file([]float64{50, 60, 55, 58}, steady, 0)},
			[]string{"op_ms_p50=improved", "setup_s=unchanged", "peak_rss_mb=unresolved", "failed_frac=unchanged"}},
		// several files: each file's median counts, not its wide samples
		{"several files a side",
			side{file([]float64{50, 100, 150}, steady, 0), file([]float64{51, 101, 151}, steady, 0), file([]float64{49, 99, 149}, steady, 0)},
			side{file([]float64{50, 102, 150}, steady, 0), file([]float64{51, 100, 151}, steady, 0), file([]float64{49, 98, 149}, steady, 0)},
			[]string{"op_ms_p50=unchanged", "setup_s=unchanged", "peak_rss_mb=unchanged", "failed_frac=unchanged"}},
	} {
		if got := verdicts(c.a, c.b); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and this program in step: the same
// workloads, and the same metrics with the same units and directions.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program has %v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, program has %v", b.PerLayer, perLayer)
	}
}
