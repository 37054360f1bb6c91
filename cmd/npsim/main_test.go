package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

func TestUnknownStack(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-stack", "bogus"}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown stack") {
		t.Errorf("stderr = %q", errOut.String())
	}
}

func TestSmallCoordinatedRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-mix", "60L", "-ticks", "600", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, frag := range []string{"baseline:", "avg power", "power savings", "servers on"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}
}

func TestSeriesFileWritten(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.csv")
	var out, errOut bytes.Buffer
	code := run([]string{"-mix", "60L", "-ticks", "300", "-series", path, "-series-stride", "50"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 7 { // header + 6 samples (ticks 0,50,...,250)
		t.Errorf("%d series lines", len(lines))
	}
}

func TestCustomTracesFlow(t *testing.T) {
	// Write a tiny trace file in the nptrace CSV format, then run on it.
	path := filepath.Join(t.TempDir(), "tr.csv")
	writeTinyTraces(t, path)
	var out, errOut bytes.Buffer
	code := run([]string{"-traces", path, "-ticks", "300", "-stack", "vmconly"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "avg power") {
		t.Error("metrics missing")
	}
	if code := run([]string{"-traces", "/nonexistent.csv"}, &out, &errOut); code != 1 {
		t.Errorf("missing trace file exit %d", code)
	}
}

func writeTinyTraces(t *testing.T, path string) {
	t.Helper()
	writeTraces(t, path, 300, func(i, k int) float64 { return 0.2 })
}

// writeTraces writes 10 traces of the given length in the nptrace CSV
// format, sample k of trace i being demand(i, k).
func writeTraces(t *testing.T, path string, ticks int, demand func(i, k int) float64) {
	t.Helper()
	var b strings.Builder
	names := make([]string, 10)
	classes := make([]string, 10)
	for i := range names {
		names[i] = "w"
		classes[i] = "flat"
	}
	b.WriteString(strings.Join(names, ",") + "\n")
	b.WriteString(strings.Join(classes, ",") + "\n")
	for k := 0; k < ticks; k++ {
		row := make([]string, 10)
		for i := range row {
			row[i] = strconv.FormatFloat(demand(i, k), 'g', -1, 64)
		}
		b.WriteString(strings.Join(row, ",") + "\n")
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestChaosFlags(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-mix", "60L", "-ticks", "300", "-chaos", "sm-crash",
		"-fault-policy", "degrade", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	for _, frag := range []string{"chaos: sm-crash (fault policy degrade)", "disabled ctrls        1"} {
		if !strings.Contains(out.String(), frag) {
			t.Errorf("output missing %q:\n%s", frag, out.String())
		}
	}

	// Without the degrade policy the injected crash fails the run.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-mix", "60L", "-ticks", "300", "-chaos", "sm-crash"}, &out, &errOut); code != 1 {
		t.Errorf("exit %d, want 1 (fault policy fail surfaces the panic)", code)
	}
	if !strings.Contains(errOut.String(), "injected crash") {
		t.Errorf("stderr = %q, want the injected-crash error", errOut.String())
	}

	if code := run([]string{"-chaos", "bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown chaos case exit %d, want 2", code)
	}
	if code := run([]string{"-fault-policy", "bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown fault policy exit %d, want 2", code)
	}
}

func TestTraceAndHTTPFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	var out, errOut bytes.Buffer
	code := run([]string{"-mix", "60L", "-ticks", "300", "-stack", "uncoordinated",
		"-trace", path, "-http", "127.0.0.1:0"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Errorf("only %d trace events", len(lines))
	}
	var ev struct {
		Tick       int     `json:"tick"`
		Controller string  `json:"controller"`
		Actuator   string  `json:"actuator"`
		New        float64 `json:"new"`
		Reason     string  `json:"reason"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("first event is not JSON: %v\n%s", err, lines[0])
	}
	if ev.Controller == "" || ev.Actuator == "" || ev.Reason == "" {
		t.Errorf("event missing fields: %+v", ev)
	}
	for _, frag := range []string{"observability endpoint up", "actuation trace written", "conflicts="} {
		if !strings.Contains(errOut.String(), frag) {
			t.Errorf("stderr missing %q:\n%s", frag, errOut.String())
		}
	}
}

// runCLI runs npsim and returns its exit code, stdout and stderr.
func runCLI(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// checkpointAt500 runs args to completion with a checkpoint every 500 ticks,
// then deletes every checkpoint after tick 500, leaving the directory as a
// run killed just past tick 500 would.
func checkpointAt500(t *testing.T, dir string, args ...string) {
	t.Helper()
	args = append(args, "-checkpoint-dir", dir, "-checkpoint-every", "500")
	if code, _, stderr := runCLI(args...); code != 0 {
		t.Fatalf("checkpointed run exit %d: %s", code, stderr)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != checkpoint.FileName(500) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// copyDir copies the flat checkpoint directory src into a fresh one, so a
// resume that writes its own checkpoints leaves src untouched.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestResumeRefusesChangedRun pins the checkpoint labels to the whole run
// spec: a resume under any changed setting — or from other trace values of
// the same shape — exits 2 and names the field, while an unchanged resume
// and one at another shard count continue the run to the uninterrupted
// run's exact stdout.
func TestResumeRefusesChangedRun(t *testing.T) {
	base := []string{"-mix", "60HH", "-ticks", "1000"}
	ckpt := t.TempDir()
	checkpointAt500(t, ckpt, base...)
	code, want, stderr := runCLI(base...)
	if code != 0 {
		t.Fatalf("uninterrupted run exit %d: %s", code, stderr)
	}

	resume := func(dir string, extra ...string) (int, string, string) {
		args := append(append([]string{}, base...), extra...)
		return runCLI(append(args, "-checkpoint-dir", copyDir(t, dir), "-resume")...)
	}
	for _, c := range []struct {
		flags []string
		field string
	}{
		{[]string{"-cap-grp", "0.4"}, "cap_grp"},
		{[]string{"-cap-enc", "0.2"}, "cap_enc"},
		{[]string{"-cap-loc", "0.3"}, "cap_loc"},
		{[]string{"-no-off"}, "no_off"},
		{[]string{"-migration-ticks", "20"}, "migration_ticks"},
		{[]string{"-alpha-m", "0.2"}, "alpha_m"},
		{[]string{"-facility", "-facility-feed", "30000"}, "facility_feed_w"},
		{[]string{"-fault-policy", "degrade"}, "fault_policy"},
	} {
		code, stdout, stderr := resume(ckpt, c.flags...)
		if code != 2 || !strings.Contains(stderr, c.field+"=") {
			t.Errorf("resume with %v: exit %d, stderr %q; want exit 2 naming %s", c.flags, code, stderr, c.field)
		}
		if stdout != "" {
			t.Errorf("refused resume with %v printed %q", c.flags, stdout)
		}
	}

	for _, extra := range [][]string{nil, {"-shards", "2"}} {
		code, got, stderr := resume(ckpt, extra...)
		if code != 0 {
			t.Fatalf("resume with %v: exit %d: %s", extra, code, stderr)
		}
		if got != want {
			t.Errorf("resume with %v diverged from the uninterrupted run:\n%s\nwant:\n%s", extra, got, want)
		}
	}

	// Same shape, other values: the labels carry a digest of the traces.
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.csv"), filepath.Join(dir, "b.csv")
	writeTraces(t, a, 1000, func(i, k int) float64 { return 0.1 + 0.05*float64(i%4) })
	writeTraces(t, b, 1000, func(i, k int) float64 { return 0.1 + 0.05*float64((i+1)%4) })
	tck := t.TempDir()
	checkpointAt500(t, tck, "-traces", a, "-ticks", "1000")
	if code, _, stderr := runCLI("-traces", b, "-ticks", "1000", "-checkpoint-dir", copyDir(t, tck), "-resume"); code != 2 || !strings.Contains(stderr, "traces=") {
		t.Errorf("resume on other trace values: exit %d, stderr %q; want exit 2 naming traces", code, stderr)
	}
	if code, _, stderr := runCLI("-traces", a, "-ticks", "1000", "-checkpoint-dir", copyDir(t, tck), "-resume"); code != 0 {
		t.Errorf("resume on the same traces: exit %d: %s", code, stderr)
	}
}

// specFromArgs parses args into a run spec the way run does: the run flags
// bound by bindRunFlags, Validate, then -traces.
func specFromArgs(args []string) (experiments.RunSpec, error) {
	fs := flag.NewFlagSet("npsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var spec experiments.RunSpec
	bindRunFlags(fs, &spec)
	traces := fs.String("traces", "", "")
	if err := fs.Parse(args); err != nil {
		return spec, err
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	if *traces == "" {
		return spec, nil
	}
	f, err := os.Open(*traces)
	if err != nil {
		return spec, err
	}
	defer f.Close()
	spec.Traces, err = trace.ReadCSV(f, *traces)
	return spec, err
}

// handMapped is a run as npsim described it before the run spec: the
// scenario, stack, chaos case and fault policy it built from its flags.
type handMapped struct {
	sc     experiments.Scenario
	spec   core.Spec
	cse    experiments.ChaosCase
	policy sim.FaultPolicy
}

// handMapping is npsim's flag-to-run mapping as it stood before the run
// spec, copied unchanged apart from returning instead of running: the
// reference each spec's run must reproduce. ok is false where npsim exited 2.
func handMapping(t *testing.T, args []string) (m handMapped, ok bool) {
	t.Helper()
	fs := flag.NewFlagSet("npsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var (
		modelName = fs.String("model", "BladeA", "")
		profiles  = fs.String("profiles", "", "")
		mix       = fs.String("mix", "180", "")
		stack     = fs.String("stack", "coordinated", "")
		ticks     = fs.Int("ticks", experiments.DefaultTicks, "")
		seed      = fs.Int64("seed", 42, "")
		budGrp    = fs.Float64("cap-grp", 0.20, "")
		budEnc    = fs.Float64("cap-enc", 0.15, "")
		budLoc    = fs.Float64("cap-loc", 0.10, "")
		pol       = fs.String("policy", "proportional", "")
		noOff     = fs.Bool("no-off", false, "")
		migTicks  = fs.Int("migration-ticks", 10, "")
		alphaM    = fs.Float64("alpha-m", 0.10, "")
		traceFile = fs.String("traces", "", "")
		chaosCase = fs.String("chaos", "", "")
		faultPol  = fs.String("fault-policy", "fail", "")
		facility  = fs.Bool("facility", false, "")
		feedW     = fs.Float64("facility-feed", 0, "")
		shards    = fs.Int("shards", 1, "")
	)
	if err := fs.Parse(args); err != nil {
		return m, false
	}
	spec, err := core.SpecByName(*stack)
	if err != nil {
		return m, false
	}
	policy, err := sim.FaultPolicyByName(*faultPol)
	if err != nil {
		return m, false
	}
	spec.Policy = *pol
	spec.AllowOff = spec.AllowOff && !*noOff
	spec.Shards = *shards
	if *facility {
		spec.EnableFacility, spec.EnableCooling = true, true
	}
	if *feedW != 0 {
		spec.FacilityFeedW = *feedW
	}
	if *profiles != "" {
		modelSet := false
		fs.Visit(func(f *flag.Flag) { modelSet = modelSet || f.Name == "model" })
		if modelSet {
			return m, false
		}
		d, err := model.ParseDistribution(*profiles)
		if err != nil {
			return m, false
		}
		*profiles, *modelName = d.String(), ""
	}
	sc := experiments.Scenario{
		Model:          *modelName,
		Profiles:       *profiles,
		Mix:            tracegen.Mix(*mix),
		Budgets:        experiments.Budgets{Grp: *budGrp, Enc: *budEnc, Loc: *budLoc},
		Ticks:          *ticks,
		Seed:           *seed,
		MigrationTicks: *migTicks,
		AlphaM:         *alphaM,
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			t.Fatal(err)
		}
		set, err := trace.ReadCSV(f, *traceFile)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		sc.Traces = set
	}
	var cse experiments.ChaosCase
	if *chaosCase != "" {
		if cse, err = experiments.ChaosCaseByName(*chaosCase); err != nil {
			return m, false
		}
	}
	return handMapped{sc, spec, cse, policy}, true
}

// TestFlagsToSpec is the run spec's equivalence gate: for every row, the
// spec npsim parses its flags into runs bit-identically to the scenario and
// stack npsim built by hand before the spec existed, with the same
// controllers disabled, and refuses exactly the flag sets npsim refused.
// The reference goes through CheckIdentity, whose serial reference is the
// package's run path; its sharded and resumed variants must agree too.
func TestFlagsToSpec(t *testing.T) {
	traces := filepath.Join(t.TempDir(), "tr.csv")
	writeTraces(t, traces, 600, func(i, k int) float64 { return 0.15 + 0.1*float64((i+k/50)%5) })
	rows := []struct {
		args    []string
		refused bool // npsim exits 2
		fails   bool // the run itself fails (exit 1)
	}{
		{args: nil},
		{args: []string{"-mix", "60HH", "-cap-grp", "0"}},
		{args: []string{"-model", "blade-a", "-mix", "60L"}},
		{args: []string{"-model", "ServerB", "-mix", "60M", "-seed", "7", "-cap-enc", "0.2", "-cap-loc", "0.05", "-policy", "fairshare"}},
		{args: []string{"-mix", "60H", "-no-off", "-migration-ticks", "20", "-alpha-m", "0.3", "-shards", "2"}},
		{args: []string{"-profiles", "arm-microblade:3,serverb:1", "-mix", "hetero"}},
		{args: []string{"-profiles", "bladea:1", "-model", "ServerB"}, refused: true},
		{args: []string{"-mix", "aiburst", "-facility", "-facility-feed", "30000"}},
		{args: []string{"-mix", "aiburst", "-stack", "uncoordinated", "-facility"}},
		{args: []string{"-mix", "60HH", "-chaos", "fm-crash"}, fails: true},
		{args: []string{"-mix", "60HH", "-chaos", "fm-crash", "-fault-policy", "degrade"}},
		{args: []string{"-mix", "60HH", "-chaos", "sm-crash", "-fault-policy", "degrade"}},
		{args: []string{"-mix", "60HH", "-chaos", "budget-flap", "-stack", "uncoordinated"}},
		{args: []string{"-traces", traces, "-stack", "vmconly"}},
		{args: []string{"-stack", "bogus"}, refused: true},
	}
	ctx := context.Background()
	for _, row := range rows {
		args := append([]string{"-ticks", "600"}, row.args...)
		name := strings.Join(row.args, " ")
		if name == "" {
			name = "defaults"
		}
		t.Run(name, func(t *testing.T) {
			ref, ok := handMapping(t, args)
			spec, err := specFromArgs(args)
			if row.refused {
				if ok || err == nil {
					t.Fatalf("hand mapping ok=%v, spec error %v; want both refused", ok, err)
				}
				return
			}
			if !ok || err != nil {
				t.Fatalf("hand mapping ok=%v, spec error %v; want both accepted", ok, err)
			}
			baseline, err := experiments.BaselinePower(ctx, ref.sc)
			if err != nil {
				t.Fatal(err)
			}
			if b, err := experiments.BaselinePower(ctx, spec.Scenario()); err != nil || b != baseline {
				t.Fatalf("spec baseline %v (err %v), hand-mapped %v", b, err, baseline)
			}
			reg := obs.NewRegistry()
			rep, refErr := experiments.CheckIdentity(ctx, ref.sc, ref.spec, ref.cse, baseline,
				experiments.Observers{FaultPolicy: ref.policy, Metrics: reg})
			res, disabled, err := spec.Run(ctx, baseline, experiments.Observers{})
			if row.fails {
				if refErr == nil || err == nil {
					t.Fatalf("reference error %v, spec error %v; want both runs to fail", refErr, err)
				}
				return
			}
			if refErr != nil || err != nil {
				t.Fatalf("reference error %v, spec error %v", refErr, err)
			}
			if err := rep.Err(); err != nil {
				t.Error(err)
			}
			if d := rep.Result.Diff(res); d != "" {
				t.Errorf("spec run differs from the hand-mapped run: %s", d)
			}
			if want := int(reg.Gauge("np_sim_controllers_disabled").Value()); disabled != want {
				t.Errorf("disabled controllers %d, hand-mapped run %d", disabled, want)
			}
			if res == (metrics.Result{}) {
				t.Error("empty result")
			}
		})
	}
}
