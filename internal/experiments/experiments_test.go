package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"nopower/internal/metrics"
	"nopower/internal/testutil"
	"nopower/internal/tracegen"
)

// fastOpts keeps experiment tests quick while leaving ≥ 2 VMC epochs. The
// explicit parallelism forces the concurrent runner path even on one-CPU
// machines, so `go test -race` exercises the pool by default.
func fastOpts() Options { return Options{Ticks: 1500, Seed: 42, Parallelism: 4} }

var ctx = context.Background()

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix180}.normalized()
	if sc.Ticks != DefaultTicks || sc.Seed != 42 || sc.AlphaV != 0.10 || sc.MigrationTicks != 10 {
		t.Errorf("defaults wrong: %+v", sc)
	}
}

func TestScenarioTopologies(t *testing.T) {
	cl180, err := Scenario{Model: "BladeA", Mix: tracegen.Mix180, Budgets: Base201510(), Ticks: 50}.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl180.NumServers() != 180 || len(cl180.Enclosures) != 6 || len(cl180.StandaloneServers()) != 60 {
		t.Errorf("180 topology: %d servers, %d enclosures, %d standalone",
			cl180.NumServers(), len(cl180.Enclosures), len(cl180.StandaloneServers()))
	}
	cl60, err := Scenario{Model: "ServerB", Mix: tracegen.Mix60L, Budgets: Base201510(), Ticks: 50}.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl60.NumServers() != 60 || len(cl60.Enclosures) != 2 || len(cl60.StandaloneServers()) != 20 {
		t.Errorf("60 topology: %d servers, %d enclosures", cl60.NumServers(), len(cl60.Enclosures))
	}
}

func TestScenarioErrors(t *testing.T) {
	if _, err := (Scenario{Model: "nope", Mix: tracegen.Mix180, Ticks: 10}).BuildCluster(); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := (Scenario{Model: "BladeA", Mix: "bogus", Ticks: 10}).BuildCluster(); err == nil {
		t.Error("unknown mix accepted")
	}
	if _, err := (Scenario{Model: "BladeA", Mix: tracegen.Mix180, Ticks: 10, PStates: []int{1, 2}}).BuildCluster(); err == nil {
		t.Error("P-state pick without P0 accepted")
	}
}

func TestBaselinePowerFlatFleet(t *testing.T) {
	// Two standalone BladeA servers at P0, r = 0.5·(1+α_V) = 0.55:
	// 2 · (60 + 40·0.55) = 164 W.
	sc := Scenario{Model: "BladeA", Traces: testutil.FlatSet(2, 10, 0.5), Ticks: 5}
	avg, err := BaselinePower(ctx, sc)
	if err != nil {
		t.Fatal(err)
	}
	if avg < 163 || avg > 165 {
		t.Errorf("baseline = %v, want ~164", avg)
	}
	sc.Model = "nope"
	if _, err := BaselinePower(ctx, sc); err == nil {
		t.Error("cluster build error swallowed")
	}
}

// The baseline key covers exactly what the controller-free run reads.
// AlphaV scales every workload's demand, so scenarios differing only in
// AlphaV must get their own cached baselines. Budgets, AlphaM,
// MigrationTicks, shards and every controller-side field of a run spec leave
// the baseline's bits unchanged, so they must share one key, and the shared
// value must be each variant's true baseline.
func TestBaselineCacheKey(t *testing.T) {
	spec := RunSpec{Mix: "60L", Ticks: 300, Seed: 9}
	hiV := spec
	hiV.AlphaV = 0.30
	for _, s := range []RunSpec{spec, hiV} {
		want, err := BaselinePower(ctx, s.Scenario())
		if err != nil {
			t.Fatal(err)
		}
		got, err := cachedBaseline(ctx, s.Scenario())
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("AlphaV %v: cached baseline %.2f W, want %.2f W", s.AlphaV, got, want)
		}
	}

	ref := spec.Scenario()
	want, err := cachedBaseline(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []RunSpec{
		{Mix: "60L", Ticks: 300, Seed: 9, AlphaM: 0.5, MigrationTicks: 50},
		{Mix: "60L", Ticks: 300, Seed: 9, CapGrp: 0.30, CapEnc: 0.25, CapLoc: 0.20},
		{Mix: "60L", Ticks: 300, Seed: 9, Stack: "uncoordinated", Policy: "fairshare", NoOff: true},
		{Mix: "60L", Ticks: 300, Seed: 9, Facility: true, Chaos: "sm-crash", FaultPolicy: "degrade", Shards: 2},
		{Model: "bladea", Mix: "60L", Ticks: 300, Seed: 9},
	} {
		sc := v.Scenario()
		if sc.BaselineKey() != ref.BaselineKey() {
			t.Errorf("%+v: baseline key differs from %+v", v, spec)
		}
		if got, err := BaselinePower(ctx, sc); err != nil || got != want {
			t.Errorf("%+v: baseline %v (err %v), want the shared %v", v, got, err, want)
		}
	}
}

func TestTopologyFor(t *testing.T) {
	cases := []struct {
		n, enc, standalone int
	}{
		{180, 6, 60}, {60, 2, 20}, {30, 1, 10}, {90, 3, 30},
		{15, 0, 15}, {25, 0, 25}, {1, 0, 1}, {45, 1, 25},
	}
	for _, c := range cases {
		enc, blades, standalone := TopologyFor(c.n)
		if enc*blades+standalone != c.n {
			t.Errorf("TopologyFor(%d): %d*%d+%d != n", c.n, enc, blades, standalone)
		}
		if enc != c.enc || standalone != c.standalone {
			t.Errorf("TopologyFor(%d) = (%d, %d, %d), want (%d, 20, %d)",
				c.n, enc, blades, standalone, c.enc, c.standalone)
		}
	}
	if e, b, s := TopologyFor(0); e != 0 || b != 0 || s != 0 {
		t.Error("TopologyFor(0) not zero")
	}
}

func TestScenarioWithProvidedTraces(t *testing.T) {
	set, err := tracegen.BuildMix(tracegen.Mix60L, 200, 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scenario{Model: "BladeA", Mix: "ignored", Budgets: Base201510(),
		Ticks: 200, Traces: set}
	cl, err := sc.BuildCluster()
	if err != nil {
		t.Fatal(err)
	}
	if cl.NumServers() != 60 {
		t.Errorf("%d servers for 60 provided traces", cl.NumServers())
	}
	// The cluster reads the caller's set and never writes it: a runtime
	// demand change lands on the cluster's own copy and leaves the input
	// alone.
	want := set.Traces[0].At(0)
	cl.ScaleDemand(2)
	if got := set.Traces[0].At(0); got != want || set.Traces[0].Mutated {
		t.Errorf("ScaleDemand wrote the provided set: demand %v, was %v", got, want)
	}
	if got := cl.VMs[0].Trace.At(0); got != 2*want {
		t.Errorf("cluster demand %v after ScaleDemand(2), want %v", got, 2*want)
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 21 {
		t.Fatalf("registry has %d experiments, want the DESIGN.md §4 set plus models, multiseed, extensions, cooling, chaos, replay, scale, scale100k, facility, hetero", len(names))
	}
	seen := map[string]bool{}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %q lacks a description", n)
		}
		if seen[n] {
			t.Errorf("experiment %q registered twice", n)
		}
		seen[n] = true
	}
	if _, err := RunExperiment(ctx, "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// swept is one sweep's runs and their results, in run order.
type swept struct {
	runs []sweepRun
	res  []metrics.Result
}

// sweepData sweeps e at opts.
func sweepData(t *testing.T, e tableSweep, opts Options) swept {
	t.Helper()
	runs := e.runs(opts.normalized())
	res, err := sweep(ctx, opts.Parallelism, runList{e.name, runs})
	if err != nil {
		t.Fatal(err)
	}
	return swept{runs, res[0]}
}

// get returns the result of the run with these labels.
func (s swept) get(t *testing.T, labels ...string) metrics.Result {
	t.Helper()
	key := strings.Join(labels, "/")
	for i, r := range s.runs {
		if r.key() == key {
			return s.res[i]
		}
	}
	t.Fatalf("no run labelled %s", key)
	return metrics.Result{}
}

// The shape tests read results by label, so every sweep's runs must carry
// non-empty labels that are unique within the sweep: a duplicate would
// silently hide a row.
func TestSweepLabels(t *testing.T) {
	for _, e := range []tableSweep{fig7Sweep, fig8Sweep, fig9Sweep, fig10Sweep, pstatesSweep,
		machineOffSweep, migrationSweep, timeConstSweep, policiesSweep, multiSeedSweep, extensionsSweep} {
		if Describe(e.name) == "" {
			t.Errorf("sweep %q is not a registered experiment", e.name)
		}
		if r, _ := lookup(e.name); r.sweep != nil && r.sweep.name != e.name {
			t.Errorf("experiment %q sweeps %q", e.name, r.sweep.name)
		}
		seen := map[string]bool{}
		for _, r := range e.runs(Options{}.normalized()) {
			if len(r.labels) == 0 || slices.Contains(r.labels, "") {
				t.Errorf("%s: run %q has an empty label", e.name, r.labels)
			}
			if seen[r.key()] {
				t.Errorf("%s: two runs are labelled %s", e.name, r.key())
			}
			seen[r.key()] = true
		}
	}
}

// E1 — Fig. 7: coordination must cut SM-level violations in every config.
func TestFig7Shape(t *testing.T) {
	s := sweepData(t, fig7Sweep, fastOpts())
	if len(s.runs) != 8 {
		t.Fatalf("%d runs, want 8", len(s.runs))
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		for _, mix := range []tracegen.Mix{tracegen.Mix180, tracegen.Mix60HH} {
			cfg := model + "/" + string(mix)
			coord, uncoord := s.get(t, cfg, "Coordinated").ViolSM, s.get(t, cfg, "Uncoordinated").ViolSM
			if coord >= uncoord {
				t.Errorf("%s: coordinated SM violations %.3f not below uncoordinated %.3f", cfg, coord, uncoord)
			}
		}
	}
}

// E2 — Fig. 8: the VMC dominates at low utilization, local control at high;
// savings fall as utilization rises.
func TestFig8Shape(t *testing.T) {
	s := sweepData(t, fig8Sweep, fastOpts())
	save := func(model string, mix tracegen.Mix, stack string) float64 {
		return s.get(t, model, string(mix), stack).PowerSavings
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		if vmc, local := save(model, tracegen.Mix180, "VMCOnly"), save(model, tracegen.Mix180, "NoVMC"); vmc <= local {
			t.Errorf("%s/180: VMCOnly %.2f should beat NoVMC %.2f", model, vmc, local)
		}
		if local, vmc := save(model, tracegen.Mix60HHH, "NoVMC"), save(model, tracegen.Mix60HHH, "VMCOnly"); local <= vmc {
			t.Errorf("%s/60HHH: local control %.2f should beat consolidation %.2f", model, local, vmc)
		}
		if save(model, tracegen.Mix60L, "Coordinated") <= save(model, tracegen.Mix60HHH, "Coordinated") {
			t.Errorf("%s: savings should fall from 60L to 60HHH", model)
		}
	}
	// ServerB's narrow DVFS range: NoVMC savings must be small (paper ~4 %).
	if v := save("ServerB", tracegen.Mix180, "NoVMC"); v > 0.15 {
		t.Errorf("ServerB NoVMC savings %.2f too large for its narrow power range", v)
	}
}

// E3 — Fig. 9: each disabled interface costs something measurable.
func TestFig9Shape(t *testing.T) {
	s := sweepData(t, fig9Sweep, fastOpts())
	for _, model := range []string{"BladeA", "ServerB"} {
		coord := s.get(t, model, "Coordinated")
		// Apparent utilization forfeits savings.
		if a := s.get(t, model, "Coordinated, appr util"); a.PowerSavings >= coord.PowerSavings {
			t.Errorf("%s: apparent-util savings %.2f not below coordinated %.2f",
				model, a.PowerSavings, coord.PowerSavings)
		}
		// Unconstrained packing costs performance.
		if n := s.get(t, model, "Coordinated, no budget limits"); n.PerfLoss <= coord.PerfLoss {
			t.Errorf("%s: unconstrained packing perf loss %.3f not above coordinated %.3f",
				model, n.PerfLoss, coord.PerfLoss)
		}
		// The plain uncoordinated stack violates more.
		if u := s.get(t, model, "Uncoordinated"); u.ViolSM <= coord.ViolSM {
			t.Errorf("%s: uncoordinated violations not above coordinated", model)
		}
	}
}

// E4 — Fig. 10: tighter budgets shrink coordinated savings gracefully while
// uncoordinated violations grow.
func TestFig10Shape(t *testing.T) {
	s := sweepData(t, fig10Sweep, fastOpts())
	for _, model := range []string{"BladeA", "ServerB"} {
		loose := s.get(t, model, "20-15-10", "Coordinated")
		tight := s.get(t, model, "30-25-20", "Coordinated")
		if tight.PowerSavings >= loose.PowerSavings {
			t.Errorf("%s: coordinated savings should fall with tighter budgets (%.2f -> %.2f)",
				model, loose.PowerSavings, tight.PowerSavings)
		}
		uLoose := s.get(t, model, "20-15-10", "Uncoordinated")
		uTight := s.get(t, model, "30-25-20", "Uncoordinated")
		if uTight.ViolSM <= uLoose.ViolSM {
			t.Errorf("%s: uncoordinated violations should grow with tighter budgets (%.3f -> %.3f)",
				model, uLoose.ViolSM, uTight.ViolSM)
		}
	}
}

// E5 — §5.3: two extreme P-states get close to the full ladder under
// coordination (within a handful of points of savings).
func TestPStatesShape(t *testing.T) {
	s := sweepData(t, pstatesSweep, fastOpts())
	for _, model := range []string{"BladeA", "ServerB"} {
		all := s.get(t, model, "all", "Coordinated").PowerSavings
		two := s.get(t, model, "two", "Coordinated").PowerSavings
		if diff := all - two; diff > 0.10 || diff < -0.10 {
			t.Errorf("%s: two-state coordinated savings %.2f too far from full ladder %.2f",
				model, two, all)
		}
	}
}

// E6 — §5.4: forbidding machine-off collapses the savings.
func TestMachineOffShape(t *testing.T) {
	s := sweepData(t, machineOffSweep, fastOpts())
	for _, model := range []string{"BladeA", "ServerB"} {
		allowed := s.get(t, model, "allowed").PowerSavings
		forbidden := s.get(t, model, "forbidden").PowerSavings
		if forbidden >= allowed {
			t.Errorf("%s: forbidden-off savings %.2f not below allowed %.2f", model, forbidden, allowed)
		}
		if forbidden > 0.35 {
			t.Errorf("%s: forbidden-off savings %.2f suspiciously high", model, forbidden)
		}
	}
}

// E7 — §5.4: higher migration overhead raises perf loss but the coordinated
// stack stays under ~10 %.
func TestMigrationShape(t *testing.T) {
	s := sweepData(t, migrationSweep, fastOpts())
	prev := map[string]float64{}
	for i, r := range s.runs {
		model, loss := r.labels[0], s.res[i].PerfLoss
		if p, ok := prev[model]; ok && loss < p-0.02 {
			t.Errorf("%s: perf loss fell sharply with higher overhead (%.3f -> %.3f)", model, p, loss)
		}
		prev[model] = loss
		if loss > 0.15 {
			t.Errorf("%s overhead %s%%: perf loss %.3f too high for the coordinated stack",
				model, r.labels[1], loss)
		}
	}
}

// E8 — §5.4: EC/SM/GM periods barely matter (relative invariance).
func TestTimeConstantsShape(t *testing.T) {
	s := sweepData(t, timeConstSweep, fastOpts())
	spread := map[string][2]float64{}
	for i, r := range s.runs {
		ctrl, save := r.labels[0], s.res[i].PowerSavings
		sp, ok := spread[ctrl]
		if !ok {
			sp = [2]float64{save, save}
		}
		sp[0], sp[1] = min(sp[0], save), max(sp[1], save)
		spread[ctrl] = sp
	}
	for _, ctrl := range []string{"EC", "SM", "GM"} {
		if d := spread[ctrl][1] - spread[ctrl][0]; d > 0.05 {
			t.Errorf("%s period sweep moved savings by %.3f — paper reports relative invariance", ctrl, d)
		}
	}
}

// E9 — §5.4: no policy changes the picture dramatically.
func TestPoliciesShape(t *testing.T) {
	s := sweepData(t, policiesSweep, fastOpts())
	lo, hi := map[string]float64{}, map[string]float64{}
	for i, r := range s.runs {
		model, save := r.labels[0], s.res[i].PowerSavings
		if _, ok := lo[model]; !ok {
			lo[model], hi[model] = save, save
		}
		lo[model], hi[model] = min(lo[model], save), max(hi[model], save)
	}
	for model := range lo {
		if d := hi[model] - lo[model]; d > 0.15 {
			t.Errorf("%s: policy choice moved savings by %.3f — should be robust", model, d)
		}
	}
}

// E10 — §5.1: the uncoordinated prototype trips thermal failover, the
// coordinated one does not.
func TestFailoverShape(t *testing.T) {
	rows, err := FailoverData(ctx, Options{Ticks: 3000, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		coordinated := strings.HasPrefix(r.Stack, "Coordinated")
		if coordinated && r.Failover {
			t.Errorf("coordinated pair tripped failover (duty %.2f, peak %.1f °C)",
				r.ViolationDuty, r.PeakTempC)
		}
		if !coordinated && !r.Failover {
			t.Errorf("uncoordinated pair did not trip failover (duty %.2f)", r.ViolationDuty)
		}
	}
}

// E11 — Appendix A: gains inside the bound converge, far outside diverge.
func TestStabilityShape(t *testing.T) {
	rows, err := StabilityData(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GainRatio < 1 && !r.Converged {
			t.Errorf("%s at %.2fx bound did not converge (err %.4f)", r.Loop, r.GainRatio, r.FinalErr)
		}
		if r.Loop == "SM" && r.GainRatio > 1.2 && r.Converged {
			t.Errorf("SM at %.2fx bound converged — bound too loose", r.GainRatio)
		}
	}
}

// Beyond-paper: the multi-seed aggregation keeps the violation ordering
// significant across trace draws.
func TestMultiSeedShape(t *testing.T) {
	opts := Options{Ticks: 1200, Seed: 42, Parallelism: 4}
	runs := multiSeedRuns(opts, 3)
	out, err := sweep(ctx, opts.Parallelism, runList{"multiseed", runs})
	if err != nil {
		t.Fatal(err)
	}
	res := out[0]
	if len(runs) != 6 {
		t.Fatalf("%d runs, want 3 seeds x 2 stacks", len(runs))
	}
	coord := seedSample(runs, res, "Coordinated", violSM)
	uncoord := seedSample(runs, res, "Uncoordinated", violSM)
	if coord.Mean >= uncoord.Mean {
		t.Errorf("mean violations: coordinated %.3f not below uncoordinated %.3f",
			coord.Mean, uncoord.Mean)
	}
	if n := seedSample(runs, res, "Coordinated", pwrSave).N; n != 3 {
		t.Errorf("sample size %d, want 3", n)
	}
}

// §6.1 extensions: the variants run and the energy-delay objective trades
// savings for performance as designed.
func TestExtensionsShape(t *testing.T) {
	tables, err := RunExperiment(ctx, "extensions", WithTicks(1500), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d tables, want 4", len(tables))
	}
	// Table 1: base vs energy-delay — compare the rendered percentages.
	var base, delay []string
	for _, row := range tables[0].Rows {
		switch row[0] {
		case "Coordinated (base)":
			base = row
		case "Energy-delay objective":
			delay = row
		}
	}
	if base == nil || delay == nil {
		t.Fatal("expected variant rows missing")
	}
	if delay[2] >= base[2] { // perf-loss column, lexicographic works for x.y format here
		t.Logf("note: energy-delay perf loss %s vs base %s", delay[2], base[2])
	}
	// Table 3: MIMO served fraction must be monotone non-increasing as the
	// budget shrinks.
	prev := 101.0
	for _, row := range tables[2].Rows {
		var served float64
		if _, err := fmt.Sscanf(row[1], "%f", &served); err != nil {
			t.Fatalf("bad served cell %q", row[1])
		}
		if served > prev+1e-9 {
			t.Errorf("served rose as the budget shrank: %v after %v", served, prev)
		}
		prev = served
	}
}

// Tables render with headers and at least one row for every experiment.
func TestAllTablesRender(t *testing.T) {
	for _, name := range Names() {
		tables, err := RunExperiment(ctx, name, WithTicks(600), WithSeed(42))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, tbl := range tables {
			if len(tbl.Rows) == 0 {
				t.Errorf("%s: empty table %q", name, tbl.Title)
			}
			s := tbl.String()
			if !strings.Contains(s, tbl.Header[0]) {
				t.Errorf("%s: render missing header", name)
			}
			md := tbl.Markdown()
			if !strings.Contains(md, "| "+tbl.Header[0]) {
				t.Errorf("%s: markdown render broken", name)
			}
		}
	}
}
