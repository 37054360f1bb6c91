package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

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
	// The cluster must hold deep copies: mutating it leaves the input alone.
	cl.VMs[0].Trace.Scale(2)
	if set.Traces[0].Demand[0] == cl.VMs[0].Trace.Demand[0] {
		t.Error("provided trace set shared with the cluster")
	}
}

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 21 {
		t.Fatalf("registry has %d experiments, want the DESIGN.md §4 set plus models, multiseed, extensions, cooling, chaos, replay, scale, scale100k, facility, hetero", len(names))
	}
	for _, n := range names {
		if Describe(n) == "" {
			t.Errorf("experiment %q lacks a description", n)
		}
	}
	if _, err := RunExperiment(ctx, "bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// E1 — Fig. 7: coordination must cut SM-level violations in every config.
func TestFig7Shape(t *testing.T) {
	rows, err := Fig7Data(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8", len(rows))
	}
	byConfig := map[Fig7Config]map[string]float64{}
	for _, r := range rows {
		if byConfig[r.Config] == nil {
			byConfig[r.Config] = map[string]float64{}
		}
		byConfig[r.Config][r.Stack] = r.Result.ViolSM
	}
	for cfg, stacks := range byConfig {
		if stacks["Coordinated"] >= stacks["Uncoordinated"] {
			t.Errorf("%s/%s: coordinated SM violations %.3f not below uncoordinated %.3f",
				cfg.Model, cfg.Mix, stacks["Coordinated"], stacks["Uncoordinated"])
		}
	}
}

// E2 — Fig. 8: the VMC dominates at low utilization, local control at high;
// savings fall as utilization rises.
func TestFig8Shape(t *testing.T) {
	rows, err := Fig8Data(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(model string, mix tracegen.Mix) Fig8Row {
		for _, r := range rows {
			if r.Model == model && r.Mix == mix {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", model, mix)
		return Fig8Row{}
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		low := get(model, tracegen.Mix180)
		if low.VMCOnly <= low.NoVMC {
			t.Errorf("%s/180: VMCOnly %.2f should beat NoVMC %.2f", model, low.VMCOnly, low.NoVMC)
		}
		hhh := get(model, tracegen.Mix60HHH)
		if hhh.NoVMC <= hhh.VMCOnly {
			t.Errorf("%s/60HHH: local control %.2f should beat consolidation %.2f",
				model, hhh.NoVMC, hhh.VMCOnly)
		}
		if get(model, tracegen.Mix60L).Coordinated <= get(model, tracegen.Mix60HHH).Coordinated {
			t.Errorf("%s: savings should fall from 60L to 60HHH", model)
		}
	}
	// ServerB's narrow DVFS range: NoVMC savings must be small (paper ~4 %).
	if s := get("ServerB", tracegen.Mix180).NoVMC; s > 0.15 {
		t.Errorf("ServerB NoVMC savings %.2f too large for its narrow power range", s)
	}
}

// E3 — Fig. 9: each disabled interface costs something measurable.
func TestFig9Shape(t *testing.T) {
	rows, err := Fig9Data(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	get := func(model, variant string) Fig9Row {
		for _, r := range rows {
			if r.Model == model && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", model, variant)
		return Fig9Row{}
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		coord := get(model, "Coordinated")
		// Apparent utilization forfeits savings.
		if a := get(model, "Coordinated, appr util"); a.Result.PowerSavings >= coord.Result.PowerSavings {
			t.Errorf("%s: apparent-util savings %.2f not below coordinated %.2f",
				model, a.Result.PowerSavings, coord.Result.PowerSavings)
		}
		// Unconstrained packing costs performance.
		if n := get(model, "Coordinated, no budget limits"); n.Result.PerfLoss <= coord.Result.PerfLoss {
			t.Errorf("%s: unconstrained packing perf loss %.3f not above coordinated %.3f",
				model, n.Result.PerfLoss, coord.Result.PerfLoss)
		}
		// The plain uncoordinated stack violates more.
		if u := get(model, "Uncoordinated"); u.Result.ViolSM <= coord.Result.ViolSM {
			t.Errorf("%s: uncoordinated violations not above coordinated", model)
		}
	}
}

// E4 — Fig. 10: tighter budgets shrink coordinated savings gracefully while
// uncoordinated violations grow.
func TestFig10Shape(t *testing.T) {
	rows, err := Fig10Data(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		model, stack, budget string
	}
	data := map[key]Fig10Row{}
	for _, r := range rows {
		data[key{r.Model, r.Stack, r.Budgets.Label()}] = r
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		loose := data[key{model, "Coordinated", "20-15-10"}]
		tight := data[key{model, "Coordinated", "30-25-20"}]
		if tight.Result.PowerSavings >= loose.Result.PowerSavings {
			t.Errorf("%s: coordinated savings should fall with tighter budgets (%.2f -> %.2f)",
				model, loose.Result.PowerSavings, tight.Result.PowerSavings)
		}
		uLoose := data[key{model, "Uncoordinated", "20-15-10"}]
		uTight := data[key{model, "Uncoordinated", "30-25-20"}]
		if uTight.Result.ViolSM <= uLoose.Result.ViolSM {
			t.Errorf("%s: uncoordinated violations should grow with tighter budgets (%.3f -> %.3f)",
				model, uLoose.Result.ViolSM, uTight.Result.ViolSM)
		}
	}
}

// E5 — §5.3: two extreme P-states get close to the full ladder under
// coordination (within a handful of points of savings).
func TestPStatesShape(t *testing.T) {
	rows, err := PStatesData(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	saving := map[string]float64{}
	for _, r := range rows {
		saving[r.Model+"/"+r.Ladder+"/"+r.Stack] = r.Result.PowerSavings
	}
	for _, model := range []string{"BladeA", "ServerB"} {
		all := saving[model+"/all/Coordinated"]
		two := saving[model+"/two/Coordinated"]
		if diff := all - two; diff > 0.10 || diff < -0.10 {
			t.Errorf("%s: two-state coordinated savings %.2f too far from full ladder %.2f",
				model, two, all)
		}
	}
}

// E6 — §5.4: forbidding machine-off collapses the savings.
func TestMachineOffShape(t *testing.T) {
	rows, err := MachineOffData(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	saving := map[string]map[bool]float64{}
	for _, r := range rows {
		if saving[r.Model] == nil {
			saving[r.Model] = map[bool]float64{}
		}
		saving[r.Model][r.AllowOff] = r.Result.PowerSavings
	}
	for model, s := range saving {
		if s[false] >= s[true] {
			t.Errorf("%s: forbidden-off savings %.2f not below allowed %.2f", model, s[false], s[true])
		}
		if s[false] > 0.35 {
			t.Errorf("%s: forbidden-off savings %.2f suspiciously high", model, s[false])
		}
	}
}

// E7 — §5.4: higher migration overhead raises perf loss but the coordinated
// stack stays under ~10 %.
func TestMigrationShape(t *testing.T) {
	rows, err := MigrationData(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	prev := map[string]float64{}
	for _, r := range rows {
		if p, ok := prev[r.Model]; ok && r.Result.PerfLoss < p-0.02 {
			t.Errorf("%s: perf loss fell sharply with higher overhead (%.3f -> %.3f)",
				r.Model, p, r.Result.PerfLoss)
		}
		prev[r.Model] = r.Result.PerfLoss
		if r.Result.PerfLoss > 0.15 {
			t.Errorf("%s alphaM=%.1f: perf loss %.3f too high for the coordinated stack",
				r.Model, r.AlphaM, r.Result.PerfLoss)
		}
	}
}

// E8 — §5.4: EC/SM/GM periods barely matter (relative invariance).
func TestTimeConstantsShape(t *testing.T) {
	rows, err := TimeConstantsData(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	spread := map[string][2]float64{}
	for _, r := range rows {
		s, ok := spread[r.Controller]
		if !ok {
			s = [2]float64{r.Result.PowerSavings, r.Result.PowerSavings}
		}
		if r.Result.PowerSavings < s[0] {
			s[0] = r.Result.PowerSavings
		}
		if r.Result.PowerSavings > s[1] {
			s[1] = r.Result.PowerSavings
		}
		spread[r.Controller] = s
	}
	for _, ctrl := range []string{"EC", "SM", "GM"} {
		if d := spread[ctrl][1] - spread[ctrl][0]; d > 0.05 {
			t.Errorf("%s period sweep moved savings by %.3f — paper reports relative invariance", ctrl, d)
		}
	}
}

// E9 — §5.4: no policy changes the picture dramatically.
func TestPoliciesShape(t *testing.T) {
	rows, err := PoliciesData(ctx, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	min, max := map[string]float64{}, map[string]float64{}
	for _, r := range rows {
		if _, ok := min[r.Model]; !ok {
			min[r.Model], max[r.Model] = r.Result.PowerSavings, r.Result.PowerSavings
		}
		if r.Result.PowerSavings < min[r.Model] {
			min[r.Model] = r.Result.PowerSavings
		}
		if r.Result.PowerSavings > max[r.Model] {
			max[r.Model] = r.Result.PowerSavings
		}
	}
	for model := range min {
		if d := max[model] - min[model]; d > 0.15 {
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
	rows, err := MultiSeedData(ctx, Options{Ticks: 1200, Seed: 42, Parallelism: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var coord, uncoord MultiSeedResult
	for _, r := range rows {
		if r.Stack == "Coordinated" {
			coord = r
		} else {
			uncoord = r
		}
	}
	if coord.ViolSM.Mean >= uncoord.ViolSM.Mean {
		t.Errorf("mean violations: coordinated %.3f not below uncoordinated %.3f",
			coord.ViolSM.Mean, uncoord.ViolSM.Mean)
	}
	if coord.Savings.N != 3 {
		t.Errorf("sample size %d, want 3", coord.Savings.N)
	}
}

// §6.1 extensions: the variants run and the energy-delay objective trades
// savings for performance as designed.
func TestExtensionsShape(t *testing.T) {
	tables, err := Extensions(ctx, Options{Ticks: 1500, Seed: 42, Parallelism: 4})
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
