package experiments

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/policy"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/stats"
	"nopower/internal/tracegen"
)

// sweepRun is one simulation of a table experiment: the scenario and stack
// it runs, and the labels that name it in its table.
type sweepRun struct {
	labels []string
	sc     Scenario
	spec   core.Spec
}

// key joins the run's labels with "/"; it names the run in errors and tests.
func (r sweepRun) key() string { return strings.Join(r.labels, "/") }

// baseline is the scenario of the run's baseline under the one baseline
// rule: the run's own with PStates cleared, the full ladder. So the
// restricted runs of fig9 and pstates share their siblings' baseline.
func (r sweepRun) baseline() Scenario {
	sc := r.sc
	sc.PStates = nil
	return sc
}

// runKey identifies what a run computes: its normalized Scenario and its
// core.Spec, without the execution-only Shards of either. It is the run's
// BaselineKey (the fleet, the workloads, ticks, seed and AlphaV; a
// caller's trace set by identity) and what the managed run adds to it. The
// optional VMC flags count by value, and Policy "" is keyed as the policy
// it selects. Runs with equal keys produce bit-identical results.
type runKey struct {
	BaselineKey
	budgets        Budgets
	migrationTicks int
	alphaM         float64
	pstates        string
	// spec is the run's core.Spec with Shards and the three optional VMC
	// flags cleared; vmc holds those flags by value.
	spec core.Spec
	vmc  [3]int8
}

// runKey returns the key of the run.
func (r sweepRun) runKey() runKey {
	sc := r.sc.normalized()
	k := runKey{BaselineKey: sc.BaselineKey(), budgets: sc.Budgets, migrationTicks: sc.MigrationTicks,
		alphaM: sc.AlphaM, spec: r.spec}
	if sc.PStates != nil {
		k.pstates = fmt.Sprint(sc.PStates)
	}
	k.spec.Shards = 0
	k.spec.Policy = policyName(k.spec.Policy)
	k.vmc = [3]int8{flagKey(k.spec.VMCRealUtil), flagKey(k.spec.VMCBudgets), flagKey(k.spec.VMCFeedback)}
	k.spec.VMCRealUtil, k.spec.VMCBudgets, k.spec.VMCFeedback = nil, nil, nil
	return k
}

// flagKey is an optional flag by value: 0 unset, 1 false, 2 true.
func flagKey(b *bool) int8 {
	switch {
	case b == nil:
		return 0
	case *b:
		return 2
	}
	return 1
}

// runList is one table experiment's runs, in table order, under the
// experiment's name.
type runList struct {
	name string
	runs []sweepRun
}

// sweepJob is one job of a sweep: a distinct run, or the baseline of one,
// under the experiment and labels of the first row that lists it.
type sweepJob struct {
	name     string
	run      sweepRun
	baseline bool
}

// sweepPlan is a sweep's job list: each distinct baseline (by BaselineKey,
// under the one baseline rule), then each distinct run (by runKey), both
// in the order their first rows are listed.
type sweepPlan struct {
	jobs []sweepJob
	// baselines is how many of jobs are baselines.
	baselines int
	// rows[l][i] is the index in jobs[baselines:] of list l's run i.
	rows [][]int
}

// plan lists the jobs of a sweep over lists.
func plan(lists []runList) sweepPlan {
	var (
		runs         []sweepJob
		p            = sweepPlan{rows: make([][]int, len(lists))}
		seenBaseline = map[BaselineKey]bool{}
		seenRun      = map[runKey]int{}
	)
	for l, list := range lists {
		p.rows[l] = make([]int, len(list.runs))
		for i, r := range list.runs {
			k := r.runKey()
			j, ok := seenRun[k]
			if !ok {
				j = len(runs)
				seenRun[k] = j
				runs = append(runs, sweepJob{list.name, r, false})
				if bk := r.baseline().BaselineKey(); !seenBaseline[bk] {
					seenBaseline[bk] = true
					p.jobs = append(p.jobs, sweepJob{list.name, r, true})
				}
			}
			p.rows[l][i] = j
		}
	}
	p.baselines = len(p.jobs)
	p.jobs = append(p.jobs, runs...)
	return p
}

// sweep runs the runs of every list as one job list on one worker pool and
// returns each list's results in run order, whatever order they finish in.
// Each distinct run runs once, and its result goes to every row of every
// list that holds it; an error names the experiment and labels of the
// first such row. The baselines are listed ahead of every run, and a run
// reads its baseline only when its collector is finalized, so no worker
// waits on a baseline before a run's first tick.
func sweep(ctx context.Context, parallelism int, lists ...runList) ([][]metrics.Result, error) {
	p := plan(lists)
	res := make([]metrics.Result, len(p.jobs)-p.baselines)
	err := runner.ForEach(ctx, parallelism, len(p.jobs), func(ctx context.Context, i int) error {
		j := p.jobs[i]
		bsc := j.run.baseline()
		var err error
		if j.baseline {
			_, err = cachedBaseline(ctx, bsc)
		} else {
			sc := j.run.sc.normalized()
			_, res[i-p.baselines], err = execute(ctx, sc, j.run.spec, ChaosCase{},
				func() (float64, error) { return cachedBaseline(ctx, bsc) }, Observers{}, sc.Ticks)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", j.name, j.run.key(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([][]metrics.Result, len(lists))
	for l, rows := range p.rows {
		out[l] = make([]metrics.Result, len(rows))
		for i, j := range rows {
			out[l][i] = res[j]
		}
	}
	return out, nil
}

// tableSweep is a table experiment: the runs it sweeps and the table it
// renders from their results.
type tableSweep struct {
	// name is the experiment's registry name; it prefixes errors.
	name string
	// runs lists the runs at normalized opts, in table order.
	runs func(opts Options) []sweepRun
	// render lays the results, in run order, out as the table.
	render func(runs []sweepRun, res []metrics.Result) *report.Table
}

// sweepTables runs the table experiments es at opts as one sweep and
// renders their tables, in the order given.
func sweepTables(ctx context.Context, opts Options, es ...tableSweep) ([]*report.Table, error) {
	opts = opts.normalized()
	lists := make([]runList, len(es))
	for i, e := range es {
		lists[i] = runList{e.name, e.runs(opts)}
	}
	res, err := sweep(ctx, opts.Parallelism, lists...)
	if err != nil {
		return nil, err
	}
	out := make([]*report.Table, len(es))
	for i, e := range es {
		out[i] = e.render(lists[i].runs, res[i])
	}
	return out, nil
}

// column is one result column of a sweep table: its header and the metric
// it prints.
type column struct {
	head   string
	metric func(metrics.Result) float64
	format func(float64) string
}

func (c column) cell(r metrics.Result) string { return c.format(c.metric(r)) }

// titled is c under another header.
func (c column) titled(head string) column {
	c.head = head
	return c
}

var (
	violGM    = column{"Viol(GM)", func(r metrics.Result) float64 { return r.ViolGM }, report.Pct}
	violEM    = column{"Viol(EM)", func(r metrics.Result) float64 { return r.ViolEM }, report.Pct}
	violSM    = column{"Viol(SM)", func(r metrics.Result) float64 { return r.ViolSM }, report.Pct}
	perfLoss  = column{"Perf-loss", func(r metrics.Result) float64 { return r.PerfLoss }, report.Pct}
	pwrSave   = column{"Pwr-save", func(r metrics.Result) float64 { return r.PowerSavings }, report.Pct}
	serversOn = column{"Avg servers on", func(r metrics.Result) float64 { return r.AvgServersOn }, report.F}
)

// perRun renders one row per run: its labels, under t's header, then one
// cell per column.
func perRun(t report.Table, cols ...column) func([]sweepRun, []metrics.Result) *report.Table {
	return func(runs []sweepRun, res []metrics.Result) *report.Table {
		t := t
		t.Header = slices.Clone(t.Header)
		for _, c := range cols {
			t.Header = append(t.Header, c.head)
		}
		for i, r := range runs {
			row := slices.Clone(r.labels)
			for _, c := range cols {
				row = append(row, c.cell(res[i]))
			}
			t.AddRow(row...)
		}
		return &t
	}
}

// stack is a controller stack under the name its table prints.
type stack struct {
	name string
	spec core.Spec
}

// perStack is one run of sc per stack, labelled by labels and the stack's
// name.
func perStack(sc Scenario, stacks []stack, labels ...string) []sweepRun {
	runs := make([]sweepRun, len(stacks))
	for i, s := range stacks {
		runs[i] = sweepRun{append(slices.Clone(labels), s.name), sc, s.spec}
	}
	return runs
}

var (
	// systems are the paper's two hardware calibrations.
	systems = []string{"BladeA", "ServerB"}
	// coordVsUncoord are the two stacks most tables compare.
	coordVsUncoord = []stack{{"Coordinated", core.Coordinated()}, {"Uncoordinated", core.Uncoordinated()}}
)

// baseScenario is the paper's base setup for one system and mix: budgets
// 20-15-10, at opts' ticks and seed.
func baseScenario(model string, mix tracegen.Mix, opts Options) Scenario {
	return Scenario{Model: model, Mix: mix, Budgets: Base201510(), Ticks: opts.Ticks, Seed: opts.Seed}
}

// twoPStates is the two-state ladder of a named model: P0 and its deepest
// state.
func twoPStates(model string) []int {
	if model == "ServerB" {
		return []int{0, 5}
	}
	return []int{0, 4}
}

// fig7Sweep is E1, Fig. 7: budget violations at the GM/EM/SM levels and
// performance loss, coordinated vs uncoordinated, for the four base
// configurations (the paper plots these as negative bars; power savings are
// included as the headline the §5.1 text quotes).
var fig7Sweep = tableSweep{
	name: "fig7",
	runs: func(opts Options) (runs []sweepRun) {
		for _, model := range systems {
			for _, mix := range []tracegen.Mix{tracegen.Mix180, tracegen.Mix60HH} {
				runs = append(runs, perStack(baseScenario(model, mix, opts), coordVsUncoord, model+"/"+string(mix))...)
			}
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "Fig. 7 — coordinated vs uncoordinated (violations and performance loss, % )",
		Note:   "All values relative to a no-power-management baseline; violations are % of intervals over the static budget.",
		Header: []string{"Config", "Stack"},
	}, violGM.titled("Violates(GM)"), violEM.titled("Violates(EM)"), violSM.titled("Violates(SM)"), perfLoss, pwrSave),
}

// fig8Stacks are the Fig. 8 columns: the full stack, the stack without the
// VMC, and the VMC alone.
var fig8Stacks = []stack{{"Coordinated", core.Coordinated()}, {"NoVMC", core.NoVMC()}, {"VMCOnly", core.VMCOnly()}}

// fig8Sweep is E2, Fig. 8: power savings of the fig8Stacks across the six
// workload mixes of increasing utilization on both systems, isolating which
// controller the savings come from. The table pivots the stacks into
// columns.
var fig8Sweep = tableSweep{
	name: "fig8",
	runs: func(opts Options) (runs []sweepRun) {
		for _, model := range systems {
			for _, mix := range tracegen.AllMixes() {
				runs = append(runs, perStack(baseScenario(model, mix, opts), fig8Stacks, model, string(mix))...)
			}
		}
		return runs
	},
	render: func(runs []sweepRun, res []metrics.Result) *report.Table {
		t := &report.Table{
			Title:  "Fig. 8 — isolating the impact of different controllers (% power savings)",
			Note:   "Savings vs the no-management baseline. The VMC dominates at low utilization; local control grows with utilization.",
			Header: []string{"System", "Mix"},
		}
		for _, s := range fig8Stacks {
			t.Header = append(t.Header, s.name)
		}
		for i := 0; i < len(runs); i += len(fig8Stacks) {
			row := slices.Clone(runs[i].labels[:2])
			for _, r := range res[i : i+len(fig8Stacks)] {
				row = append(row, pwrSave.cell(r))
			}
			t.AddRow(row...)
		}
		return t
	},
}

// fig9Sweep is E3, Fig. 9: the coordination-interface ablations, each of
// the architecture's assumptions disabled one at a time, on the 180 mix.
var fig9Sweep = tableSweep{
	name: "fig9",
	runs: func(opts Options) (runs []sweepRun) {
		variants := []stack{
			{"Coordinated", core.Coordinated()},
			{"Uncoordinated", core.Uncoordinated()},
			{"Coordinated, appr util", core.CoordinatedApparentUtil()},
			{"Coordinated, no feedback", core.CoordinatedNoFeedback()},
			{"Coordinated, no budget limits", core.CoordinatedNoBudgetLimits()},
		}
		for _, model := range systems {
			sc := baseScenario(model, tracegen.Mix180, opts)
			runs = append(runs, perStack(sc, variants, model)...)
			sc.PStates = twoPStates(model)
			runs = append(runs, sweepRun{[]string{model, "Uncoordinated, min Pstates"}, sc, core.Uncoordinated()})
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "Fig. 9 — characterizing different coordination interfaces (%)",
		Note:   "Each row disables one coordination assumption; every one costs violations, performance, or savings.",
		Header: []string{"System", "Variant"},
	}, violGM, violEM, violSM, perfLoss, pwrSave),
}

// fig10Sweep is E4, Fig. 10: progressively tighter power budgets (larger
// peak-power savings) on both stacks. The coordinated solution adapts —
// savings drop because the VMC turns conservative — while the uncoordinated
// one progressively degrades in violations.
var fig10Sweep = tableSweep{
	name: "fig10",
	runs: func(opts Options) (runs []sweepRun) {
		for _, model := range systems {
			for _, b := range BudgetConfigs() {
				sc := baseScenario(model, tracegen.Mix180, opts)
				sc.Budgets = b
				runs = append(runs, perStack(sc, coordVsUncoord, model, b.Label())...)
			}
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "Fig. 10 — impact of different power budgets (%)",
		Note:   "Budget label is the peak headroom at group-enclosure-local levels (e.g. 20-15-10 = caps 20/15/10 % below max).",
		Header: []string{"System", "Budgets", "Stack"},
	}, violGM, violEM, violSM, perfLoss, pwrSave),
}

// pstatesSweep is E5, §5.3: the full P-state ladder against just the two
// extreme states. The paper's finding is that two well-separated states get
// close to full-ladder behaviour under coordination, and that coordination
// matters more when control is coarser.
var pstatesSweep = tableSweep{
	name: "pstates",
	runs: func(opts Options) (runs []sweepRun) {
		for _, model := range systems {
			sc := baseScenario(model, tracegen.Mix180, opts)
			runs = append(runs, perStack(sc, coordVsUncoord, model, "all")...)
			sc.PStates = twoPStates(model)
			runs = append(runs, perStack(sc, coordVsUncoord, model, "two")...)
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "§5.3 — number of P-states: full ladder vs two extremes (%)",
		Note:   "\"two\" keeps only P0 and the deepest state. Coordination lets a 2-state processor approach full-ladder behaviour.",
		Header: []string{"System", "Ladder", "Stack"},
	}, violSM, perfLoss, pwrSave),
}

// machineOffSweep is E6, §5.4 "avoiding turning machines off": the
// coordinated stack with and without the permission to power idle machines
// down. The paper reports Blade A dropping from 64 % to 23 % savings and
// Server B to ~5 %, and notes the architecture automatically shifts toward
// local power control.
var machineOffSweep = tableSweep{
	name: "machineoff",
	runs: func(opts Options) (runs []sweepRun) {
		forbidden := core.Coordinated()
		forbidden.AllowOff = false
		stacks := []stack{{"allowed", core.Coordinated()}, {"forbidden", forbidden}}
		for _, model := range systems {
			runs = append(runs, perStack(baseScenario(model, tracegen.Mix180, opts), stacks, model)...)
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "§5.4 — avoiding turning machines off (coordinated stack, %)",
		Note:   "Without machine-off the savings collapse toward the local-control share; the stack adapts automatically.",
		Header: []string{"System", "Machine-off"},
	}, pwrSave, perfLoss, serversOn),
}

// migrationSweep is E7, §5.4 migration-overhead sensitivity: pre-copy
// migration penalties of 10 %, 20 % and 50 % during the migration window.
// The paper's finding: performance degradation grows but stays under 10 %
// for the coordinated solution.
var migrationSweep = tableSweep{
	name: "migration",
	runs: func(opts Options) (runs []sweepRun) {
		for _, model := range systems {
			for _, alphaM := range []float64{0.10, 0.20, 0.50} {
				sc := baseScenario(model, tracegen.Mix180, opts)
				sc.AlphaM = alphaM
				runs = append(runs, sweepRun{[]string{model, report.Pct(alphaM)}, sc, core.Coordinated()})
			}
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "§5.4 — sensitivity to migration overhead (coordinated stack, %)",
		Note:   "Overhead is the performance penalty applied to a VM during its migration window.",
		Header: []string{"System", "Overhead"},
	}, perfLoss, pwrSave),
}

// timeConstSweep is E8, §5.4 time-constant sensitivity on BladeA/180, over
// the paper's period sets: EC 1/2/5/10, SM 1(5)/2/5/10 (relative to base),
// GM 50/100/200/400, VMC 100/200/300/400/500. The paper's finding: results
// are relatively invariant for EC/SM/GM, while more frequent VMC operation
// reduces savings via more aggressive feedback.
var timeConstSweep = tableSweep{
	name: "timeconst",
	runs: func(opts Options) (runs []sweepRun) {
		sc := baseScenario("BladeA", tracegen.Mix180, opts)
		for _, ctrl := range []struct {
			name    string
			periods []int
			set     func(*core.Periods, int)
		}{
			{"EC", []int{1, 2, 5, 10}, func(p *core.Periods, v int) { p.EC = v }},
			{"SM", []int{1, 2, 5, 10}, func(p *core.Periods, v int) { p.SM = v }},
			{"GM", []int{50, 100, 200, 400}, func(p *core.Periods, v int) { p.GM = v }},
			{"VMC", []int{100, 200, 300, 400, 500}, func(p *core.Periods, v int) { p.VMC = v }},
		} {
			for _, period := range ctrl.periods {
				spec := core.Coordinated()
				ctrl.set(&spec.Periods, period)
				runs = append(runs, sweepRun{[]string{ctrl.name, strconv.Itoa(period)}, sc, spec})
			}
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "§5.4 — sensitivity to controller time constants (BladeA/180, coordinated, %)",
		Note:   "One controller's period varied at a time; the others stay at the 1/5/25/50/500 base.",
		Header: []string{"Controller", "Period"},
	}, pwrSave, perfLoss, violSM),
}

// policiesSweep is E9, §5.4 policy choice: the EM/GM budget-division policy
// swept across all six implementations. The paper's finding: no significant
// variation — the architecture is robust to individual policy decisions.
var policiesSweep = tableSweep{
	name: "policies",
	runs: func(opts Options) (runs []sweepRun) {
		var stacks []stack
		for _, pol := range policy.Names() {
			spec := core.Coordinated()
			spec.Policy = pol
			stacks = append(stacks, stack{pol, spec})
		}
		for _, model := range systems {
			runs = append(runs, perStack(baseScenario(model, tracegen.Mix180, opts), stacks, model)...)
		}
		return runs
	},
	render: perRun(report.Table{
		Title:  "§5.4 — EM/GM budget-division policy choices (coordinated stack, %)",
		Note:   "The architecture should be robust: no policy changes the picture much.",
		Header: []string{"System", "Policy"},
	}, pwrSave, perfLoss, violSM, violEM, violGM),
}

// multiSeedRuns is the headline BladeA/180 comparison over seeds
// independently generated trace sets, labelled by seed, then stack.
func multiSeedRuns(opts Options, seeds int) (runs []sweepRun) {
	for s := range seeds {
		sc := baseScenario("BladeA", tracegen.Mix180, opts)
		sc.Seed = opts.Seed + int64(s)*1000
		runs = append(runs, perStack(sc, coordVsUncoord, "seed "+strconv.FormatInt(sc.Seed, 10))...)
	}
	return runs
}

// seedSample summarizes column c of one stack's runs across the seeds, in
// run order.
func seedSample(runs []sweepRun, res []metrics.Result, stack string, c column) stats.Sample {
	var vals []float64
	for i, r := range runs {
		if r.labels[len(r.labels)-1] == stack {
			vals = append(vals, c.metric(res[i]))
		}
	}
	return stats.Summarize(vals)
}

// multiSeedSweep is E12: the headline comparison over five trace draws,
// each metric summarized with a 95 % confidence interval. This goes beyond
// the paper (which reports single runs) and checks that the reproduction's
// conclusions are not an artifact of one synthetic trace draw.
var multiSeedSweep = tableSweep{
	name: "multiseed",
	runs: func(opts Options) []sweepRun { return multiSeedRuns(opts, 5) },
	render: func(runs []sweepRun, res []metrics.Result) *report.Table {
		cols := []column{pwrSave, perfLoss, violSM}
		t := &report.Table{
			Title:  "Seed robustness — BladeA/180 across 5 independent trace draws (mean ± 95% CI)",
			Note:   "Beyond the paper: verifies the headline comparison is not an artifact of one synthetic trace set.",
			Header: []string{"Stack"},
		}
		for _, c := range cols {
			t.Header = append(t.Header, c.head)
		}
		var viol []stats.Sample
		for _, s := range coordVsUncoord {
			row := []string{s.name}
			for _, c := range cols {
				smp := seedSample(runs, res, s.name, c)
				row = append(row, fmt.Sprintf("%.1f ± %.1f%%", 100*smp.Mean, 100*smp.CI95()))
			}
			t.AddRow(row...)
			viol = append(viol, seedSample(runs, res, s.name, violSM))
		}
		if stats.MeansDiffer(viol[0], viol[1]) {
			t.Note += " Violation difference is significant at 95%."
		}
		return t
	},
}
