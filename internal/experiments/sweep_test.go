package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"nopower/internal/core"
	"nopower/internal/report"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// tableExperiments are the ten table experiments, in registry order.
func tableExperiments() (names []string, sweeps []tableSweep) {
	for _, e := range registry {
		if e.sweep != nil {
			names = append(names, e.name)
			sweeps = append(sweeps, *e.sweep)
		}
	}
	return names, sweeps
}

// execOnly lists the fields of Scenario and core.Spec that never change a
// run's result, so the run key leaves them out.
var execOnly = map[string]bool{"Scenario.Shards": true, "Spec.Shards": true}

// leafFields calls fn with the path and index of every non-struct field of
// typ, descending into struct-typed fields.
func leafFields(path string, typ reflect.Type, index []int, fn func(path string, index []int)) {
	for i := range typ.NumField() {
		f := typ.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			leafFields(path+"."+f.Name, f.Type, idx, fn)
			continue
		}
		fn(path+"."+f.Name, idx)
	}
}

// change sets v to a value different from its current one, or reports that
// it does not know how.
func change(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Float64:
		v.SetFloat(v.Float() + 0.5)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Pointer:
		if !v.IsNil() {
			return false
		}
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		if !v.IsNil() {
			return false
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		return false
	}
	return true
}

// The run-key guard: changing any field of Scenario or core.Spec must
// change the key, except an execution-only field, which must not. A field
// added later fails here until runKey covers it or execOnly lists it, so
// two different runs can never share one result.
func TestRunKeyCoversEveryField(t *testing.T) {
	base := sweepRun{
		sc:   Scenario{Model: "BladeA", Mix: tracegen.Mix60L, Budgets: Base201510(), Ticks: 300, Seed: 7},
		spec: core.Coordinated(),
	}
	for _, top := range []struct {
		name string
		get  func(r *sweepRun) reflect.Value
	}{
		{"Scenario", func(r *sweepRun) reflect.Value { return reflect.ValueOf(&r.sc).Elem() }},
		{"Spec", func(r *sweepRun) reflect.Value { return reflect.ValueOf(&r.spec).Elem() }},
	} {
		leafFields(top.name, top.get(&base).Type(), nil, func(path string, index []int) {
			r := base
			if !change(top.get(&r).FieldByIndex(index)) {
				t.Errorf("%s: no way to change a %s; teach runKey and this test about it",
					path, top.get(&r).FieldByIndex(index).Type())
				return
			}
			if same := r.runKey() == base.runKey(); same != execOnly[path] {
				t.Errorf("%s: changing it leaves the run key equal = %v, want %v", path, same, execOnly[path])
			}
		})
	}
}

// Runs that differ only in how they spell a value share a key; any
// difference in what they compute gives a new one.
func TestRunKeySpellings(t *testing.T) {
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix180, Budgets: Base201510()}
	spelled := sc
	spelled.Ticks, spelled.Seed, spelled.MigrationTicks, spelled.AlphaV, spelled.AlphaM = DefaultTicks, 42, 10, 0.10, 0.10
	sharded := sc
	sharded.Shards = 4
	coord := core.Coordinated()
	with := func(edit func(*core.Spec)) core.Spec {
		s := core.Coordinated()
		edit(&s)
		return s
	}
	yes, yesToo, no := true, true, false
	setA, err := tracegen.BuildMix(tracegen.Mix60L, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	setB, err := tracegen.BuildMix(tracegen.Mix60L, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	withTraces := func(set *trace.Set) Scenario {
		s := sc
		s.Traces = set
		return s
	}
	for _, c := range []struct {
		name   string
		a, b   Scenario
		sa, sb core.Spec
		same   bool
	}{
		{"scenario defaults spelled out", sc, spelled, coord, coord, true},
		{`Policy "" and "proportional"`, sc, sc, coord, with(func(s *core.Spec) { s.Policy = "proportional" }), true},
		{"shard counts", sc, sharded, coord, with(func(s *core.Spec) { s.Shards = 2 }), true},
		{"equal flags behind distinct pointers", sc, sc,
			with(func(s *core.Spec) { s.VMCRealUtil = &yes }), with(func(s *core.Spec) { s.VMCRealUtil = &yesToo }), true},
		{"flag true and false", sc, sc,
			with(func(s *core.Spec) { s.VMCBudgets = &yes }), with(func(s *core.Spec) { s.VMCBudgets = &no }), false},
		{"flag unset and false", sc, sc, coord, with(func(s *core.Spec) { s.VMCFeedback = &no }), false},
		{"another policy", sc, sc, coord, with(func(s *core.Spec) { s.Policy = "fairshare" }), false},
		{"equal trace sets are still two sets", withTraces(setA), withTraces(setB), coord, coord, false},
		{"one trace set", withTraces(setA), withTraces(setA), coord, coord, true},
	} {
		a, b := sweepRun{sc: c.a, spec: c.sa}, sweepRun{sc: c.b, spec: c.sb}
		if same := a.runKey() == b.runKey(); same != c.same {
			t.Errorf("%s: keys equal = %v, want %v", c.name, same, c.same)
		}
	}
}

// The batch's counts: fig7–fig10 repeat 12 of their 68 runs, need 12
// baselines and synthesize 6 trace sets; the eleven table experiments run
// 99 of their 130 rows, and every row, shared or not, gets its run's result.
func TestSweepPlanCounts(t *testing.T) {
	opts := Options{Ticks: 100, Parallelism: 2}.normalized()
	listsOf := func(es ...tableSweep) (lists []runList, rows int) {
		for _, e := range es {
			lists = append(lists, runList{e.name, e.runs(opts)})
			rows += len(lists[len(lists)-1].runs)
		}
		return lists, rows
	}
	figs, rows := listsOf(fig7Sweep, fig8Sweep, fig9Sweep, fig10Sweep)
	p := plan(figs)
	if runs := len(p.jobs) - p.baselines; rows != 68 || runs != 56 || p.baselines != 12 {
		t.Errorf("fig7–fig10: %d rows, %d runs, %d baselines; want 68, 56, 12", rows, runs, p.baselines)
	}
	_, sweeps := tableExperiments()
	all, rows := listsOf(sweeps...)
	if pa := plan(all); rows != 130 || len(pa.jobs)-pa.baselines != 99 {
		t.Errorf("table experiments: %d rows, %d runs; want 130, 99", rows, len(pa.jobs)-pa.baselines)
	}
	res, err := sweep(context.Background(), opts.Parallelism, all...)
	if err != nil {
		t.Fatal(err)
	}
	for i, list := range all {
		for j, r := range list.runs {
			if res[i][j].Ticks != opts.Ticks {
				t.Errorf("%s %s: no result", list.name, r.key())
			}
		}
	}

	ctx := ShareTraces(context.Background())
	if _, err := sweep(ctx, opts.Parallelism, figs...); err != nil {
		t.Fatal(err)
	}
	if n := ctx.Value(traceGroupKey{}).(*traceGroup).Len(); n != 6 {
		t.Errorf("fig7–fig10 synthesized %d trace sets, want 6", n)
	}
}

// renderTables renders tables as text and Markdown, for comparison.
func renderTables(tables []*report.Table) string {
	var sb strings.Builder
	for _, tab := range tables {
		sb.WriteString(tab.String())
		sb.WriteString(tab.Markdown())
	}
	return sb.String()
}

// One RunExperiments call over the eleven table experiments renders
// exactly the tables of eleven RunExperiment calls, serially and on four
// workers. The batch shares runs across experiments that a lone experiment
// does not (fig8's coordinated 180 and 60HH rows are fig7's, and so is
// E13's base row), so a result handed to only the first row with its key
// shows up here. Pool workers write the shared result and baseline slots,
// so `make race` repeats this test under the race detector.
func TestRunExperimentsMatchesEach(t *testing.T) {
	names, _ := tableExperiments()
	for _, parallel := range []int{1, 4} {
		opts := []Option{WithTicks(300), WithParallelism(parallel)}
		batch, err := RunExperiments(ctx, names, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			each, err := RunExperiment(ctx, name, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderTables(batch[i]), renderTables(each); got != want {
				t.Errorf("parallel %d: %s in the batch:\n%s\nalone:\n%s", parallel, name, got, want)
			}
		}
	}
}

// A batch keeps the order it was given, whatever mix of table and other
// experiments it holds, and an unknown name fails it before anything runs.
func TestRunExperimentsOrder(t *testing.T) {
	names := []string{"stability", "fig7", "models", "fig7", "migration"}
	batch, err := RunExperiments(ctx, names, WithTicks(300))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range names {
		each, err := RunExperiment(ctx, name, WithTicks(300))
		if err != nil {
			t.Fatal(err)
		}
		if renderTables(batch[i]) != renderTables(each) {
			t.Errorf("%s at position %d differs from a lone run", name, i)
		}
	}
	if _, err := RunExperiments(ctx, []string{"fig7", "bogus"}); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Errorf("err = %v, want the unknown name", err)
	}
}
