package experiments

import (
	"context"
	"fmt"

	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/sim"
)

// ReplayRow is one E16 verdict: the identity report of one (chaos case,
// stack) pair.
type ReplayRow struct {
	Scenario string
	Stack    string
	Identity IdentityReport
}

// ReplayData runs the identity harness for every chaos-soak scenario against
// the coordinated and uncoordinated stacks, under the degrade fault policy so
// an injected crash does not fail a run.
func ReplayData(ctx context.Context, opts Options) ([]ReplayRow, error) {
	opts = opts.normalized()
	sc := chaosScenario(opts)
	rows, err := runner.Map(ctx, opts.Parallelism, chaosJobs(), func(ctx context.Context, j chaosJob) (ReplayRow, error) {
		rep, err := CheckIdentity(ctx, sc, j.spec, j.cse, 0, Observers{FaultPolicy: sim.FaultDegrade})
		if err != nil {
			return ReplayRow{}, fmt.Errorf("%s/%s: %w", j.cse.Name, j.stack, err)
		}
		return ReplayRow{Scenario: j.cse.Name, Stack: j.stack, Identity: rep}, nil
	})
	if err != nil {
		return nil, err
	}
	// The committed AoS-era golden checkpoint rides along: a resume across
	// the cluster-layout generation gap must stay bit-identical too.
	golden, err := GoldenReplay(ctx)
	if err != nil {
		return nil, fmt.Errorf("aos-golden: %w", err)
	}
	return append(rows, ReplayRow{Scenario: goldenCase().Name, Stack: "Coordinated", Identity: golden}), nil
}

// Replay renders E16: the chaos soak under the identity harness, verifying
// the determinism contract — sharded and resumed runs are bitwise identical
// to the serial one — per (scenario, stack) pair. A non-identical pair fails
// the experiment: silently divergent resumes are worse than no resumes.
func Replay(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := ReplayData(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title: "Replay — chaos soak re-run sharded and killed-and-resumed from its checkpoints",
		Note: "Each row re-runs the serial reference as " + rows[0].Identity.VariantNames() +
			" (every kill's snapshot round-trips through the on-disk encoding and resumes " +
			"on a fresh engine); 'identical' is a bitwise (Float64bits) comparison of the " +
			"per-tick series and final summaries. Snapshot is the mid-run one. The " +
			"aos-golden row resumes the committed pre-columnar checkpoint against its " +
			"committed result bits.",
		Header: []string{"Scenario", "Stack", "Identical", "Snapshot", "Violates(GM)", "Perf-loss"},
	}
	for _, r := range rows {
		rerr := r.Identity.Err()
		t.AddRow(r.Scenario, r.Stack, yesNo(rerr == nil),
			fmt.Sprintf("%.1f KiB", float64(r.Identity.SnapshotBytes)/1024),
			report.Pct(r.Identity.Result.ViolGM), report.Pct(r.Identity.Result.PerfLoss))
		if rerr != nil && err == nil {
			err = fmt.Errorf("experiments: replay %s/%s %w", r.Scenario, r.Stack, rerr)
		}
	}
	return []*report.Table{t}, err
}

// yesNo renders an identity verdict for a table cell.
func yesNo(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
