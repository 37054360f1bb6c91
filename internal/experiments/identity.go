package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/sim"
)

// IdentityReport is CheckIdentity's verdict on one (scenario, spec, chaos
// case) triple.
type IdentityReport struct {
	// Result is the serial reference run's finalized summary.
	Result metrics.Result
	// SnapshotBytes is the encoded size of the mid-run (Ticks/2) snapshot.
	SnapshotBytes int
	// Variants lists the re-executions in run order.
	Variants []IdentityVariant
}

// IdentityVariant is one re-execution of the reference run.
type IdentityVariant struct {
	// Name says how the run was executed: "shards=2", "resume@1,4,5,…".
	Name string
	// Result is the variant's own finalized summary.
	Result metrics.Result
	// Diff is the first divergence from the reference — the tick, column
	// and both values of the series, else the first differing Result field
	// — and "" when the variant is bit-identical.
	Diff string
}

// Err returns nil when every variant reproduced the reference bitwise, else
// an error naming each divergent variant and its first divergence.
func (r IdentityReport) Err() error {
	var bad []string
	for _, v := range r.Variants {
		if v.Diff != "" {
			bad = append(bad, v.Name+": "+v.Diff)
		}
	}
	if bad == nil {
		return nil
	}
	return errors.New("diverged from the serial run: " + strings.Join(bad, "; "))
}

// VariantNames lists the variants' names, comma-separated.
func (r IdentityReport) VariantNames() string {
	names := make([]string, len(r.Variants))
	for i, v := range r.Variants {
		names[i] = v.Name
	}
	return strings.Join(names, ", ")
}

// CheckIdentity enforces the determinism contract (DESIGN.md §10–§11) on one
// (scenario, spec, chaos case) triple: sharded and kill-and-resume runs must
// reproduce the serial run bitwise. Through the package's one run path it
// makes:
//
//  1. the serial reference (Shards=1), with the caller's observers attached;
//  2. one run per shard count in identityShards — always including 2, so a
//     1-CPU host still exercises the sharded path;
//  3. one chained kill-and-resume run at the largest of those shard counts:
//     at each of killTicks the run is snapshotted, the snapshot goes through
//     checkpoint.Encode and Decode, and a freshly built engine resumes it.
//
// Each variant's per-tick series and finalized result (against baseline) are
// compared with the reference's through Series.Diff and Result.Diff, and the
// report names each variant's first divergence. The harness owns resuming
// and checkpointing, so o.Resume and o.Checkpoint must be nil. Every run is
// in one run group (ShareTraces), so the traces are synthesized once, not
// at every kill; the cluster and stack are still rebuilt at each. A non-nil
// error means a run failed; a divergence is reported by the report's Err.
func CheckIdentity(ctx context.Context, sc Scenario, spec core.Spec, cse ChaosCase, baseline float64, o Observers) (IdentityReport, error) {
	if o.Resume != nil || o.Checkpoint != nil {
		return IdentityReport{}, errors.New("experiments: CheckIdentity owns resume and checkpointing; leave Observers.Resume and Observers.Checkpoint nil")
	}
	ctx = ShareTraces(ctx)
	sc = sc.normalized()
	if o.Series == nil {
		o.Series = new(metrics.Series)
	}
	ref := o.Series
	spec.Shards = 1
	_, res, err := execute(ctx, sc, spec, cse, known(baseline), o, sc.Ticks)
	if err != nil {
		return IdentityReport{}, fmt.Errorf("identity reference: %w", err)
	}
	rep := IdentityReport{Result: res}
	// observers gives a variant's run a fresh series (a resumed one restores
	// it from the snapshot) and the reference's fault policy.
	observers := func(resume *checkpoint.File) Observers {
		return Observers{Series: &metrics.Series{Stride: ref.Stride}, FaultPolicy: o.FaultPolicy, Resume: resume}
	}
	// finish runs a variant from resume (nil: from tick 0) to the end and
	// records its first divergence from the reference.
	finish := func(name string, resume *checkpoint.File) error {
		vo := observers(resume)
		_, r, err := execute(ctx, sc, spec, cse, known(baseline), vo, sc.Ticks)
		if err != nil {
			return fmt.Errorf("identity %s: %w", name, err)
		}
		rep.Variants = append(rep.Variants, IdentityVariant{Name: name, Result: r,
			Diff: firstDiff(ref, vo.Series, res, r)})
		return nil
	}

	shards := identityShards()
	for _, n := range shards {
		spec.Shards = n
		if err := finish("shards="+strconv.Itoa(n), nil); err != nil {
			return rep, err
		}
	}

	kills := killTicks(sc.Ticks, spec.Periods)
	if len(kills) == 0 {
		return rep, nil
	}
	var file *checkpoint.File
	for _, k := range kills {
		eng, _, err := execute(ctx, sc, spec, cse, known(baseline), observers(file), k)
		if err != nil {
			return rep, fmt.Errorf("identity resume@%d: %w", k, err)
		}
		var size int
		if file, size, err = roundTrip(eng); err != nil {
			return rep, fmt.Errorf("identity resume@%d: %w", k, err)
		}
		if k == sc.Ticks/2 {
			rep.SnapshotBytes = size
		}
	}
	ks := make([]string, len(kills))
	for i, k := range kills {
		ks[i] = strconv.Itoa(k)
	}
	return rep, finish("resume@"+strings.Join(ks, ","), file)
}

// firstDiff is a variant's first divergence from the reference: in the
// per-tick series when both are recorded (refS non-nil), else in the
// finalized result; "" when identical.
func firstDiff(refS, s *metrics.Series, ref, r metrics.Result) string {
	if refS != nil {
		if d := refS.Diff(s); d != "" {
			return d
		}
	}
	if d := ref.Diff(r); d != "" {
		return "result " + d
	}
	return ""
}

// roundTrip snapshots eng and passes the snapshot through the on-disk
// encoding, so the resumed engine lives off what a crash would leave on disk
// and serialization loss is caught too. It returns the decoded file and the
// encoded size.
func roundTrip(eng *sim.Engine) (*checkpoint.File, int, error) {
	snap, err := eng.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	data, err := checkpoint.Encode(&checkpoint.File{Meta: checkpoint.Meta{Tick: snap.Tick}, State: snap})
	if err != nil {
		return nil, 0, err
	}
	file, err := checkpoint.Decode(data)
	return file, len(data), err
}

// identityShards is the sharded variants' ladder: {2, GOMAXPROCS}, ascending
// and deduplicated. It always holds 2, which spawns a worker goroutine and
// runs the block claims and tree reduction even on one CPU.
func identityShards() []int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return []int{2, n}
	}
	return []int{2}
}

// killTicks derives the resume chain's kill points for a run of the given
// length: the first tick, mid-run and the last tick, plus P−1, P and P+1 for
// every effective control period P > 1 — the first epoch boundary of each
// controller, where a resume that drops epoch state shows. Only ticks inside
// (0, ticks) are kept, ascending. The periods come from the spec, not from
// sim.Epochal: the VMC reports its sample period there, so its consolidation
// epoch would be missed.
func killTicks(ticks int, p core.Periods) []int {
	p = p.Effective()
	ks := []int{1, ticks / 2, ticks - 1}
	for _, per := range []int{p.EC, p.SM, p.EM, p.GM, p.VMC, p.FM} {
		if per > 1 {
			ks = append(ks, per-1, per, per+1)
		}
	}
	ks = slices.DeleteFunc(ks, func(k int) bool { return k <= 0 || k >= ticks })
	slices.Sort(ks)
	return slices.Compact(ks)
}
