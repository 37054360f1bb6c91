package serve

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"nopower/internal/checkpoint"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// testSpec is a small, fast scenario (4 workloads) with a per-test seed so
// tests don't dedup against each other through the shared cache.
func testSpec(seed int64, ticks int) JobSpec {
	return JobSpec{Mix: "scale4", Ticks: ticks, Seed: seed}
}

// directResult runs the spec's scenario and stack straight through the
// experiments layer — the ground truth every daemon path must match bitwise
// (metrics.Result is a comparable struct of float64s, so == is exact bit
// equality).
func directResult(t *testing.T, spec JobSpec) metrics.Result {
	t.Helper()
	cs, err := spec.CoreSpec()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	baseline, err := experiments.BaselinePower(ctx, spec.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.RunVsBaseline(ctx, spec.Scenario(), cs, baseline)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// waitTerminal blocks until the job settles and returns its final view.
func waitTerminal(t *testing.T, s *Server, id string, timeout time.Duration) View {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		ctx, cancel := context.WithDeadline(context.Background(), deadline)
		v, err := s.Wait(ctx, id)
		cancel()
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if v.Status.terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after %v", id, v.Status, timeout)
		}
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Workers: 2, CheckpointEvery: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec(101, 200)
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusQueued && v.Status != StatusRunning {
		t.Fatalf("fresh job status = %s", v.Status)
	}
	final := waitTerminal(t, s, v.ID, 30*time.Second)
	if final.Status != StatusDone {
		t.Fatalf("status = %s (err %q)", final.Status, final.Error)
	}
	if final.Output == nil {
		t.Fatal("done job has no output")
	}
	if want := directResult(t, spec); final.Output.Result != want {
		t.Fatalf("daemon result diverges from direct run:\n got %+v\nwant %+v", final.Output.Result, want)
	}
	if final.Progress != final.Total {
		t.Errorf("final progress %d/%d", final.Progress, final.Total)
	}
	// The durable record survives on disk.
	if _, err := os.Stat(filepath.Join(s.cfg.Dir, v.ID, resultFile)); err != nil {
		t.Errorf("result not persisted: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, c := range []struct {
		spec JobSpec
		want string // a fragment the error must carry
	}{
		{JobSpec{Model: "NoSuchModel"}, "BladeA"},
		{JobSpec{Stack: "nosuchstack"}, "uncoordinated"},
		{JobSpec{Mix: "bogus"}, "bogus"},
		{JobSpec{Ticks: -4}, "ticks"},
		// Unknown names fail with the known ones listed.
		{JobSpec{Policy: "bogus"}, "fairshare"},
		{JobSpec{Chaos: "bogus"}, "sm-crash"},
		{JobSpec{FaultPolicy: "bogus"}, "degrade"},
		// Valid for npsim, but a re-raised panic would kill the daemon.
		{JobSpec{Chaos: "sm-crash", FaultPolicy: "propagate"}, "propagate"},
		// Budgets live in [0, 1); overheads in [0, 1].
		{JobSpec{CapGrp: 1.5}, "cap_grp"},
		{JobSpec{CapEnc: 1}, "cap_enc"},
		{JobSpec{CapLoc: -0.1}, "cap_loc"},
		{JobSpec{AlphaV: -2}, "alpha_v"},
		{JobSpec{AlphaM: 1.01}, "alpha_m"},
		{JobSpec{MigrationTicks: -3}, "migration_ticks"},
		{JobSpec{Shards: -1}, "shards"},
		{JobSpec{FacilityFeedW: -1}, "facility_feed_w"},
		// Non-finite floats, which npsim's flag parser accepts.
		{JobSpec{CapGrp: math.NaN()}, "cap_grp"},
		{JobSpec{AlphaM: math.Inf(1)}, "alpha_m"},
		{JobSpec{FacilityFeedW: math.Inf(1)}, "facility_feed_w"},
		{JobSpec{CapLoc: math.Inf(-1)}, "cap_loc"},
	} {
		_, err := s.Submit(c.spec)
		if err == nil {
			t.Errorf("spec %+v accepted", c.spec)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("spec %+v: error %q does not mention %q", c.spec, err, c.want)
		}
	}
}

// TestConcurrentIdenticalSubmitsComputeOnce pins the shared-cache contract:
// N tenants submitting the same spec share exactly one computation — one
// job computes, every other is a dedup hit with a bitwise-identical output.
func TestConcurrentIdenticalSubmitsComputeOnce(t *testing.T) {
	s, err := New(Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec(202, 300)
	const n = 24
	ids := make([]string, n)
	for i := range ids {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	want := directResult(t, spec)
	computed := 0
	for _, id := range ids {
		v := waitTerminal(t, s, id, 60*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("job %s: %s (%s)", id, v.Status, v.Error)
		}
		if v.Output.Result != want {
			t.Fatalf("job %s result diverges from direct run", id)
		}
		if !v.Dedup {
			computed++
		}
	}
	if computed != 1 {
		t.Fatalf("%d jobs computed, want exactly 1 (rest dedup)", computed)
	}
	if got := s.reg.Counter("np_serve_dedup_hits_total").Value(); got != n-1 {
		t.Errorf("np_serve_dedup_hits_total = %d, want %d", got, n-1)
	}
}

// TestSuspendResumeBitwiseIdentical is the daemon half of the E16 replay
// contract: a job suspended mid-run and resumed from its checkpoint
// produces a Result bitwise identical to an uninterrupted direct run.
func TestSuspendResumeBitwiseIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 2, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for attempt := 0; attempt < 5; attempt++ {
		spec := testSpec(1000+int64(attempt), 3000)
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		// Catch the job mid-run, past at least one checkpoint boundary.
		caught := false
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			jv, err := s.Job(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			if jv.Status.terminal() {
				break // finished before we could suspend; retry with a fresh spec
			}
			if jv.Status == StatusRunning && jv.Progress >= 50 {
				caught = true
				break
			}
			time.Sleep(200 * time.Microsecond)
		}
		if !caught {
			continue
		}
		if err := s.Suspend(v.ID); err != nil {
			t.Fatal(err)
		}
		suspended := false
		for time.Now().Before(deadline) {
			jv, err := s.Job(v.ID)
			if err != nil {
				t.Fatal(err)
			}
			if jv.Status == StatusSuspended {
				suspended = true
				if jv.Progress >= jv.Total {
					t.Fatalf("suspended at %d/%d — not mid-run", jv.Progress, jv.Total)
				}
				break
			}
			if jv.Status.terminal() {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if !suspended {
			continue
		}
		// The resume point is on disk before the job settles as suspended.
		ckpt, err := checkpoint.Latest(filepath.Join(dir, v.ID))
		if err != nil || ckpt == "" {
			t.Fatalf("no checkpoint after suspension (err %v)", err)
		}
		if err := s.Resume(v.ID); err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, v.ID, 60*time.Second)
		if final.Status != StatusDone {
			t.Fatalf("resumed job: %s (%s)", final.Status, final.Error)
		}
		if final.Restarts == 0 {
			t.Error("resumed job reports zero restarts")
		}
		if want := directResult(t, spec); final.Output.Result != want {
			t.Fatalf("resumed result diverges from uninterrupted run:\n got %+v\nwant %+v", final.Output.Result, want)
		}
		return
	}
	t.Fatal("could not catch a job mid-run in 5 attempts")
}

// TestRestartRecoversJobs kills the daemon mid-load and checks the next
// boot recovers every job from the durable directory: suspended runs resume
// from their checkpoints, never-started jobs run from scratch, and every
// result is bitwise identical to a direct run.
func TestRestartRecoversJobs(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Dir: dir, Workers: 2, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	specs := make([]JobSpec, n)
	ids := make([]string, n)
	for i := range specs {
		specs[i] = testSpec(2000+int64(i), 2500)
		v, err := s1.Submit(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = v.ID
	}
	// Let the fleet make some progress, then kill the daemon. Close stops
	// runs at tick boundaries; their checkpoints are the hand-off.
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := s1.Job(ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.terminal() || (v.Status == StatusRunning && v.Progress >= 50) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	s1.Close()

	s2, err := New(Config{Dir: dir, Workers: 4, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.reg.Counter("np_serve_jobs_recovered_total").Value(); got != n {
		t.Fatalf("recovered %d jobs, want %d", got, n)
	}
	for i, id := range ids {
		final := waitTerminal(t, s2, id, 120*time.Second)
		if final.Status != StatusDone {
			t.Fatalf("recovered job %s: %s (%s)", id, final.Status, final.Error)
		}
		if want := directResult(t, specs[i]); final.Output.Result != want {
			t.Fatalf("job %s post-restart result diverges from direct run", id)
		}
	}
}

// TestLoad500JobsZeroLoss is the tentpole's load gate: 500 queued jobs over
// a handful of distinct specs, all completing with zero losses and the
// duplicates deduplicated through the shared cache.
func TestLoad500JobsZeroLoss(t *testing.T) {
	s, err := New(Config{}) // in-memory, GOMAXPROCS workers
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const jobs, distinct = 500, 8
	specs := make([]JobSpec, distinct)
	for i := range specs {
		specs[i] = JobSpec{Mix: "scale2", Ticks: 120, Seed: 3000 + int64(i)}
	}
	ids := make([]string, jobs)
	for i := range ids {
		v, err := s.Submit(specs[i%distinct])
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = v.ID
	}
	want := make([]metrics.Result, distinct)
	for i, spec := range specs {
		want[i] = directResult(t, spec)
	}
	dedup := 0
	for i, id := range ids {
		v := waitTerminal(t, s, id, 120*time.Second)
		if v.Status != StatusDone {
			t.Fatalf("job %d (%s): %s (%s)", i, id, v.Status, v.Error)
		}
		if v.Output.Result != want[i%distinct] {
			t.Fatalf("job %d result diverges from direct run", i)
		}
		if v.Dedup {
			dedup++
		}
	}
	if dedup != jobs-distinct {
		t.Errorf("dedup count = %d, want %d", dedup, jobs-distinct)
	}
	if got := s.reg.Counter("np_serve_jobs_done_total").Value(); got != jobs {
		t.Errorf("np_serve_jobs_done_total = %d, want %d", got, jobs)
	}
	if got := s.reg.Counter("np_serve_jobs_failed_total").Value(); got != 0 {
		t.Errorf("np_serve_jobs_failed_total = %d, want 0", got)
	}
}

// TestJanitorEvictsAndResumes drives the memory-pressure janitor with a
// fake heap probe: above the high watermark the running job is evicted to
// its checkpoint; once pressure clears it resumes and finishes with a
// bitwise-correct result.
func TestJanitorEvictsAndResumes(t *testing.T) {
	var pressured atomic.Bool
	pressured.Store(true)
	cfg := Config{
		Dir:             t.TempDir(),
		Workers:         1,
		CheckpointEvery: 20,
		MemHighBytes:    100,
		MemLowBytes:     50,
		MemCheckEvery:   time.Millisecond,
		memBytes: func() uint64 {
			if pressured.Load() {
				return 1000
			}
			return 1
		},
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := testSpec(4000, 3000)
	v, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	evicted := false
	for time.Now().Before(deadline) {
		jv, err := s.Job(v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jv.Status == StatusSuspended && jv.Evicted {
			evicted = true
			break
		}
		if jv.Status.terminal() {
			t.Fatalf("job finished (%s) before the janitor could evict it", jv.Status)
		}
		time.Sleep(time.Millisecond)
	}
	if !evicted {
		t.Fatal("janitor never evicted the running job")
	}
	if got := s.reg.Counter("np_serve_evictions_total").Value(); got == 0 {
		t.Error("np_serve_evictions_total = 0 after an eviction")
	}
	pressured.Store(false) // pressure clears; the janitor resumes evictees
	final := waitTerminal(t, s, v.ID, 60*time.Second)
	if final.Status != StatusDone {
		t.Fatalf("evicted job: %s (%s)", final.Status, final.Error)
	}
	if final.Restarts == 0 {
		t.Error("evicted job reports zero restarts")
	}
	if want := directResult(t, spec); final.Output.Result != want {
		t.Fatalf("post-eviction result diverges from direct run")
	}
}

func TestCancelRemovesJob(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Dir: dir, Workers: 1, CheckpointEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	v, err := s.Submit(testSpec(5000, 3000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, v.ID, 30*time.Second)
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if err := s.Cancel(v.ID); err != nil {
		t.Errorf("re-cancel of a terminal job = %v, want nil", err)
	}
	// The durable directory is gone: a cancelled job never resurrects on
	// the next boot.
	waitFor(t, 10*time.Second, func() bool {
		_, err := os.Stat(filepath.Join(dir, v.ID))
		return os.IsNotExist(err)
	}, "job directory still present after cancel")
	if _, err := s.Job("j-no-such-job"); err != ErrUnknownJob {
		t.Errorf("unknown job err = %v", err)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Submit(testSpec(6000, 100)); err != ErrServerClosed {
		t.Fatalf("submit after close = %v, want ErrServerClosed", err)
	}
}

// waitFor polls cond until it holds or the timeout expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// TestKeyCanonicalization pins the dedup key: spelled-out defaults and
// execution knobs hash identically; result-changing fields do not.
func TestKeyCanonicalization(t *testing.T) {
	base := JobSpec{}.Key()
	same := []JobSpec{
		{Model: "BladeA"},
		{Mix: "180"},
		{Stack: "coordinated", Ticks: experiments.DefaultTicks},
		{Seed: 42, Policy: "proportional"},
		{Shards: 7}, // execution knob: never changes results
		// Alias spellings resolve to one registry profile.
		{Model: "bladea"},
		{Model: "blade-a"},
		// Spelled-out defaults of the new fields.
		{Chaos: "fault-free", FaultPolicy: "fail"},
	}
	for i, spec := range same {
		if spec.Key() != base {
			t.Errorf("spec %d (%+v) should share the default key", i, spec)
		}
	}
	diff := []JobSpec{
		{Model: "ServerB"},
		{Mix: "60L"},
		{Stack: "uncoordinated"},
		{Ticks: 100},
		{Seed: 43},
		{NoOff: true},
		{CapGrp: 0.25, CapEnc: 0.20, CapLoc: 0.15},
		{Facility: true},
		{FacilityFeedW: 30000},
		{Chaos: "sm-crash"},
		{FaultPolicy: "degrade"},
	}
	for i, spec := range diff {
		if spec.Key() == base {
			t.Errorf("spec %d (%+v) must not collide with the default key", i, spec)
		}
	}
	if fmt.Sprintf("%x", "") == base {
		t.Error("key is not a hash")
	}
}

// TestSpecProfiles pins the heterogeneous-fleet wire form: a distribution
// spec validates through the registry, typos surface the known-name list,
// and alias spellings canonicalize to one cache key.
func TestSpecProfiles(t *testing.T) {
	good := JobSpec{Profiles: "bladea:3,rack-2u-32:1", Mix: "60L", Ticks: 10}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profiles spec rejected: %v", err)
	}
	if sc := good.Scenario(); sc.Profiles == "" || sc.Model != "" {
		t.Fatalf("scenario mapping lost the distribution: %+v", sc)
	}
	bad := JobSpec{Profiles: "bladea:1,typo-profile:2"}
	if err := bad.Validate(); err == nil {
		t.Fatal("unknown profile accepted")
	} else if !strings.Contains(err.Error(), "BladeA") {
		t.Errorf("error should list known profiles, got: %v", err)
	}
	both := JobSpec{Model: "ServerB", Profiles: "bladea:1"}
	if err := both.Validate(); err == nil {
		t.Fatal("model+profiles accepted")
	}
	a := JobSpec{Profiles: "blade-a:3,rack-2u-32:1"}.Key()
	b := JobSpec{Profiles: "BladeA:3,Rack2U32:1"}.Key()
	if a != b {
		t.Error("alias spellings of one fleet should share a cache key")
	}
	if a == (JobSpec{}.Key()) {
		t.Error("heterogeneous spec must not collide with the default key")
	}
}

// TestKeysPinned pins the dedup key of specs already in canonical form: the
// spec's move into experiments and its new fields must not re-key a single
// cached result or npbench golden.
func TestKeysPinned(t *testing.T) {
	for _, c := range []struct {
		spec JobSpec
		key  string
	}{
		{JobSpec{}, "41ffa3511a3b17c37c1a9876f3728fbba0450e10ca01d3e139d87683e1f344cd"},
		{JobSpec{Mix: "60L", Stack: "coordinated"}, "b3187e8249a78c3583d736d48ff9c481f572f8723926fc11d78a2bc1da7044c9"},
		{JobSpec{Profiles: "bladea:3,rack-2u-32:1", Mix: "60L"}, "eb7e40860a6bb912e485d3d170eeef570b10d038b24b9c30707881d36deb93de"},
	} {
		if got := c.spec.Key(); got != c.key {
			t.Errorf("%+v: key %s, want %s", c.spec, got, c.key)
		}
	}
}

// TestRunSpecFieldsServed submits E21's uncoordinated row and a chaos case,
// the two runs a job could not describe before the spec carried facility,
// chaos and fault-policy fields. Each output must equal the scenario-level
// run of the same inputs, bit for bit.
func TestRunSpecFieldsServed(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	facility := core.Uncoordinated()
	facility.EnableFacility, facility.EnableCooling = true, true
	crash, err := experiments.ChaosCaseByName("sm-crash")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		spec  JobSpec
		sc    experiments.Scenario
		stack core.Spec
		cse   experiments.ChaosCase
		o     experiments.Observers
	}{
		{
			spec:  JobSpec{Mix: "aiburst", Stack: "uncoordinated", Facility: true, Ticks: 600},
			sc:    experiments.Scenario{Model: "BladeA", Mix: tracegen.MixAIBurst, Budgets: experiments.Base201510(), Ticks: 600},
			stack: facility,
		},
		{
			spec:  JobSpec{Mix: "60HH", Chaos: "sm-crash", FaultPolicy: "degrade", Ticks: 600},
			sc:    experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix60HH, Budgets: experiments.Base201510(), Ticks: 600},
			stack: core.Coordinated(),
			cse:   crash,
			o:     experiments.Observers{FaultPolicy: sim.FaultDegrade},
		},
	} {
		v, err := s.Submit(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		final := waitTerminal(t, s, v.ID, 60*time.Second)
		if final.Status != StatusDone {
			t.Fatalf("%+v: %s (%s)", c.spec, final.Status, final.Error)
		}
		baseline, err := experiments.BaselinePower(ctx, c.sc)
		if err != nil {
			t.Fatal(err)
		}
		// CheckIdentity's reference is the scenario-level run through the
		// experiments run path; its variants must agree with it too.
		rep, err := experiments.CheckIdentity(ctx, c.sc, c.stack, c.cse, baseline, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		if d := rep.Result.Diff(final.Output.Result); d != "" {
			t.Errorf("%+v: served result differs from the scenario-level run: %s", c.spec, d)
		}
		if final.Output.BaselineW != baseline {
			t.Errorf("%+v: baseline %v, want %v", c.spec, final.Output.BaselineW, baseline)
		}
	}
}
