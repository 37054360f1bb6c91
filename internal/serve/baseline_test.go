package serve

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nopower/internal/experiments"
	"nopower/internal/runner"
)

// checkOutput fails unless v is done with spec's direct result and the
// scenario's baseline, bit for bit.
func checkOutput(t *testing.T, v View, spec JobSpec) {
	t.Helper()
	if v.Status != StatusDone {
		t.Fatalf("job %s: %s (%s), want done", v.ID, v.Status, v.Error)
	}
	if want := directResult(t, spec); v.Output.Result != want {
		t.Fatalf("job %s diverges from the direct run:\n got %+v\nwant %+v", v.ID, v.Output.Result, want)
	}
	want, err := experiments.BaselinePower(context.Background(), spec.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	if v.Output.BaselineW != want {
		t.Fatalf("job %s baseline %v W, direct %v W", v.ID, v.Output.BaselineW, want)
	}
}

// waitSettled polls until the job is terminal or suspended, the states a
// job stays in without a tenant's request, and returns its view.
func waitSettled(t *testing.T, s *Server, id string) View {
	t.Helper()
	var v View
	waitFor(t, 60*time.Second, func() bool {
		v, _ = s.Job(id)
		return v.Status.terminal() || v.Status == StatusSuspended
	}, "job "+id+" never settled")
	return v
}

// TestBaselinePoolJobs runs one computed job on a fresh server and counts
// the pool jobs it starts. On one worker no worker frees up to take the
// offered baseline, so the run withdraws it and computes it in line at
// finalize: one pool job, and no deadlock. On two, the idle worker takes
// the baseline beside the managed run, as a pool job of its own. The
// output is the direct run's either way.
func TestBaselinePoolJobs(t *testing.T) {
	for _, c := range []struct {
		workers int
		started int64
	}{{1, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("workers=%d", c.workers), func(t *testing.T) {
			s, err := New(Config{Workers: c.workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			spec := JobSpec{Mix: "60L", Ticks: 600, Seed: 7000 + int64(c.workers)}
			before := runner.Stats().JobsStarted
			v, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			final := waitTerminal(t, s, v.ID, 60*time.Second)
			s.Close() // joins a baseline task that might still be winding down
			if started := runner.Stats().JobsStarted - before; started != c.started {
				t.Errorf("%d pool jobs started, want %d", started, c.started)
			}
			checkOutput(t, final, spec)
		})
	}
}

// TestServeParallelismBound samples the runner's in-flight job count while
// a server of two workers runs jobs whose baselines start on idle workers:
// a server never runs more than Workers simulations at once.
func TestServeParallelismBound(t *testing.T) {
	const workers = 2
	s, err := New(Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop, done := make(chan struct{}), make(chan struct{})
	var peak int64
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			peak = max(peak, runner.Stats().InFlight)
			runtime.Gosched()
		}
	}()
	var specs []JobSpec
	for seed := int64(7101); seed <= 7103; seed++ {
		for _, stack := range []string{"coordinated", "uncoordinated"} {
			specs = append(specs, JobSpec{Mix: "60L", Stack: stack, Ticks: 600, Seed: seed})
		}
	}
	before := runner.Stats().JobsStarted
	var ids []string
	for i, spec := range specs {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		if i == 0 {
			// The first job is alone on the server, so its baseline goes
			// to the idle worker; the rest then queue behind both.
			waitFor(t, 30*time.Second, func() bool { return runner.Stats().JobsStarted-before >= 2 },
				"the first job's baseline never started beside it")
		}
	}
	views := make([]View, len(ids))
	for i, id := range ids {
		views[i] = waitTerminal(t, s, id, 60*time.Second)
	}
	s.Close()
	close(stop)
	<-done
	if peak > workers {
		t.Errorf("%d runner jobs in flight on a server of %d workers", peak, workers)
	}
	for i, v := range views {
		checkOutput(t, v, specs[i])
	}
}

// TestBaselineTakesFreedWorker submits a second job while the first job's
// run and baseline fill both workers of a server. The second job starts
// when one of them ends, and the other ends while the second job's longer
// run goes on: its baseline must run on that freed worker as a pool job of
// its own, not in line after its run. Four pool jobs in all, and both
// outputs are the direct runs'.
func TestBaselineTakesFreedWorker(t *testing.T) {
	// The first job's goroutine must finish, and free its worker, while
	// the second job's run goes on. With one P the Go scheduler can hold
	// that goroutine until the run ends (it did in 5 of 20 runs at -cpu 1),
	// so the test takes at least two.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := []JobSpec{{Mix: "60L", Ticks: 600, Seed: 7400}, {Mix: "60L", Ticks: 12000, Seed: 7401}}
	before := runner.Stats().JobsStarted
	var ids []string
	for i, spec := range specs {
		v, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		if i == 0 {
			waitFor(t, 30*time.Second, func() bool { return runner.Stats().JobsStarted-before >= 2 },
				"the first job's baseline never started beside it")
		}
	}
	views := make([]View, len(ids))
	for i, id := range ids {
		views[i] = waitTerminal(t, s, id, 60*time.Second)
	}
	s.Close()
	if started := runner.Stats().JobsStarted - before; started != 4 {
		t.Errorf("%d pool jobs started, want 4: the second job's baseline never took the freed worker", started)
	}
	for i, v := range views {
		checkOutput(t, v, specs[i])
	}
}

// TestForeignBaselineStopRetries plants another tenant's baseline
// computation in the server's cache, lets a job join it, and then stops it
// the way cancelling or suspending that tenant's job would. The stop is not
// the joined job's own: it must retry, compute the baseline itself and end
// done with the direct result. On one worker no worker takes the offered
// baseline, so the join is the job's own read at finalize.
func TestForeignBaselineStopRetries(t *testing.T) {
	for i, cause := range []error{errCancelled, ErrSuspended} {
		t.Run(cause.Error(), func(t *testing.T) {
			s, err := New(Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			spec := testSpec(7200+int64(i), 300)
			leading, release := make(chan struct{}), make(chan struct{})
			go func() {
				_, _ = s.baselines.Get(spec.Scenario().BaselineKey(), func() (float64, error) {
					close(leading)
					<-release
					return 0, fmt.Errorf("sim: stopped at tick 1: %w", cause)
				})
			}()
			<-leading
			hits := runner.Stats().CacheHits
			v, err := s.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// The job's only cache hit before the release is its join on
			// the planted baseline.
			waitFor(t, 30*time.Second, func() bool { return runner.Stats().CacheHits > hits },
				"the job never joined the planted baseline")
			close(release)
			checkOutput(t, waitSettled(t, s, v.ID), spec)
		})
	}
}

// TestTenantStopSparesSharedBaseline runs two tenants' jobs on one
// scenario under different stacks, so they share its baseline, and cancels
// or suspends the first while the second may be waiting on a baseline the
// first leads. The second job must end done with the direct result, and the
// first as asked.
func TestTenantStopSparesSharedBaseline(t *testing.T) {
	for i, c := range []struct {
		name string
		stop func(s *Server, id string) error
		want Status
	}{
		{"cancel", (*Server).Cancel, StatusCancelled},
		{"suspend", (*Server).Suspend, StatusSuspended},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			a := JobSpec{Mix: "scale500", Stack: "coordinated", Ticks: 600, Seed: 7300 + int64(i)}
			b := a
			b.Stack = "uncoordinated"
			before := runner.Stats()
			va, err := s.Submit(a)
			if err != nil {
				t.Fatal(err)
			}
			// The first job leads its result and its first shared
			// computation before the second comes in.
			waitFor(t, 30*time.Second, func() bool { return runner.Stats().CacheMisses-before.CacheMisses >= 2 },
				"the first job never started computing")
			vb, err := s.Submit(b)
			if err != nil {
				t.Fatal(err)
			}
			// The first computation joined is the second job's join on the
			// first one's baseline when the baseline runs first, or the
			// first job's run and baseline sharing its trace set when the
			// two run side by side. The first job is mid-run either way.
			waitFor(t, 30*time.Second, func() bool { return runner.Stats().CacheHits > before.CacheHits },
				"no computation was shared")
			if err := c.stop(s, va.ID); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, waitSettled(t, s, vb.ID), b)
			waitFor(t, 30*time.Second, func() bool {
				fa, _ := s.Job(va.ID)
				return fa.Status == c.want
			}, "the first job did not end "+string(c.want))
		})
	}
}
