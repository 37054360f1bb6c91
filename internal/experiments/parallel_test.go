package experiments

// Tests for the parallel-runner guarantees: tables are byte-identical at
// any parallelism level (results are keyed by job position, never by
// completion order), and cancelling the context mid-batch surfaces
// context.Canceled instead of a partial table, and a pool bound is the
// bound on simulations in flight.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"nopower/internal/runner"
)

// renderAll renders every table from one experiment into a single string so
// two runs can be compared byte-for-byte.
func renderAll(t *testing.T, name string, opts Options) string {
	t.Helper()
	tables, err := RunExperiment(context.Background(), name,
		WithTicks(opts.Ticks), WithSeed(opts.Seed), WithParallelism(opts.Parallelism))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var sb strings.Builder
	for _, tab := range tables {
		sb.WriteString(tab.String())
		sb.WriteString("\n")
		sb.WriteString(tab.Markdown())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestParallelDeterminism is the headline guarantee of the runner port:
// fig7 (one row per run), fig8 (stacks pivoted into columns) and multiseed
// (per-stack sample reassembly) must render identically whether the jobs
// run serially or on 8 workers.
func TestParallelDeterminism(t *testing.T) {
	for _, name := range []string{"fig7", "fig8", "multiseed"} {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := Options{Ticks: 900, Seed: 42}
			opts.Parallelism = 1
			serial := renderAll(t, name, opts)
			opts.Parallelism = 8
			parallel := renderAll(t, name, opts)
			if serial != parallel {
				t.Errorf("%s output differs between -parallel=1 and -parallel=8:\nserial:\n%s\nparallel:\n%s",
					name, serial, parallel)
			}
		})
	}
}

// TestParallelCancellation cancels the context while a batch is in flight
// and checks the error chain reports context.Canceled rather than some
// simulator-internal failure.
func TestParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first tick: every job must stop early
	_, err := RunExperiment(ctx, "fig7", WithTicks(900), WithSeed(42), WithParallelism(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
}

// TestParallelCancellationMidRun cancels after the batch starts so some
// jobs are mid-simulation when the signal lands.
func TestParallelCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Long ticks so the batch cannot finish before cancel fires.
		_, err := RunExperiment(ctx, "fig8", WithTicks(200000), WithSeed(42), WithParallelism(4))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled in the chain", err)
		}
	}()
	cancel()
	<-done
}

// TestExtensionsParallelismBound samples the runner's in-flight job count
// while E13 runs at parallelism 2. Its sub-studies run one after another and
// only the E13 sweep's and the rack study's pools fan out, so no more than
// two jobs are ever in flight; sub-studies on a pool of their own would
// add their own jobs on top of the inner ones.
func TestExtensionsParallelismBound(t *testing.T) {
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
	_, err := RunExperiment(context.Background(), "extensions", WithTicks(600), WithParallelism(2))
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if peak > 2 {
		t.Errorf("%d runner jobs in flight at parallelism 2", peak)
	}
}

// E13's base row is fig7's BladeA/180 coordinated run, so a batch of the
// two starts fewer pool jobs than the two run apart: the shared run and
// its baseline run once.
func TestBatchRunsE13BaseRowOnce(t *testing.T) {
	jobs := func(names ...string) int64 {
		t.Helper()
		before := runner.JobCount()
		if _, err := RunExperiments(context.Background(), names, WithTicks(300)); err != nil {
			t.Fatal(err)
		}
		return runner.JobCount() - before
	}
	apart := jobs("fig7") + jobs("extensions")
	if together := jobs("fig7", "extensions"); together >= apart {
		t.Errorf("fig7 and extensions started %d pool jobs in one batch, %d apart", together, apart)
	}
}
