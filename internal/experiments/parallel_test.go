package experiments

// Tests for the parallel-runner guarantees: tables are byte-identical at
// any parallelism level (results are keyed by job position, never by
// completion order), and cancelling the context mid-batch surfaces
// context.Canceled instead of a partial table.

import (
	"context"
	"errors"
	"strings"
	"testing"
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
// fig7 (multi-table fan-out) and multiseed (per-stack sample reassembly)
// must render identically whether the jobs run serially or on 8 workers.
func TestParallelDeterminism(t *testing.T) {
	for _, name := range []string{"fig7", "multiseed"} {
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
