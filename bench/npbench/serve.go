package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"nopower/internal/experiments"
	"nopower/internal/runner"
	"nopower/internal/serve"
)

// The repository records no npserved user traffic, so npserved-fresh
// submits the job its README shows — mix 60L under the coordinated stack,
// 3000 ticks — each with its own trace seed, so that no two jobs share a
// cache entry and every job is computed and checkpointed. Jobs go one at a
// time, each submitted when the previous one is done: the latency a user
// sees from a daemon that is not queueing. Latency under a flood of jobs is
// E20's (make bench-serve); open-loop arrivals on this benchmark's two
// vCPUs measured the host's scheduler more than the daemon.
const (
	// sampleSpecs is how many of the window's specs are checked against
	// direct runs and then resubmitted, to be answered by the dedup cache.
	sampleSpecs = 8
)

// readmeJob is the README's example npserved job with trace seed seed.
func readmeJob(seed int64, ticks int) serve.JobSpec {
	return serve.JobSpec{Mix: "60L", Stack: "coordinated", Ticks: ticks, Seed: seed}
}

// seedBase derives the first trace seed of the workload's specs from the
// run seed; job i of a run uses seedBase + i, so no two jobs collide.
func seedBase(seed int64) int64 { return 1 + rand.New(rand.NewSource(seed)).Int63n(1<<40) }

// serveConfig is npserved as its README starts it (a durable job directory,
// periodic checkpoints every 500 ticks) on two workers.
func serveConfig(dir string) serve.Config {
	return serve.Config{Dir: dir, Workers: workers, CheckpointEvery: 500}
}

// directOutput is what npserved must return for spec: the scenario's
// baseline and the managed run against it, computed without the server.
func directOutput(ctx context.Context, spec serve.JobSpec) (serve.Output, error) {
	sc := spec.Scenario()
	cs, err := spec.CoreSpec()
	if err != nil {
		return serve.Output{}, err
	}
	base, err := experiments.BaselinePower(ctx, sc)
	if err != nil {
		return serve.Output{}, err
	}
	res, err := experiments.RunVsBaseline(ctx, sc, cs, base)
	return serve.Output{Result: res, BaselineW: base}, err
}

// submitWait submits spec to srv and waits for the job to end. It returns
// the job's output bits, the time Submit took, and the time from submit to
// done; a job that did not end done is an error.
func submitWait(ctx context.Context, srv *serve.Server, spec serve.JobSpec) (out map[string]string, submit, total time.Duration, err error) {
	t0 := time.Now()
	v, err := srv.Submit(spec)
	submit = time.Since(t0)
	if err != nil {
		return nil, submit, 0, err
	}
	v, err = srv.Wait(ctx, v.ID)
	total = time.Since(t0)
	if err != nil {
		return nil, submit, total, err
	}
	if v.Status != serve.StatusDone || v.Output == nil {
		return nil, submit, total, fmt.Errorf("job %s ended %q: %s", v.ID, v.Status, v.Error)
	}
	return bits(*v.Output), submit, total, nil
}

// tally sums a server's registry.
type tally struct {
	done, dedup, writes, bytes int64
	writeSecs                  float64
}

func newTally(srv *serve.Server) tally {
	reg := srv.Registry()
	return tally{
		done:      reg.Counter("np_serve_jobs_done_total").Value(),
		dedup:     reg.Counter("np_serve_dedup_hits_total").Value(),
		writes:    reg.Counter("np_checkpoint_writes_total").Value(),
		bytes:     reg.Counter("np_checkpoint_bytes_total").Value(),
		writeSecs: reg.Histogram("np_checkpoint_write_seconds").Sum(),
	}
}

// layerMetrics reports the serve, checkpoint and runner layers of a window
// that kept the runner busy for busy seconds out of wall.
func (t tally) layerMetrics(m map[string]float64, busy, wall float64) {
	if t.done > 0 {
		m["serve.dedup_ratio"] = float64(t.dedup) / float64(t.done)
		m["serve.compute_ms_mean"] = busy / float64(t.done) * 1e3
	}
	if computed := t.done - t.dedup; computed > 0 {
		m["checkpoint.writes_per_job"] = float64(t.writes) / float64(computed)
	}
	if t.writes > 0 {
		m["checkpoint.kb_per_write"] = float64(t.bytes) / float64(t.writes) / 1024
		m["checkpoint.write_ms_mean"] = t.writeSecs / float64(t.writes) * 1e3
	}
	if busy > 0 {
		m["checkpoint.write_share"] = t.writeSecs / busy
	}
	m["runner.busy_share"] = busy / (wall * workers)
}

// runnerDelta reports the runner's busy seconds and cache hit ratio since
// before.
func runnerDelta(m map[string]float64, before runner.PoolStats) float64 {
	after := runner.Stats()
	if n := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); n > 0 {
		m["runner.cache_hit_ratio"] = float64(after.CacheHits-before.CacheHits) / float64(n)
	}
	return after.BusySeconds - before.BusySeconds
}

// coldStart is npserved's set-up: a server started from nothing until its
// first job — the same 180-server coordinated job every time, with the
// run's trace seed — is done, which is when a restarted daemon is of use
// again. A bare serve.New is tens of microseconds, and with a job directory
// its time follows the filesystem, not the program; the paper-sized first
// job keeps that a small share.
func coldStart(ctx context.Context, cfg serve.Config, seed int64, ticks int) (float64, error) {
	t0 := time.Now()
	srv, err := serve.New(cfg)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	if _, _, _, err := submitWait(ctx, srv, serve.JobSpec{Mix: "180", Stack: "coordinated", Ticks: ticks, Seed: seed}); err != nil {
		return 0, fmt.Errorf("first job: %w", err)
	}
	secs := time.Since(t0).Seconds()
	return secs, srv.Close()
}

// runServeFresh measures npserved-fresh on one durable two-worker server:
// cold starts, then jobs one after another until the window is used.
// op_ms_p50 is the median job from submit to done. After the window the
// first sampleSpecs specs are checked against direct runs (and the goldens
// at seed 42), then submitted again: each must be answered by the dedup
// cache with the same output.
func runServeFresh(ctx context.Context, r *run) error {
	dir, err := os.MkdirTemp(r.cfg.out, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if r.prof == nil {
		n := 0
		err := r.repeat(func() (float64, error) {
			n++
			return coldStart(ctx, serveConfig(filepath.Join(dir, fmt.Sprintf("setup-%d", n))), r.cfg.seed, r.cfg.size.serveTicks)
		})
		if err != nil {
			return err
		}
	}
	srv, err := serve.New(serveConfig(filepath.Join(dir, "jobs")))
	if err != nil {
		return err
	}
	defer srv.Close()
	base := seedBase(r.cfg.seed)
	var specs []serve.JobSpec
	outputs := map[string]map[string]string{}
	var submits []float64
	before := runner.Stats()
	start := time.Now()
	err = r.timedOps(sampleSpecs, func(i int) (float64, bool, error) {
		spec := readmeJob(base+int64(i), r.cfg.size.serveTicks)
		specs = append(specs, spec)
		from := time.Now()
		out, submit, total, err := submitWait(ctx, srv, spec)
		if err != nil {
			return 0, false, err
		}
		outputs[spec.Key()] = out
		submits = append(submits, float64(submit)/1e3)
		if r.prof != nil {
			record(r.prof, "serve.job", i, -1, from, from.Add(total))
			record(r.prof, "serve.submit", i, -1, from, from.Add(submit))
		}
		return float64(total) / 1e6, true, nil
	})
	wall := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	m := r.rep.Metrics
	lat := r.rep.Samples["op_ms_p50"]
	m["serve.job_ms_p90"] = percentile(lat, 0.9)
	m["serve.submit_us_p50"] = median(submits)
	busy := runnerDelta(m, before)
	window := newTally(srv)

	for i, spec := range specs[:sampleSpecs] {
		want, err := directOutput(ctx, spec)
		if err != nil {
			return fmt.Errorf("direct run of sample %d: %w", i, err)
		}
		wb := bits(want)
		ok := r.same(-1, fmt.Sprintf("a direct experiments run of sample %d", i), wb, outputs[spec.Key()])
		if g := r.golden(spec.Key()); g != nil {
			ok = r.same(-1, fmt.Sprintf("golden/seed42.json sample %d", i), g, wb) && ok
		}
		got, _, _, err := submitWait(ctx, srv, spec)
		if err != nil {
			r.errorf(-1, "resubmitted sample %d: %v", i, err)
			ok = false
		} else {
			ok = r.same(-1, fmt.Sprintf("the first job of sample %d", i), wb, got) && ok
		}
		r.op(ok)
	}
	t := newTally(srv)
	if hits := t.dedup - window.dedup; hits != sampleSpecs {
		r.errorf(-1, "%d dedup hits for %d resubmitted specs, want %d", hits, sampleSpecs, sampleSpecs)
		r.op(false)
	}
	t.layerMetrics(m, busy, wall)
	if err := srv.Close(); err != nil {
		return err
	}
	return r.traceJob(ctx, specs[0])
}

// traceJob, in a traced run, sends spec's simulation through the step loop.
func (r *run) traceJob(ctx context.Context, spec serve.JobSpec) error {
	if r.prof == nil {
		return nil
	}
	cs, err := spec.CoreSpec()
	if err != nil {
		return err
	}
	w := simWorkload{sc: spec.Scenario(), spec: cs, shards: 1, scenarios: 1}
	lm, err := traceSim(ctx, r, w, nil)
	for k, v := range lm {
		r.rep.Metrics[k] = v
	}
	return err
}
