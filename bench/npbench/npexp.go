package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"nopower/internal/core"
	"nopower/internal/experiments"
	tables "nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/tracegen"
)

// npexpArgs is the sweep a researcher runs: the paper's figures on two
// workers, machine-readable.
func npexpArgs(cfg config) []string {
	args := []string{"-ticks", fmt.Sprint(cfg.size.npexpTicks), "-parallel", fmt.Sprint(workers),
		"-q", "-json", "-seed", fmt.Sprint(cfg.seed)}
	return append(args, cfg.size.npexpFigs...)
}

// execNpexp runs one sweep in a fresh npexp process — so the process-wide
// baseline cache starts cold, as it does for a user — and returns its
// stdout, its wall time from exec to exit, and its peak RSS.
func execNpexp(ctx context.Context, cfg config) (out []byte, ms, rssMB float64, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, cfg.npexp, npexpArgs(cfg)...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err = cmd.Run()
	ms = msSince(t0)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s %s: %w: %s", cfg.npexp, strings.Join(npexpArgs(cfg), " "), err, stderr.Bytes())
	}
	return stdout.Bytes(), ms, maxRSSMB(cmd.ProcessState), nil
}

// maxRSSMB is a finished process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// firstLineDiff names the first stdout line where got differs from want.
func firstLineDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("stdout line %d = %q, want %q", i+1, g, w)
		}
	}
	return ""
}

// runNpexp measures the npexp-figs workload: the set-up each of the sweep's
// managed runs repeats (the coordinated 180-server fig7 scenario), then
// whole sweeps, each in a fresh npexp process.
func runNpexp(ctx context.Context, r *run) error {
	w := simWorkload{
		sc: experiments.Scenario{Model: "BladeA", Mix: tracegen.Mix180,
			Budgets: experiments.Base201510(), Ticks: r.cfg.size.npexpTicks, Seed: r.cfg.seed},
		spec: core.Coordinated(), shards: 1, scenarios: 1,
	}
	var gold []byte
	if r.cfg.golden {
		gold = goldenNpexp
	}
	if r.prof != nil {
		return traceNpexp(ctx, r, w, gold)
	}
	err := r.repeat(func() (float64, error) {
		_, _, st, err := w.setup(nil)
		return st.total(), err
	})
	if err != nil {
		return err
	}
	var first []byte
	var rss []float64
	err = r.timedOps(3, func(i int) (float64, bool, error) {
		out, ms, mb, err := execNpexp(ctx, r.cfg)
		if err != nil {
			return 0, false, err
		}
		rss = append(rss, mb)
		ok := true
		if first == nil {
			first = out
		} else if d := firstLineDiff(first, out); d != "" {
			r.errorf(i, "%s (against run 0)", d)
			ok = false
		}
		if gold != nil {
			if d := firstLineDiff(gold, out); d != "" {
				r.errorf(i, "%s (against golden/npexp-figs.seed42.json)", d)
				ok = false
			}
		}
		return ms, ok, nil
	})
	r.rep.ExecRSSMB = median(rss)
	return err
}

// traceNpexp is npexp-figs' traced run: the fig7 coordinated scenario
// through the step loop, then every figure in-process with the runner's
// counters read around it. The in-process tables, encoded as npexp encodes
// them, must equal one exec'd sweep's stdout.
func traceNpexp(ctx context.Context, r *run, w simWorkload, gold []byte) error {
	m, err := traceSim(ctx, r, w, nil)
	if err != nil {
		return err
	}
	out, _, rss, err := execNpexp(ctx, r.cfg)
	if err != nil {
		return err
	}
	r.rep.ExecRSSMB = rss
	ok := true
	if gold != nil {
		if d := firstLineDiff(gold, out); d != "" {
			r.errorf(0, "%s (against golden/npexp-figs.seed42.json)", d)
			ok = false
		}
	}
	r.op(ok)

	type namedTables struct {
		Experiment string          `json:"experiment"`
		Tables     []*tables.Table `json:"tables"`
	}
	var all []namedTables
	before := runner.Stats()
	var wall int64
	for _, fig := range r.cfg.size.npexpFigs {
		start := r.prof.Now()
		tbl, err := experiments.RunExperiment(ctx, fig, experiments.WithTicks(r.cfg.size.npexpTicks),
			experiments.WithSeed(r.cfg.seed), experiments.WithParallelism(workers))
		end := r.prof.Now()
		r.prof.Record(0, "experiments."+fig, -1, start, end-start)
		if err != nil {
			return fmt.Errorf("%s: %w", fig, err)
		}
		wall += end - start
		m["experiments."+fig+"_s"] = float64(end-start) / 1e9
		all = append(all, namedTables{fig, tbl})
	}
	after := runner.Stats()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(all); err != nil {
		return err
	}
	ok = true
	if d := firstLineDiff(out, buf.Bytes()); d != "" {
		r.errorf(1, "in-process %s (against the exec'd sweep)", d)
		ok = false
	}
	r.op(ok)
	m["runner.busy_share"] = (after.BusySeconds - before.BusySeconds) / (float64(wall) / 1e9 * workers)
	if n := (after.CacheHits - before.CacheHits) + (after.CacheMisses - before.CacheMisses); n > 0 {
		m["runner.cache_hit_ratio"] = float64(after.CacheHits-before.CacheHits) / float64(n)
	}
	for k, v := range m {
		r.rep.Metrics[k] = v
	}
	return nil
}
