// Command npexp reproduces the paper's evaluation artifacts. Each named
// experiment regenerates one table or figure (see DESIGN.md §4 for the
// index); "all" runs the full evaluation and prints every artifact,
// -markdown renders GitHub-flavored tables suitable for EXPERIMENTS.md, and
// -json emits one machine-readable document.
//
// The table experiments among the named ones run as one sweep
// (experiments.RunExperiments) when the first of them comes up: each
// distinct run and baseline of the batch once. Independent simulation jobs
// fan out across a worker pool: -parallel bounds the workers (default
// GOMAXPROCS), -timeout cancels the whole batch, and the tables are
// byte-identical at any parallelism level. Each experiment's tables print
// in the order named.
//
// Usage:
//
//	npexp [-ticks N] [-seed S] [-parallel P] [-timeout D] [-markdown|-json] <experiment>...|all|list
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"nopower/internal/experiments"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/report"
	"nopower/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		ticks     = fs.Int("ticks", experiments.DefaultTicks, "simulation length per run in ticks")
		seed      = fs.Int64("seed", 42, "trace/policy seed")
		parallel  = fs.Int("parallel", 0, "max concurrent simulation jobs (0 = GOMAXPROCS, 1 = serial)")
		shards    = fs.Int("shards", 0, "goroutines per simulation tick inside each job (0 = serial; results are bit-identical at any value)")
		timeout   = fs.Duration("timeout", 0, "cancel the batch after this duration (0 = none)")
		markdown  = fs.Bool("markdown", false, "render Markdown tables")
		jsonOut   = fs.Bool("json", false, "emit one JSON document with every table")
		quiet     = fs.Bool("q", false, "suppress progress output (errors still print)")
		verbose   = fs.Int("v", 0, "log verbosity: 0 = progress, 1+ = per-experiment runner detail")
		httpAddr  = fs.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address for the batch's duration (e.g. :8080)")
		resumeDir = fs.String("resume-dir", "", "persist finished experiments into this directory and skip them on rerun (resumable batches)")
		timeline  = fs.String("timeline", "", "write a Chrome trace-event timeline of every simulation's internal phases to this path (open in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	verbosity := *verbose
	if *quiet {
		verbosity = -1
	}
	logger := obs.NewLogger(stderr, verbosity)
	if fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	if fs.Arg(0) == "list" {
		for _, name := range experiments.Names() {
			fmt.Fprintf(stdout, "  %-12s %s\n", name, experiments.Describe(name))
		}
		return 0
	}

	var names []string
	for _, arg := range fs.Args() {
		if arg == "all" {
			names = append(names, experiments.Names()...)
			continue
		}
		names = append(names, arg)
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *httpAddr != "" {
		runner.RegisterMetrics(obs.Default)
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			logger.Error("http endpoint failed", "err", err)
			return 1
		}
		defer srv.Close()
		logger.Info("observability endpoint up",
			"addr", srv.Addr.String(), "paths", "/metrics /healthz /debug/pprof/")
	}

	// Experiments build their scenarios internally, so the shard count
	// reaches every run (baselines, chaos runs) as the process default.
	experiments.SetDefaultShards(*shards)
	var profiler *prof.Profiler
	if *timeline != "" {
		profiler = prof.New(0)
		experiments.SetDefaultProfiler(profiler)
	}
	opts := []experiments.Option{
		experiments.WithTicks(*ticks),
		experiments.WithSeed(*seed),
		experiments.WithParallelism(*parallel),
	}
	// Resumable batches: each settled experiment's tables persist in a slot
	// store keyed by (name, ticks, seed), so a rerun after a kill or failure
	// skips everything already done.
	var store *runner.SlotStore[[]*report.Table]
	if *resumeDir != "" {
		if err := os.MkdirAll(*resumeDir, 0o755); err != nil {
			logger.Error("resume dir", "err", err)
			return 1
		}
		var err error
		store, err = runner.OpenSlotStore[[]*report.Table](filepath.Join(*resumeDir, "experiments.json"))
		if err != nil {
			logger.Error("resume store", "err", err)
			return 1
		}
		if store.Len() > 0 {
			logger.Info("resumable batch", "settled", store.Len())
		}
	}
	slotKey := func(name string) string {
		return fmt.Sprintf("%s@t=%d,s=%d", name, *ticks, *seed)
	}

	type namedTables struct {
		Experiment string          `json:"experiment"`
		Tables     []*report.Table `json:"tables"`
	}
	var all []namedTables
	// Settled experiments come from the store. The table experiments still
	// to run are one sweep (experiments.RunExperiments), made when the first
	// of them comes up; every other experiment runs on its own. Each is
	// stored as soon as it has its tables, so a kill or a failure loses
	// only the work in flight.
	tables := make([][]*report.Table, len(names))
	fromStore := make([]bool, len(names))
	var swept []int // the table experiments to run, by index in names
	for i, name := range names {
		if store != nil {
			var err error
			tables[i], fromStore[i], err = store.Get(slotKey(name))
			if err != nil {
				logger.Error("resume store", "experiment", name, "err", err)
				return 1
			}
		}
		if !fromStore[i] && experiments.IsTable(name) {
			swept = append(swept, i)
		}
	}
	batchStart := time.Now()
	batchJobs := runner.JobCount()
	for i, name := range names {
		start := time.Now()
		jobs := runner.JobCount()
		switch {
		case fromStore[i]:
			logger.Info("experiment resumed from store", "experiment", name)
		case tables[i] == nil:
			batch := []int{i}
			if experiments.IsTable(name) {
				batch = swept
			}
			batchNames := make([]string, len(batch))
			for k, j := range batch {
				batchNames[k] = names[j]
			}
			label := strings.Join(batchNames, " ")
			ran, err := experiments.RunExperiments(ctx, batchNames, opts...)
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					logger.Error("experiment timed out", "experiment", label, "timeout", *timeout)
				} else {
					logger.Error("experiment failed", "experiment", label, "err", err)
				}
				return 1
			}
			for k, j := range batch {
				tables[j] = ran[k]
				if store != nil {
					if err := store.Put(slotKey(names[j]), tables[j]); err != nil {
						logger.Error("resume store", "experiment", names[j], "err", err)
						return 1
					}
				}
			}
			logger.Info("experiment done",
				"experiment", label,
				"secs", fmt.Sprintf("%.1f", time.Since(start).Seconds()),
				"jobs", runner.JobCount()-jobs,
				"parallel", runner.Parallelism(*parallel))
		}
		if verbosity >= 1 {
			stats := runner.Stats()
			logger.Debug("runner pool",
				"jobs_started", stats.JobsStarted, "jobs_done", stats.JobsDone,
				"cache_hits", stats.CacheHits, "cache_misses", stats.CacheMisses)
		}
		if *jsonOut {
			all = append(all, namedTables{Experiment: name, Tables: tables[i]})
			continue
		}
		for _, t := range tables[i] {
			if *markdown {
				fmt.Fprintln(stdout, t.Markdown())
			} else {
				fmt.Fprintln(stdout, t.String())
			}
		}
	}
	if len(names) > 1 {
		logger.Info("batch done",
			"wall_secs", fmt.Sprintf("%.1f", time.Since(batchStart).Seconds()),
			"jobs", runner.JobCount()-batchJobs)
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			logger.Error("json encode failed", "err", err)
			return 1
		}
	}
	if profiler != nil {
		f, err := os.Create(*timeline)
		if err != nil {
			logger.Error("timeline", "err", err)
			return 1
		}
		if err := profiler.WriteChromeTrace(f); err != nil {
			f.Close()
			logger.Error("timeline", "err", err)
			return 1
		}
		if err := f.Close(); err != nil {
			logger.Error("timeline", "err", err)
			return 1
		}
		logger.Info("timeline written", "spans", profiler.Len(),
			"dropped", profiler.Dropped(), "path", *timeline)
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: npexp [-ticks N] [-seed S] [-parallel P] [-timeout D] [-markdown|-json] <experiment>...|all|list")
	fmt.Fprintln(w, "experiments:")
	for _, name := range experiments.Names() {
		fmt.Fprintf(w, "  %-12s %s\n", name, experiments.Describe(name))
	}
}
