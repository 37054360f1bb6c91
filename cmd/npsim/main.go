// Command npsim runs one power-management simulation and prints the
// evaluation metrics: average/peak power, savings versus the
// no-management baseline, performance loss, and budget-violation rates at
// the server/enclosure/group levels.
//
// Usage:
//
//	npsim -model BladeA -mix 180 -stack coordinated -ticks 3000
//	npsim -traces mine.csv -stack vmlevel -series out.csv
//	npsim -chaos sm-crash -fault-policy degrade
//	npsim -checkpoint-dir ckpt -checkpoint-every 500       # crash-safe run
//	npsim -checkpoint-dir ckpt -resume                     # continue it
//	npsim -shards 8 -timeline run.json                     # phase timeline (Perfetto) + phase table
//	npsim -facility -mix aiburst -series fac.csv           # facility co-simulation + PUE
//	npsim -profiles arm-microblade:3,serverb:1 -mix hetero # heterogeneous fleet
//
// Stacks: coordinated, uncoordinated, novmc, vmconly, apprutil, nofeedback,
// nobudgets, vmlevel, energydelay, slo, facility, none.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"nopower/internal/checkpoint"
	"nopower/internal/controllers/fm"
	"nopower/internal/core"
	"nopower/internal/experiments"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/obs/prof"
	"nopower/internal/runner"
	"nopower/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var spec experiments.RunSpec
	bindRunFlags(fs, &spec)
	var (
		series    = fs.String("series", "", "write a per-tick time-series CSV to this path")
		stride    = fs.Int("series-stride", 1, "record every Nth tick in the series")
		traceFile = fs.String("traces", "", "load workloads from a CSV (nptrace format) instead of generating -mix")
		timeout   = fs.Duration("timeout", 0, "cancel the simulation after this duration (0 = none)")
		verbose   = fs.Bool("v", false, "print scenario details")
		httpAddr  = fs.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address for the run's duration (e.g. :8080)")
		traceOut  = fs.String("trace", "", "write controller actuation events as NDJSON to this path")
		ckptDir   = fs.String("checkpoint-dir", "", "write crash-safe snapshots into this directory")
		ckptEvery = fs.Int("checkpoint-every", 500, "checkpoint interval in ticks (with -checkpoint-dir)")
		resume    = fs.Bool("resume", false, "resume from the latest checkpoint in -checkpoint-dir; the other flags must match the checkpointed run")
		timeline  = fs.String("timeline", "", "write a Chrome trace-event timeline of the run's internal phases to this path (open in Perfetto) and log each phase's count, mean and total")
		tlCap     = fs.Int("timeline-cap", 0, "span ring capacity for -timeline (0 = default; oldest spans are overwritten when full)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// The flags default to 20-15-10, so an all-zero triple was typed out;
	// a run spec would read it as 20-15-10 and run that silently.
	if spec.CapGrp == 0 && spec.CapEnc == 0 && spec.CapLoc == 0 {
		fmt.Fprintln(stderr, "npsim: -cap-grp, -cap-enc and -cap-loc are all 0, which a run spec reads as the paper's 20-15-10; give at least one a nonzero headroom")
		return 2
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err == nil {
			spec.Traces, err = trace.ReadCSV(f, *traceFile)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, "traces:", err)
			return 1
		}
	}
	// chaos remembers the flag as given: -chaos fault-free normalizes away
	// but still prints the chaos lines.
	chaos := spec.Chaos
	spec = spec.Normalized()

	// The run is one run group: the baseline and the managed run share one
	// trace set.
	ctx := experiments.ShareTraces(context.Background())
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	logger := obs.NewLogger(stderr, 0)

	var o experiments.Observers
	if *httpAddr != "" {
		runner.RegisterMetrics(obs.Default)
		srv, err := obs.Serve(*httpAddr, obs.Default)
		if err != nil {
			fmt.Fprintln(stderr, "http:", err)
			return 1
		}
		defer srv.Close()
		o.Metrics = obs.Default
		logger.Info("observability endpoint up",
			"addr", srv.Addr.String(), "paths", "/metrics /healthz /debug/pprof/")
	}
	conflicts := obs.NewConflictDetector()
	var ndjson *obs.NDJSONWriter
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		defer f.Close()
		ndjson = obs.NewNDJSONWriter(f)
		o.Tracer = obs.Multi(ndjson, conflicts)
	}

	if *series != "" {
		o.Series = &metrics.Series{Stride: *stride}
	}
	var profiler *prof.Profiler
	if *timeline != "" {
		profiler = prof.New(*tlCap)
		o.Prof = profiler
	}
	// Capture the FM handle (nil when the spec has no facility loop) for the
	// facility summary lines after the run.
	var fmc *fm.Controller
	o.OnBuild = func(h *core.Handles) { fmc = h.FM }

	// The run-identity labels stamped into checkpoints and validated on
	// resume: the spec's canonical encoding plus the series stride, which
	// shapes the recorder a resumed run continues.
	labels := spec.Labels()
	labels["series-stride"] = fmt.Sprint(*stride)
	if *ckptDir != "" {
		o.Checkpoint = &checkpoint.Saver{
			Dir: *ckptDir, Every: *ckptEvery,
			Meta:     checkpoint.Meta{Experiment: "npsim", Labels: labels},
			Registry: o.Metrics,
		}
	}
	if *resume {
		if *ckptDir == "" {
			fmt.Fprintln(stderr, "resume: -resume requires -checkpoint-dir")
			return 2
		}
		path, err := checkpoint.Latest(*ckptDir)
		if err == nil && path == "" {
			err = fmt.Errorf("no checkpoint in %s", *ckptDir)
		}
		var f *checkpoint.File
		if err == nil {
			f, err = checkpoint.Read(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "resume:", err)
			return 1
		}
		if diff := labelDiff(f.Meta.Labels, labels); diff != "" {
			fmt.Fprintf(stderr, "resume: checkpoint %s was written by a different run: %s\n", path, diff)
			return 2
		}
		o.Resume = f
		logger.Info("resuming from checkpoint", "path", path, "tick", f.Meta.Tick)
	}
	baseline, err := experiments.BaselinePower(ctx, spec.Scenario())
	if err != nil {
		fmt.Fprintln(stderr, "baseline:", err)
		return 1
	}
	res, disabled, err := spec.Run(ctx, func() (float64, error) { return baseline, nil }, o)
	if err != nil {
		fmt.Fprintln(stderr, "run:", err)
		return 1
	}
	if o.Series != nil {
		if err := writeFile(*series, o.Series.WriteCSV); err != nil {
			fmt.Fprintln(stderr, "series:", err)
			return 1
		}
		logger.Info("series written", "samples", o.Series.Len(), "path", *series)
	}
	if profiler != nil {
		if err := writeFile(*timeline, profiler.WriteChromeTrace); err != nil {
			fmt.Fprintln(stderr, "timeline:", err)
			return 1
		}
		// Imbalance is the mean per-tick max/mean worker time of the
		// sharded plant advance; 0 means the run never sharded.
		logger.Info("timeline written", "spans", profiler.Len(), "dropped", profiler.Dropped(),
			"shard_imbalance", profiler.ShardImbalance(prof.PhaseShard), "path", *timeline)
		// Where the tick went: every recorded phase, largest total first.
		for _, st := range profiler.PhaseStats() {
			logger.Info("phase", "phase", st.Phase, "count", st.Count,
				"mean", st.Total/time.Duration(st.Count), "total", st.Total)
		}
	}
	if ndjson != nil {
		if err := ndjson.Err(); err != nil {
			fmt.Fprintln(stderr, "trace:", err)
			return 1
		}
		logger.Info("actuation trace written",
			"events", ndjson.Count(), "conflicts", conflicts.Count(), "path", *traceOut)
	}

	if *verbose {
		hw := "model=" + spec.Model
		if spec.Profiles != "" {
			hw = "profiles=" + spec.Profiles
		}
		fmt.Fprintf(stdout, "scenario: %s mix=%s budgets=%s ticks=%d seed=%d stack=%s policy=%s\n",
			hw, spec.Mix, spec.Scenario().Budgets.Label(), spec.Ticks, spec.Seed, spec.Stack, spec.Policy)
		if chaos != "" {
			policy, _ := spec.Fault()
			fmt.Fprintf(stdout, "chaos: %s (fault policy %s)\n", chaos, policy)
		}
		fmt.Fprintf(stdout, "baseline: %.0f W average (no power management)\n", baseline)
	}
	fmt.Fprintf(stdout, "avg power      %8.0f W\n", res.AvgPower)
	fmt.Fprintf(stdout, "peak power     %8.0f W\n", res.PeakPower)
	fmt.Fprintf(stdout, "power savings  %8.1f %%\n", 100*res.PowerSavings)
	fmt.Fprintf(stdout, "perf loss      %8.1f %%\n", 100*res.PerfLoss)
	fmt.Fprintf(stdout, "viol SM        %8.2f %%\n", 100*res.ViolSM)
	fmt.Fprintf(stdout, "viol EM        %8.2f %%\n", 100*res.ViolEM)
	fmt.Fprintf(stdout, "viol GM        %8.2f %%\n", 100*res.ViolGM)
	fmt.Fprintf(stdout, "servers on     %8.1f\n", res.AvgServersOn)
	if fmc != nil {
		s := fmc.Sample()
		budget, feed := fmc.Budget()
		viol, _ := fmc.DrainViolations()
		fmt.Fprintf(stdout, "facility power %8.0f W\n", s.TotalW)
		fmt.Fprintf(stdout, "cooling power  %8.0f W\n", s.CoolingW)
		fmt.Fprintf(stdout, "PUE            %8.3f\n", s.PUE)
		fmt.Fprintf(stdout, "IT budget      %8.0f W  (feed %.0f W)\n", budget, feed)
		fmt.Fprintf(stdout, "feed viol      %8d ticks\n", viol)
	}
	if chaos != "" {
		fmt.Fprintf(stdout, "disabled ctrls %8d\n", disabled)
	}
	return 0
}

// bindRunFlags binds npsim's run flags to spec: every flag that says what
// is simulated, as opposed to how the run is observed or persisted.
func bindRunFlags(fs *flag.FlagSet, spec *experiments.RunSpec) {
	fs.StringVar(&spec.Model, "model", "", "hardware profile from the registry ("+strings.Join(model.Names(), ", ")+"; default BladeA)")
	fs.StringVar(&spec.Profiles, "profiles", "", "heterogeneous fleet distribution, e.g. bladea:3,rack-2u-32:1 (excludes -model)")
	fs.StringVar(&spec.Mix, "mix", "180", "workload mix: 180, 60L, 60M, 60H, 60HH, 60HHH, aiburst")
	fs.StringVar(&spec.Stack, "stack", "coordinated", "controller stack preset")
	fs.IntVar(&spec.Ticks, "ticks", experiments.DefaultTicks, "simulation length in ticks")
	fs.Int64Var(&spec.Seed, "seed", 42, "trace/policy seed")
	fs.Float64Var(&spec.CapGrp, "cap-grp", 0.20, "group budget headroom off max power")
	fs.Float64Var(&spec.CapEnc, "cap-enc", 0.15, "enclosure budget headroom off max power")
	fs.Float64Var(&spec.CapLoc, "cap-loc", 0.10, "local budget headroom off max power")
	fs.StringVar(&spec.Policy, "policy", "proportional", "EM/GM division policy")
	fs.BoolVar(&spec.NoOff, "no-off", false, "forbid powering idle machines down")
	fs.IntVar(&spec.MigrationTicks, "migration-ticks", 10, "migration penalty window")
	fs.Float64Var(&spec.AlphaM, "alpha-m", 0.10, "migration performance overhead")
	fs.StringVar(&spec.Chaos, "chaos", "", "inject a chaos scenario: "+strings.Join(experiments.ChaosCaseNames(), ", "))
	fs.StringVar(&spec.FaultPolicy, "fault-policy", "fail", "reaction to a controller panic: fail, degrade, propagate")
	fs.BoolVar(&spec.Facility, "facility", false, "co-simulate the facility (UPS/PDU losses, weather-derated cooling, PUE) with the FM budget above the GM")
	fs.Float64Var(&spec.FacilityFeedW, "facility-feed", 0, "utility feed capacity in W (0 = sized to carry the operator budget on an average day)")
	fs.IntVar(&spec.Shards, "shards", 1, "goroutines per simulation tick for the plant/EC advance (results are bit-identical at any value)")
}

// writeFile creates path and fills it with write, reporting the first
// error, the close included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// labelDiff names, in key order, every label whose value differs between a
// checkpoint's run and this one (a missing label reads as ""), and returns
// "" when none does.
func labelDiff(ckpt, run map[string]string) string {
	var diffs []string
	for _, labels := range []map[string]string{ckpt, run} {
		for k := range labels {
			if ckpt[k] != run[k] {
				diffs = append(diffs, fmt.Sprintf("%s=%q there, %q here", k, ckpt[k], run[k]))
			}
		}
	}
	slices.Sort(diffs)
	return strings.Join(slices.Compact(diffs), "; ")
}
