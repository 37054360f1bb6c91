// Command npbench is the repository benchmark. It runs four workloads,
// each stressing a different layer of the simulator, each in a fresh child
// process of itself, times them end to end with tracing off, and checks
// every output for correctness. With -trace 1 it makes a separate traced
// run instead and reports the time per layer.
//
// Usage:
//
//	npbench [-workload W[,W...]] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	npbench compare [-bench BENCHMARK.json] a.json[,a2.json...] b.json[,b2.json...]
//
// npbench.sh next to this file builds npbench and npexp from the checkout and
// runs it from the repository root. Every line but the last on standard
// output is "workload metric value unit"; the last is one JSON object with
// the keys correct, attempted, failed and metrics. A result file with
// provenance and the raw per-run samples lands in -out. The exit code is 0
// only when every check passed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// childTimeout bounds one workload child, so that a command running a
// single workload ends within three minutes. Children run one after
// another; a command naming several workloads may take that long for each.
const childTimeout = 170 * time.Second

func cli(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("npbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seed     = fs.Int64("seed", goldenSeed, "seed of every generated input")
		seconds  = fs.Int("seconds", 20, "measurement window per workload in seconds")
		trace    = fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
		out      = fs.String("out", filepath.Join(".bench_build", "npbench"), "directory for result files, traces and job directories")
		npexp    = fs.String("npexp", "", "npexp binary (default: npexp next to this executable)")
		child    = fs.String("child", "", "run one workload in this process and write its report to -out (used by the parent)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "npbench: unexpected arguments %q; name workloads with -workload\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "npbench: -trace must be 0 or 1, not %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "npbench: -seconds must be at least 1\n")
		return 2
	}
	if *npexp == "" {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "npbench: %v\n", err)
			return 1
		}
		*npexp = filepath.Join(filepath.Dir(exe), "npexp")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "npbench: %v\n", err)
		return 1
	}
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		out:     *out,
		npexp:   *npexp,
		size:    fullSize,
		golden:  *seed == goldenSeed,
	}
	if *child != "" {
		return runChild(*child, cfg, stderr)
	}

	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	for _, n := range names {
		if _, ok := lookupWorkload(n); !ok {
			fmt.Fprintf(stderr, "npbench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	res := resultFile{Schema: 1, Provenance: newProvenance(cfg)}
	for _, n := range names {
		rep, err := spawn(n, cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "npbench: %s: %v\n", n, err)
			return 1
		}
		res.Workloads = append(res.Workloads, rep)
	}
	return finish(res, names, cfg, stdout, stderr)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.name)
	}
	return names
}

// reportPath is where a workload child leaves its report for the parent.
func reportPath(cfg config, name string) string {
	return filepath.Join(cfg.out, name+".report.json")
}

// runChild runs one workload in this process and writes its report.
func runChild(name string, cfg config, stderr io.Writer) int {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout-10*time.Second)
	defer cancel()
	rep, err := runWorkload(ctx, name, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "npbench: %v\n", err)
		return 1
	}
	data, err := json.Marshal(rep)
	if err == nil {
		err = os.WriteFile(reportPath(cfg, name), data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "npbench: write report: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one workload in a fresh child process — so peak RSS, the
// experiments baseline cache and the runner counters never leak between
// workloads — and returns its report with peak_rss_mb filled in.
func spawn(name string, cfg config, stderr io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	path := reportPath(cfg, name)
	_ = os.Remove(path) // a stale report must not pass for this run's
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", name,
		"-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(int(cfg.seconds/time.Second)), "-trace", traceArg(cfg),
		"-out", cfg.out, "-npexp", cfg.npexp)
	cmd.Stdout, cmd.Stderr = stderr, stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("child report: %w", err)
	}
	rss := maxRSSMB(cmd.ProcessState)
	if rep.ExecRSSMB > 0 {
		rss = rep.ExecRSSMB
	}
	rep.Metrics["peak_rss_mb"] = rss
	rep.Samples["peak_rss_mb"] = []float64{rss}
	return &rep, nil
}

// resultFile is what -out receives: everything a later comparison needs.
type resultFile struct {
	Schema     int        `json:"schema"`
	Provenance provenance `json:"provenance"`
	Workloads  []*report  `json:"workloads"`
}

type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Started    string `json:"started"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds / time.Second),
		Trace:      cfg.trace,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit reads the commit checked out in the working directory's .git;
// "unknown" without one (the benchmark may run from an exported checkout).
// It reads the files itself rather than asking git, which would search the
// parent directories.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, _ := os.ReadFile(filepath.Join(".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// finish prints every metric, the failures, the result file and the final
// JSON line, and returns the exit code.
func finish(res resultFile, names []string, cfg config, stdout, stderr io.Writer) int {
	table := endToEnd
	if cfg.trace {
		table = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, rep := range res.Workloads {
		for k, v := range rep.Metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				rep.Errors = append(rep.Errors, fmt.Sprintf("%s: metric %s is %v", rep.Workload, k, v))
				rep.Correct = false
				rep.Metrics[k] = 0
			}
		}
		for _, m := range table {
			key := m.Name
			if len(res.Workloads) > 1 {
				key = rep.Workload + "." + m.Name
			}
			line.Metrics[key] = value{rep.Metrics[m.Name], m.Unit}
		}
		for _, t := range [][]metricDef{table, extras} {
			for _, m := range t {
				if v, ok := rep.Metrics[m.Name]; ok {
					fmt.Fprintf(stdout, "%-20s %-28s %16.6f %s\n", rep.Workload, m.Name, v, m.Unit)
				}
			}
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(stderr, "FAIL %s\n", e)
		}
		line.Correct = line.Correct && rep.Correct
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
	}
	stem := "all"
	if len(names) == 1 {
		stem = names[0]
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%s.json", stem, cfg.seed, traceArg(cfg)))
	data, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "npbench: write result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "npbench: result file %s\n", path)
	if err := json.NewEncoder(stdout).Encode(line); err != nil {
		fmt.Fprintf(stderr, "npbench: %v\n", err)
		return 1
	}
	if !line.Correct || line.Failed > 0 {
		return 1
	}
	return 0
}

// traceArg renders the trace mode as the -trace flag spells it.
func traceArg(cfg config) string {
	if cfg.trace {
		return "1"
	}
	return "0"
}
