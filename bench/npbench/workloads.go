package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"nopower/internal/obs/prof"
)

// sizes scales every workload. fullSize is the benchmark; tests run a toy
// size through the same code.
type sizes struct {
	fleetServers, fleetTicks int
	facServers, facTicks     int
	npexpTicks               int
	npexpFigs                []string
	serveTicks               int // ticks of an npserved job and of the cold-start job
}

// fullSize: the fleet run is 100 ticks. The facility run is 3000 ticks on
// 2500 servers: most of its cost is the VMC epochs at ticks 500, 1000, …
// 2500, whose sum differs by up to two fifths between seeds, so eight
// scenarios a window keep the seed from moving the median (at 10000 servers
// one 5 s epoch was the run, a single sample per run). The npexp
// sweep is the paper's four figures at 1000 ticks, under a second, so a
// window holds about twenty sweeps. npserved jobs are the README's 3000
// ticks.
var fullSize = sizes{
	fleetServers: 100000, fleetTicks: 100,
	facServers: 2500, facTicks: 3000,
	npexpTicks: 1000, npexpFigs: []string{"fig7", "fig8", "fig9", "fig10"},
	serveTicks: 3000,
}

// workers bounds every workload's parallelism: shards, npexp -parallel, and
// npserved's pool.
const workers = 2

// config is one child's invocation.
type config struct {
	seed    int64
	seconds time.Duration // measurement window
	trace   bool
	out     string // directory for job dirs, reports and Chrome traces
	npexp   string // npexp binary
	size    sizes
	golden  bool // seed 42 at full size: compare against golden/
}

// report is what a workload child hands its parent.
type report struct {
	Workload  string               `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Errors    []string             `json:"errors,omitempty"`
	Runs      map[string]int       `json:"runs"`
	Samples   map[string][]float64 `json:"samples"`
	Metrics   map[string]float64   `json:"metrics"`
	// ExecRSSMB is the median peak RSS of the processes the workload
	// executed (the npexp sweeps); the parent reports it as peak_rss_mb in
	// place of its own child's. The largest of them moved by a tenth
	// between runs with the collector's timing.
	ExecRSSMB float64 `json:"exec_rss_mb,omitempty"`
}

// run is one workload execution in progress.
type run struct {
	cfg  config
	name string
	rep  *report
	prof *prof.Profiler // nil when untraced
	gold goldenSet
}

func newRun(name string, cfg config) (*run, error) {
	r := &run{cfg: cfg, name: name, rep: &report{
		Workload: name, Correct: true,
		Runs: map[string]int{}, Samples: map[string][]float64{}, Metrics: map[string]float64{},
	}}
	if cfg.trace {
		r.prof = prof.New(0)
	}
	if cfg.golden {
		g, err := loadGoldens()
		if err != nil {
			return nil, err
		}
		r.gold = g
	}
	return r, nil
}

// workloadDef is one benchmark workload; why is recorded in BENCHMARK.json.
type workloadDef struct {
	name string
	run  func(ctx context.Context, r *run) error
}

var workloadDefs = []workloadDef{
	{"fleet100k-sharded", func(ctx context.Context, r *run) error { return runSim(ctx, r, fleetWorkload(r.cfg)) }},
	{"facility2500-aiburst", func(ctx context.Context, r *run) error { return runSim(ctx, r, facilityWorkload(r.cfg)) }},
	{"npexp-figs", runNpexp},
	{"npserved-fresh", runServeFresh},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runWorkload executes one workload in this process and returns its report;
// a returned error means the workload could not finish.
func runWorkload(ctx context.Context, name string, cfg config) (*report, error) {
	w, ok := lookupWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	r, err := newRun(name, cfg)
	if err != nil {
		return nil, err
	}
	if err := w.run(ctx, r); err != nil {
		r.errorf(-1, "%v", err)
		if r.rep.Failed == 0 {
			r.op(false)
		}
	}
	if r.prof != nil {
		if n := r.prof.Dropped(); n > 0 {
			r.errorf(-1, "the profiler dropped %d spans", n)
		}
		path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.trace.json", name, cfg.seed))
		if err := writeTrace(r.prof, path); err != nil {
			r.errorf(-1, "%v", err)
		}
	}
	return r.rep, nil
}

// writeTrace writes p's spans to path as Chrome trace-event JSON.
func writeTrace(p *prof.Profiler, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = p.WriteChromeTrace(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// errorf records a failed check, naming the workload and the run (op < 0:
// the workload as a whole).
func (r *run) errorf(op int, format string, args ...any) {
	where := r.name
	if op >= 0 {
		where += fmt.Sprintf(" run %d", op)
	}
	r.rep.Errors = append(r.rep.Errors, where+": "+fmt.Sprintf(format, args...))
	r.rep.Correct = false
}

// op counts one attempted operation.
func (r *run) op(ok bool) {
	r.rep.Attempted++
	if !ok {
		r.rep.Failed++
	}
}

// same checks got against want and records the first differing field.
func (r *run) same(op int, against string, want, got map[string]string) bool {
	if d := firstDiff(want, got); d != "" {
		r.errorf(op, "%s (against %s)", d, against)
		return false
	}
	return true
}

// golden returns the pinned output for key, nil when goldens do not apply.
func (r *run) golden(key string) map[string]string {
	if !r.cfg.golden {
		return nil
	}
	g := r.gold[r.name][key]
	if g == nil {
		r.errorf(-1, "golden/seed42.json has no entry %q", key)
	}
	return g
}

// repeat runs a set-up once untimed — a fresh process's first heap growth
// made that one up to twice as slow, which is not set-up work — then at
// least five times and until two seconds have passed (at most 200 times),
// recording each run's seconds as reported by fn. With three, the median
// of a one-second set-up moved by a fifth between runs.
func (r *run) repeat(fn func() (float64, error)) error {
	if _, err := fn(); err != nil {
		return fmt.Errorf("set-up warm-up: %w", err)
	}
	start := time.Now()
	for i := 0; i < 200 && (i < 5 || time.Since(start) < 2*time.Second); i++ {
		secs, err := fn()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		r.rep.Samples["setup_s"] = append(r.rep.Samples["setup_s"], secs)
	}
	r.rep.Runs["setup"] = len(r.rep.Samples["setup_s"])
	r.rep.Metrics["setup_s"] = median(r.rep.Samples["setup_s"])
	return nil
}

// timedOps runs op (which returns its measured milliseconds) until the
// measurement window is used: at least minOps times, and again only while
// the window has room for one more iteration of the median length so far.
func (r *run) timedOps(minOps int, op func(i int) (ms float64, ok bool, err error)) error {
	start := time.Now()
	var iters []float64
	for i := 0; i < minOps || time.Since(start)+time.Duration(median(iters)) <= r.cfg.seconds; i++ {
		t0 := time.Now()
		ms, ok, err := op(i)
		if err != nil {
			r.op(false)
			return fmt.Errorf("run %d: %w", i, err)
		}
		r.op(ok)
		r.rep.Samples["op_ms_p50"] = append(r.rep.Samples["op_ms_p50"], ms)
		iters = append(iters, float64(time.Since(t0)))
	}
	r.rep.Runs["ops"] = len(iters)
	r.rep.Metrics["op_ms_p50"] = median(r.rep.Samples["op_ms_p50"])
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
