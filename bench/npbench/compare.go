package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// benchDef is the part of BENCHMARK.json compare needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// side is the untraced result files of one commit.
type side []resultFile

// values returns a side's numbers for one workload and metric. With several
// files they are each file's median, so their spread is the spread between
// runs; a single file gives its raw per-run samples instead.
func (s side) values(workload, metric string) []float64 {
	var vs []float64
	for _, f := range s {
		for _, w := range f.Workloads {
			if w.Workload != workload {
				continue
			}
			if len(s) == 1 {
				return w.Samples[metric]
			}
			if v, ok := w.Metrics[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// failedFrac is a side's failed operations over attempted ones for one
// workload.
func (s side) failedFrac(workload string) float64 {
	attempted, failed := 0, 0
	for _, f := range s {
		for _, w := range f.Workloads {
			if w.Workload == workload {
				attempted += w.Attempted
				failed += w.Failed
			}
		}
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// compareRow is one (workload, metric) verdict.
type compareRow struct {
	Workload, Metric string
	A, B             float64 // each side's median
	NA, NB           int     // how many values each side has
	SpreadA, SpreadB float64 // each side's quartile distance over its median
	Change           float64 // worsening of B against A as a share of A; negative is better
	Bound            float64
	Verdict          string
}

// compareResults applies the bounds to two sides, one row per workload of
// a and end-to-end metric. A row is unresolved when a side has fewer than
// two values, or when either side's spread exceeds the bound and not every
// value of b is better than every value of a. Otherwise it is regressed
// when b's median is worse than a's by more than the bound, improved when
// better by more than the bound, and unchanged in between. One more row per
// workload compares the failed share: any increase regresses.
func compareResults(def benchDef, a, b side) []compareRow {
	var rows []compareRow
	for _, ra := range a[0].Workloads {
		name := ra.Workload
		for _, m := range def.EndToEnd {
			va, vb := a.values(name, m.Name), b.values(name, m.Name)
			row := compareRow{Workload: name, Metric: m.Name, Bound: m.Bound, A: median(va), B: median(vb),
				NA: len(va), NB: len(vb), Verdict: "unresolved"}
			if len(va) < 2 || len(vb) < 2 || row.A == 0 {
				rows = append(rows, row)
				continue
			}
			row.SpreadA, row.SpreadB = spread(va), spread(vb)
			row.Change = (row.B - row.A) / row.A
			separated := maxOf(vb) < minOf(va) // every value of b better than every value of a
			if m.Better == "higher" {
				row.Change = -row.Change
				separated = minOf(vb) > maxOf(va)
			}
			switch {
			case (row.SpreadA > m.Bound || row.SpreadB > m.Bound) && !separated:
			case row.Change > m.Bound:
				row.Verdict = "regressed"
			case row.Change < -m.Bound:
				row.Verdict = "improved"
			default:
				row.Verdict = "unchanged"
			}
			rows = append(rows, row)
		}
		row := compareRow{Workload: name, Metric: "failed_frac", A: a.failedFrac(name), B: b.failedFrac(name), Verdict: "unchanged"}
		row.Change = row.B - row.A
		if row.B > row.A {
			row.Verdict = "regressed"
		}
		rows = append(rows, row)
	}
	return rows
}

func minOf(xs []float64) float64 { return sorted(xs)[0] }
func maxOf(xs []float64) float64 { return sorted(xs)[len(xs)-1] }

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readSide reads a comma-separated list of untraced result files.
func readSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		var f resultFile
		if err := readJSON(path, &f); err != nil {
			return nil, err
		}
		if f.Provenance.Trace {
			return nil, fmt.Errorf("%s: a traced result file carries no end-to-end metrics", path)
		}
		s = append(s, f)
	}
	return s, nil
}

// compareCmd is "npbench compare a.json[,a2.json...] b.json[,b2.json...]":
// one row per (workload, metric), exit 1 on any regression.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: npbench compare [-bench BENCHMARK.json] a.json[,a2.json...] b.json[,b2.json...]")
		return 2
	}
	var def benchDef
	if err := readJSON(*benchPath, &def); err != nil {
		fmt.Fprintf(stderr, "npbench compare: %v\n", err)
		return 2
	}
	var sides [2]side
	for i := range sides {
		s, err := readSide(fs.Arg(i))
		if err != nil {
			fmt.Fprintf(stderr, "npbench compare: %v\n", err)
			return 2
		}
		sides[i] = s
	}
	rows := compareResults(def, sides[0], sides[1])
	fmt.Fprintf(stdout, "%-20s %-12s %14s %4s %7s %14s %4s %7s %8s %6s  %s\n",
		"workload", "metric", "a", "n", "spread", "b", "n", "spread", "change", "bound", "verdict")
	regressed := false
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-20s %-12s %14.4f %4d %7.3f %14.4f %4d %7.3f %+7.1f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.A, r.NA, r.SpreadA, r.B, r.NB, r.SpreadB, 100*r.Change, 100*r.Bound, r.Verdict)
		regressed = regressed || r.Verdict == "regressed"
	}
	if regressed {
		return 1
	}
	return 0
}
