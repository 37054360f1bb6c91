// Command npckpt inspects nopower checkpoint files.
//
// Usage:
//
//	npckpt info <file>       print metadata and per-component sizes
//	npckpt validate <file>   verify magic, version, checksum, and decodability
//	npckpt diff <a> <b>      compare two snapshots component by component
//
// diff exits 0 when the snapshots are identical, 1 when they differ, and 2
// on any error; info and validate exit 0 on success and 1 on failure.
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"nopower/internal/checkpoint"
	"nopower/internal/sim"
	"nopower/internal/state"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI; split from main for testability.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "info":
		if len(args) != 2 {
			usage(stderr)
			return 2
		}
		return info(args[1], stdout, stderr)
	case "validate":
		if len(args) != 2 {
			usage(stderr)
			return 2
		}
		return validate(args[1], stdout, stderr)
	case "diff":
		if len(args) != 3 {
			usage(stderr)
			return 2
		}
		return diff(args[1], args[2], stdout, stderr)
	}
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: npckpt info <file> | validate <file> | diff <a> <b>")
}

func info(path string, stdout, stderr io.Writer) int {
	f, err := checkpoint.Read(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st, _ := os.Stat(path)
	fmt.Fprintf(stdout, "file        %s (%d bytes)\n", path, st.Size())
	fmt.Fprintf(stdout, "experiment  %s\n", f.Meta.Experiment)
	fmt.Fprintf(stdout, "tick        %d\n", f.Meta.Tick)
	fmt.Fprintf(stdout, "mid-tick    %v", f.Meta.MidTick)
	if f.Meta.MidTick {
		fmt.Fprint(stdout, "  (checkpoint-on-panic post-mortem; not resumable)")
	}
	fmt.Fprintln(stdout)
	if f.Meta.CreatedUnix != 0 {
		fmt.Fprintf(stdout, "created     %s\n", time.Unix(f.Meta.CreatedUnix, 0).UTC().Format(time.RFC3339))
	}
	if len(f.Meta.Labels) > 0 {
		keys := make([]string, 0, len(f.Meta.Labels))
		for k := range f.Meta.Labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(stdout, "labels      ")
		for i, k := range keys {
			if i > 0 {
				fmt.Fprint(stdout, " ")
			}
			fmt.Fprintf(stdout, "%s=%s", k, f.Meta.Labels[k])
		}
		fmt.Fprintln(stdout)
	}
	s := f.State
	fmt.Fprintf(stdout, "cluster     %d servers, %d enclosures, %d VMs\n",
		len(s.Cluster.Servers), len(s.Cluster.Enclosures), len(s.Cluster.VMs))
	fmt.Fprintf(stdout, "controllers %d\n", len(s.Controllers))
	for _, c := range s.Controllers {
		fmt.Fprintf(stdout, "  %-10s %6d bytes\n", c.Name, len(c.Data))
	}
	if len(s.Aux) > 0 {
		fmt.Fprintf(stdout, "aux         %d\n", len(s.Aux))
		for _, c := range s.Aux {
			fmt.Fprintf(stdout, "  %-10s %6d bytes\n", c.Name, len(c.Data))
		}
	}
	fmt.Fprintf(stdout, "collector   %6d bytes\n", len(s.Collector))
	disabled := 0
	for _, d := range s.Disabled {
		if d {
			disabled++
		}
	}
	if disabled > 0 {
		fmt.Fprintf(stdout, "disabled    %d controllers (degraded mode)\n", disabled)
	}
	return 0
}

func validate(path string, stdout, stderr io.Writer) int {
	f, err := checkpoint.Read(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	kind := "resumable checkpoint"
	if f.Meta.MidTick {
		kind = "mid-tick post-mortem (not resumable)"
	}
	fmt.Fprintf(stdout, "%s: valid %s at tick %d (version %d)\n", path, kind, f.Meta.Tick, checkpoint.Version)
	return 0
}

// componentDelta names one snapshot component that differs between two files.
type componentDelta struct {
	kind, name string
}

func diff(pathA, pathB string, stdout, stderr io.Writer) int {
	fa, err := checkpoint.Read(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fb, err := checkpoint.Read(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	deltas, err := snapshotDiff(fa.State, fb.State)
	if err != nil {
		fmt.Fprintln(stderr, "diff:", err)
		return 2
	}
	if len(deltas) == 0 {
		fmt.Fprintf(stdout, "identical: %s == %s (tick %d)\n", pathA, pathB, fa.State.Tick)
		return 0
	}
	fmt.Fprintf(stdout, "differ: %s vs %s (%d components)\n", pathA, pathB, len(deltas))
	for _, d := range deltas {
		fmt.Fprintf(stdout, "  %-11s %s\n", d.kind, d.name)
	}
	return 1
}

// snapshotDiff compares two snapshots component by component. The cluster
// state is re-encoded here, in one process, so equal plant state compares
// equal whichever binaries wrote the files. The other blobs are compared as
// written: gob encodings of map-free structs, in which equal state gives
// equal bytes when one binary wrote both files. gob numbers types per
// binary (see package state), so files from two different binaries can differ
// in a blob whose state is equal.
func snapshotDiff(a, b *sim.Snapshot) ([]componentDelta, error) {
	var deltas []componentDelta
	if a.Tick != b.Tick {
		deltas = append(deltas, componentDelta{"engine", fmt.Sprintf("tick %d vs %d", a.Tick, b.Tick)})
	}
	if a.MidTick != b.MidTick {
		deltas = append(deltas, componentDelta{"engine", "mid-tick flag"})
	}
	ca, err := state.Marshal(a.Cluster)
	if err != nil {
		return nil, err
	}
	cb, err := state.Marshal(b.Cluster)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(ca, cb) {
		deltas = append(deltas, componentDelta{"cluster", "plant state"})
	}
	deltas = append(deltas, componentsDiff("controller", a.Controllers, b.Controllers)...)
	deltas = append(deltas, componentsDiff("aux", a.Aux, b.Aux)...)
	if !bytes.Equal(a.Collector, b.Collector) {
		deltas = append(deltas, componentDelta{"collector", "metrics collector"})
	}
	if fmt.Sprint(a.Disabled) != fmt.Sprint(b.Disabled) ||
		fmt.Sprint(a.FailsafeBroken) != fmt.Sprint(b.FailsafeBroken) {
		deltas = append(deltas, componentDelta{"engine", "fault bookkeeping"})
	}
	return deltas, nil
}

// componentsDiff aligns two component lists by name and reports blobs that
// differ, plus components present on one side only.
func componentsDiff(kind string, as, bs []sim.Component) []componentDelta {
	var deltas []componentDelta
	bByName := make(map[string][]byte, len(bs))
	for _, c := range bs {
		bByName[c.Name] = c.Data
	}
	seen := make(map[string]bool, len(as))
	for _, c := range as {
		seen[c.Name] = true
		data, ok := bByName[c.Name]
		if !ok {
			deltas = append(deltas, componentDelta{kind, c.Name + " (only in first)"})
			continue
		}
		if !bytes.Equal(c.Data, data) {
			deltas = append(deltas, componentDelta{kind, c.Name})
		}
	}
	for _, c := range bs {
		if !seen[c.Name] {
			deltas = append(deltas, componentDelta{kind, c.Name + " (only in second)"})
		}
	}
	return deltas
}
