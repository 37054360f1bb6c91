// Package testutil provides shared fixtures for controller and integration
// tests: small clusters with deterministic flat or scripted workloads.
package testutil

import (
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/model"
	"nopower/internal/trace"
)

// Flat returns a constant-demand trace of the given length.
func Flat(name string, ticks int, level float64) *trace.Trace {
	d := make([]float64, ticks)
	for i := range d {
		d[i] = level
	}
	return trace.New(name, "flat", d)
}

// FlatSet returns n identical constant-demand traces.
func FlatSet(n, ticks int, level float64) *trace.Set {
	s := &trace.Set{Name: "flat"}
	for i := 0; i < n; i++ {
		s.Traces = append(s.Traces, Flat("w", ticks, level))
	}
	return s
}

// Config is the default small-cluster configuration: BladeA hardware and the
// paper's base 20-15-10 budgets.
func Config(enclosures, blades, standalone int) cluster.Config {
	return cluster.Config{
		Enclosures:         enclosures,
		BladesPerEnclosure: blades,
		Standalone:         standalone,
		Model:              model.BladeA(),
		CapOffGrp:          0.20,
		CapOffEnc:          0.15,
		CapOffLoc:          0.10,
		AlphaV:             0.10,
		AlphaM:             0.10,
		MigrationTicks:     5,
	}
}

// Cluster builds a cluster or fails the test.
func Cluster(t *testing.T, cfg cluster.Config, set *trace.Set) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.New(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// StandaloneCluster is the common one-liner: n standalone BladeA servers
// with one flat workload each.
func StandaloneCluster(t *testing.T, n, ticks int, level float64) *cluster.Cluster {
	t.Helper()
	return Cluster(t, Config(0, 0, n), FlatSet(n, ticks, level))
}

// EnclosureCluster builds enclosures*blades servers in enclosures plus
// standalone ones, all with flat demand.
func EnclosureCluster(t *testing.T, enclosures, blades, standalone, ticks int, level float64) *cluster.Cluster {
	t.Helper()
	n := enclosures*blades + standalone
	return Cluster(t, Config(enclosures, blades, standalone), FlatSet(n, ticks, level))
}
