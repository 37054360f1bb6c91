// Shard determinism: the sharded tick engine must be an execution knob and
// nothing else. These tests run the same scenario serially and at several
// shard counts — including under the race detector via `make race` — and
// require the collector's accumulated state to be byte-identical and every
// finalized metric to match at the Float64bits level.
package sim_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// shardTestCluster is the paper's 180-server layout (six 20-blade enclosures
// plus 60 standalone servers) over the Mix180 workload blend — big enough
// that every unit class (enclosure units, standalone chunks) is exercised.
func shardTestCluster(t *testing.T, ticks int) *cluster.Cluster {
	t.Helper()
	set, err := tracegen.BuildMix(tracegen.Mix180, ticks, 42)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Enclosures: 6, BladesPerEnclosure: 20, Standalone: 60,
		Model:     model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 10,
	}, set)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// shardCounts is the ladder under test: serial, minimal parallelism (which
// still spawns a worker goroutine, so the race detector sees the concurrent
// path even on one CPU), one shard per CPU, and one more shard than the
// cluster has units (the engine clamps its workers to the unit count).
func shardCounts(cl *cluster.Cluster) []int {
	counts := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	if n := len(cl.Units()) + 1; n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	return counts
}

// shardRun is one finished run's comparable state: the collector's
// accumulated state, the finalized metrics, and every controller's State
// bytes in stack order.
type shardRun struct {
	collector []byte
	result    metrics.Result
	names     []string
	ctls      [][]byte
}

// TestShardDeterminism runs the coordinated, uncoordinated and VM-level
// stacks at every shard count and requires bitwise-identical collector
// state, finalized metrics and controller state versus the serial run —
// controller state catches a sharded controller whose internal bookkeeping
// (an EC step count, say) drifts without touching the plant. `make race`
// runs exactly this test under -race: the determinism claim and the
// data-race claim are two halves of the same contract.
func TestShardDeterminism(t *testing.T) {
	const ticks = 300
	for _, name := range []string{"coordinated", "uncoordinated", "vmlevel"} {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) shardRun {
				t.Helper()
				cl := shardTestCluster(t, ticks)
				spec, err := core.SpecByName(name)
				if err != nil {
					t.Fatal(err)
				}
				spec.Seed = 42
				spec.Shards = shards
				eng, _, err := core.Build(cl, spec)
				if err != nil {
					t.Fatal(err)
				}
				col, err := eng.Run(ticks)
				if err != nil {
					t.Fatal(err)
				}
				r := shardRun{result: col.Finalize(0)}
				if r.collector, err = col.State(); err != nil {
					t.Fatal(err)
				}
				for _, c := range eng.Controllers {
					data, err := c.(sim.Snapshotter).State()
					if err != nil {
						t.Fatal(err)
					}
					r.names = append(r.names, c.Name())
					r.ctls = append(r.ctls, data)
				}
				return r
			}
			counts := shardCounts(shardTestCluster(t, ticks))
			ref := run(counts[0])
			for _, shards := range counts[1:] {
				got := run(shards)
				if !bytes.Equal(got.collector, ref.collector) {
					t.Errorf("shards=%d: collector state diverged from serial run", shards)
				}
				if d := ref.result.Diff(got.result); d != "" {
					t.Errorf("shards=%d: finalized metrics diverged from serial run: %s", shards, d)
				}
				if fmt.Sprint(got.names) != fmt.Sprint(ref.names) {
					t.Fatalf("shards=%d: stack %v, serial stack %v", shards, got.names, ref.names)
				}
				for i, data := range got.ctls {
					if !bytes.Equal(data, ref.ctls[i]) {
						t.Errorf("shards=%d: %s state diverged from serial run", shards, got.names[i])
					}
				}
			}
		})
	}
}

// TestShardedEngineMatchesSerialPerTick interleaves Run(1) probes — the
// pattern scenario drivers use — and checks the sharded engine's per-tick
// group power tracks the serial engine's exactly, not just the final sums.
func TestShardedEngineMatchesSerialPerTick(t *testing.T) {
	const ticks = 60
	build := func(shards int) *sim.Engine {
		t.Helper()
		cl := shardTestCluster(t, ticks)
		spec := core.Coordinated()
		spec.Seed = 42
		spec.Shards = shards
		eng, _, err := core.Build(cl, spec)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	serial, sharded := build(1), build(runtime.GOMAXPROCS(0)+1)
	for k := 0; k < ticks; k++ {
		if _, err := serial.Run(1); err != nil {
			t.Fatal(err)
		}
		if _, err := sharded.Run(1); err != nil {
			t.Fatal(err)
		}
		a := math.Float64bits(serial.Cluster.GroupPower)
		b := math.Float64bits(sharded.Cluster.GroupPower)
		if a != b {
			t.Fatalf("tick %d: group power diverged: serial %x (%v) sharded %x (%v)",
				k, a, serial.Cluster.GroupPower, b, sharded.Cluster.GroupPower)
		}
	}
	if fmt.Sprint(serial.Cluster.Stats()) != fmt.Sprint(sharded.Cluster.Stats()) {
		t.Fatalf("final FleetStats diverged:\nserial  %+v\nsharded %+v",
			serial.Cluster.Stats(), sharded.Cluster.Stats())
	}
}
