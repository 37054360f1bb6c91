package cluster

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"nopower/internal/model"
	"nopower/internal/trace"
)

// concurrently dispatches every item on its own goroutine — the most
// adversarial legal AdvanceWith run callback.
func concurrently(n int, fn func(u int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for u := 0; u < n; u++ {
		go func() {
			defer wg.Done()
			fn(u)
		}()
	}
	wg.Wait()
}

// TestAdvanceWithMatchesSerial advances a fleet wide enough that the demand
// fill splits into several VM ranges, serially and through a concurrent run
// callback, with P-state churn and a migration between ticks, and requires
// every per-tick total and the final plant state to match bit for bit.
func TestAdvanceWithMatchesSerial(t *testing.T) {
	const servers, ticks = 2*fillChunk + 100, 3*demandBlockTicks + 5
	build := func() *Cluster {
		set := &trace.Set{Name: "wide"}
		for i := 0; i < servers; i++ {
			d := make([]float64, ticks)
			for k := range d {
				d[k] = 0.1 + 0.8*math.Abs(math.Sin(float64(i*7+k*13)))
			}
			set.Traces = append(set.Traces, trace.New("w", "sin", d))
		}
		return mustNew(t, Config{
			Enclosures: 3, BladesPerEnclosure: 20, Standalone: servers - 60,
			Model: model.BladeA(), CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
			AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 5,
		}, set)
	}
	serial, sharded := build(), build()
	if n := (len(sharded.VMs) + fillChunk - 1) / fillChunk; n < 3 {
		t.Fatalf("%d fill ranges, want >= 3", n)
	}
	for k := 0; k < ticks; k++ {
		for _, c := range []*Cluster{serial, sharded} {
			for i := k % 7; i < servers; i += 7 {
				c.SetPState(i, (i+k)%c.ServerModel(i).NumPStates())
			}
			if k == 40 {
				if err := c.Move(3, 100, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		serial.Advance(k)
		sharded.AdvanceWith(k, concurrently)
		for _, f := range []struct {
			name string
			a, b float64
		}{
			{"GroupPower", serial.GroupPower, sharded.GroupPower},
			{"DemandWork", serial.DemandWork, sharded.DemandWork},
			{"DeliveredWork", serial.DeliveredWork, sharded.DeliveredWork},
		} {
			if math.Float64bits(f.a) != math.Float64bits(f.b) {
				t.Fatalf("tick %d: %s diverged: serial %v, sharded %v", k, f.name, f.a, f.b)
			}
		}
		if serial.Stats() != sharded.Stats() {
			t.Fatalf("tick %d: FleetStats diverged:\nserial  %+v\nsharded %+v", k, serial.Stats(), sharded.Stats())
		}
	}
	if !reflect.DeepEqual(serial.State(), sharded.State()) {
		t.Error("final plant state diverged between serial and sharded advances")
	}
}
