package experiments

import (
	"context"
	"strings"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/sim"
)

// TestFacilityIdentity holds the facility loop to the determinism contract
// at reduced scale: with the FM in the stack, the identity harness's sharded
// and kill-and-resume runs must reproduce the serial run bitwise
// (math.Float64bits over the per-tick series, facility columns included).
func TestFacilityIdentity(t *testing.T) {
	rows, err := FacilityData(context.Background(), Options{Ticks: 240, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want coordinated + uncoordinated", len(rows))
	}
	for _, r := range rows {
		if err := r.Identity.Err(); err != nil {
			t.Errorf("%s: %v", r.Stack, err)
		}
		if len(r.Identity.Variants) < 2 {
			t.Errorf("%s: variants %q, want sharded and resumed runs", r.Stack, r.Identity.VariantNames())
		}
		if r.AvgPUE <= 1 || r.MaxPUE < r.AvgPUE {
			t.Errorf("%s: PUE series implausible (avg %v, max %v)", r.Stack, r.AvgPUE, r.MaxPUE)
		}
		if r.AvgFacilityW <= r.Result.AvgPower {
			t.Errorf("%s: facility draw %v not above IT draw %v", r.Stack, r.AvgFacilityW, r.Result.AvgPower)
		}
		if r.ITBudgetW <= 0 {
			t.Errorf("%s: no IT budget exported", r.Stack)
		}
	}
}

// The uncoordinated FM fights the operator and cooling manager for CAP_GRP
// (last-writer-wins); the coordinated min-rule export keeps the facility
// inside the utility feed far more of the time.
func TestFacilityCoordinationReducesFeedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison needs a few diurnal swings")
	}
	rows, err := FacilityData(context.Background(), Options{Ticks: 600, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var coord, uncoord FacilityRow
	for _, r := range rows {
		if r.Stack == "Coordinated" {
			coord = r
		} else {
			uncoord = r
		}
	}
	if coord.FeedViolations >= uncoord.FeedViolations {
		t.Errorf("coordinated feed violations %d not below uncoordinated %d",
			coord.FeedViolations, uncoord.FeedViolations)
	}
}

// A demand surge on the facility scenario gives every VM a private scaled
// copy of its AI-burst trace, which until then read the set's one shared
// schedule. Checkpoints taken after it must carry those copies, so the
// sharded run and every kill-and-resume run reproduce the uninterrupted
// run bitwise.
func TestFacilityDemandSurgeResumes(t *testing.T) {
	sc := facilityScenario(Options{Ticks: 240}.normalized())
	surge := ChaosCase{Name: "surge", Events: func(ticks int, seed int64) []sim.Event {
		return []sim.Event{sim.ScaleDemand(ticks/4, 1.2), sim.ScaleDemand(ticks/2+7, 0.9)}
	}}
	mutated := false
	rep, err := CheckIdentity(context.Background(), sc, facilitySpec(core.Coordinated()), surge, 0,
		Observers{OnTick: func(k int, cl *cluster.Cluster) { mutated = cl.VMs[0].Trace.Mutated }})
	if err != nil {
		t.Fatal(err)
	}
	if !mutated {
		t.Fatal("the surge never reached the cluster's traces")
	}
	resumed := 0
	for _, v := range rep.Variants {
		if strings.HasPrefix(v.Name, "resume@") {
			resumed++
		}
	}
	if resumed == 0 {
		t.Fatalf("variants %q, want a kill-and-resume run", rep.VariantNames())
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
}
