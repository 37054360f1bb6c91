package experiments

import (
	"context"
	"testing"
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
