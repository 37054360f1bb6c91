package experiments

import (
	"context"
	"testing"
)

// TestHeteroIdentity holds heterogeneous fleets to the determinism contract
// at reduced scale: on every fleet mix, the identity harness's sharded and
// kill-and-resume runs must reproduce the serial run bitwise.
func TestHeteroIdentity(t *testing.T) {
	rows, err := HeteroData(context.Background(), Options{Ticks: 240, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 3 fleets x 2 stacks", len(rows))
	}
	for _, r := range rows {
		if err := r.Identity.Err(); err != nil {
			t.Errorf("%s/%s: %v", r.Fleet, r.Stack, err)
		}
		if len(r.Identity.Variants) < 2 {
			t.Errorf("%s/%s: variants %q, want sharded and resumed runs", r.Fleet, r.Stack, r.Identity.VariantNames())
		}
		if len(r.PerProfile) < 3 {
			t.Errorf("%s/%s: %d profiles in decomposition, want >= 3", r.Fleet, r.Stack, len(r.PerProfile))
		}
		total := 0
		for _, p := range r.PerProfile {
			if p.BaselineW <= 0 {
				t.Errorf("%s/%s/%s: no baseline decomposition", r.Fleet, r.Stack, p.Profile)
			}
			if p.AvgW <= 0 {
				t.Errorf("%s/%s/%s: no managed draw recorded", r.Fleet, r.Stack, p.Profile)
			}
			total += p.Servers
		}
		if total != 60 {
			t.Errorf("%s/%s: decomposition covers %d servers, want 60", r.Fleet, r.Stack, total)
		}
	}
}

// TestHeteroScenarioFailsFastOnTypo pins the bug-sweep behavior: an unknown
// profile anywhere in the scenario surfaces the registry's known-name list
// instead of a nil dereference.
func TestHeteroScenarioFailsFastOnTypo(t *testing.T) {
	sc := Scenario{Model: "BladeX", Mix: "60L", Budgets: Base201510(), Ticks: 50}
	if _, err := sc.BuildCluster(); err == nil {
		t.Fatal("unknown model accepted")
	}
	sc = Scenario{Profiles: "bladea:2,typo-profile:1", Mix: "60L", Budgets: Base201510(), Ticks: 50}
	if _, err := sc.BuildCluster(); err == nil {
		t.Fatal("unknown profile in distribution accepted")
	}
	sc = Scenario{Profiles: "bladea:1", PStates: []int{0, 1}, Mix: "60L", Budgets: Base201510(), Ticks: 50}
	if _, err := sc.BuildCluster(); err == nil {
		t.Fatal("Profiles+PStates accepted")
	}
}
