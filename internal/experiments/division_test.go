package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"nopower/internal/policy"
)

// divisionFile pins the EM/GM budget-division path bit for bit: the
// Float64bits of every metrics.Result field for each division policy under
// each stack that divides budgets, keyed "stack/policy".
var divisionFile = filepath.Join("testdata", "division_results.json")

// divisionStacks are the stacks whose runs go through the division path:
// the min-rule EM and GM, the last-writer-wins ones, and the min-rule pair
// under the FM's tightened group budget.
var divisionStacks = []string{"coordinated", "uncoordinated", "facility"}

// TestDivisionDigest holds every policy's BladeA/180 result at 600 ticks
// to the bits recorded before the EM and GM became one budget divider, so
// a change to how budgets are divided cannot change what is divided.
//
// A change that means to move these numbers re-records the file with
// DIVISION_RECORD=1 go test -run TestDivisionDigest ./internal/experiments
// and names the rows that moved, and why, in CHANGES.md.
func TestDivisionDigest(t *testing.T) {
	ctx := ShareTraces(context.Background())
	base := RunSpec{Mix: "180", Ticks: 600}
	baseline, err := BaselinePower(ctx, base.Scenario())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]goldenResultBits{}
	for _, stack := range divisionStacks {
		for _, pol := range policy.Names() {
			s := base
			s.Stack, s.Policy = stack, pol
			res, _, err := s.Run(ctx, known(baseline), Observers{})
			if err != nil {
				t.Fatalf("%s/%s: %v", stack, pol, err)
			}
			got[stack+"/"+pol] = resultToBits(res)
		}
	}
	if os.Getenv("DIVISION_RECORD") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(divisionFile, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d results in %s", len(got), divisionFile)
		return
	}
	data, err := os.ReadFile(divisionFile)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenResultBits
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", divisionFile, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s has %d results, want %d", divisionFile, len(want), len(got))
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no recorded result", key)
			continue
		}
		if d := g.result().Diff(w.result()); d != "" {
			t.Errorf("%s: %s (got vs recorded)", key, d)
		}
	}
}
