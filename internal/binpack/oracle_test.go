package binpack

import (
	"math"
	"math/rand"
	"testing"
)

// solveExhaustive enumerates every assignment of items to bins (m^n — only
// for tiny instances) and returns the minimum-objective feasible solution's
// (power + migrationCost, found). It is the oracle the greedy is judged
// against: the paper calls the greedy "an approximation of the optimal
// solution", and this quantifies how close.
func solveExhaustive(p Problem) (bestCost float64, found bool) {
	n, m := len(p.Items), len(p.Bins)
	assign := make([]int, n)
	bestCost = math.Inf(1)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			cost, ok := evalAssignment(p, assign)
			if ok && cost < bestCost {
				bestCost, found = cost, true
			}
			return
		}
		for b := 0; b < m; b++ {
			assign[i] = b
			walk(i + 1)
		}
	}
	walk(0)
	return bestCost, found
}

// estPower projects a bin's draw at a hypothetical load: the linear P0
// model Solve's slots cache as their current estimate.
func estPower(b Bin, load float64) float64 {
	full := b.FullCapacity
	if full <= 0 {
		full = b.Capacity
	}
	r := load / full
	if r > 1 {
		r = 1
	}
	return b.IdlePower + float64(b.PowerSlope*r)
}

// evalAssignment computes the objective of a complete assignment, checking
// all constraints.
func evalAssignment(p Problem, assign []int) (float64, bool) {
	load := make([]float64, len(p.Bins))
	for i, b := range assign {
		load[b] += p.Items[i].Demand
	}
	encPower := map[int]float64{}
	total := 0.0
	cost := 0.0
	for bi, b := range p.Bins {
		if load[bi] == 0 {
			continue
		}
		if load[bi] > b.Capacity+1e-12 {
			return 0, false
		}
		pw := estPower(b, load[bi])
		if pw > b.PowerBudget+1e-12 {
			return 0, false
		}
		if b.Enclosure >= 0 {
			encPower[b.Enclosure] += pw
		}
		total += pw
		cost += pw
	}
	for enc, budget := range p.EnclosureBudgets {
		if encPower[enc] > budget+1e-12 {
			return 0, false
		}
	}
	if p.GroupBudget > 0 && total > p.GroupBudget+1e-12 {
		return 0, false
	}
	for i, b := range assign {
		if p.Bins[b].ID != p.Items[i].Current {
			cost += p.MigrationWeight
		}
	}
	return cost, true
}

// greedyCost recomputes the greedy solution's objective the same way the
// oracle counts it.
func greedyCost(p Problem, res *Result) float64 {
	assign := make([]int, len(p.Items))
	copy(assign, res.Assignment)
	cost, ok := evalAssignment(p, assign)
	if !ok {
		return math.Inf(1)
	}
	return cost
}

// The approximation-quality bound: on random tiny instances where both the
// greedy and the oracle find feasible solutions, the greedy's objective is
// within 1.6x of optimal. (First-fit-decreasing-style packings are 11/9 OPT
// + O(1) for pure bin counts; the power objective with idle costs behaves
// comparably. The bound here is deliberately loose enough never to flake
// while still catching a broken heuristic.)
func TestGreedyNearOptimalOnTinyInstances(t *testing.T) {
	worst := 1.0
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n := 2 + rng.Intn(4) // 2..5 items
		m := 2 + rng.Intn(2) // 2..3 bins
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i, Demand: 0.1 + 0.4*rng.Float64(), Current: rng.Intn(m)}
		}
		bins := make([]Bin, m)
		for b := range bins {
			bins[b] = Bin{
				ID: b, Capacity: 0.9, FullCapacity: 1,
				IdlePower: 40 + 30*rng.Float64(), PowerSlope: 20 + 30*rng.Float64(),
				PowerBudget: math.Inf(1), Enclosure: -1, On: true,
			}
		}
		p := Problem{Items: items, Bins: bins, MigrationWeight: 5 * rng.Float64()}
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		opt, found := solveExhaustive(p)
		if !found {
			continue
		}
		if res.Unplaced > 0 {
			t.Errorf("trial %d: greedy left items unplaced on a feasible instance", trial)
			continue
		}
		g := greedyCost(p, res)
		if math.IsInf(g, 1) {
			t.Errorf("trial %d: greedy produced an infeasible assignment", trial)
			continue
		}
		ratio := g / opt
		if ratio > worst {
			worst = ratio
		}
		if ratio > 1.6+1e-9 {
			t.Errorf("trial %d: greedy %.2f vs optimal %.2f (ratio %.3f)", trial, g, opt, ratio)
		}
	}
	t.Logf("worst greedy/optimal ratio over feasible tiny instances: %.3f", worst)
}

// With constraints active (budgets), the greedy must never report a
// feasible-looking assignment the oracle rejects.
func TestGreedyFeasibilityAgreesWithOracle(t *testing.T) {
	for trial := 0; trial < 80; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 2 + rng.Intn(3)
		m := 2 + rng.Intn(2)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i, Demand: 0.1 + 0.5*rng.Float64(), Current: rng.Intn(m)}
		}
		bins := make([]Bin, m)
		for b := range bins {
			bins[b] = Bin{
				ID: b, Capacity: 0.85, FullCapacity: 1,
				IdlePower: 60, PowerSlope: 40,
				PowerBudget: 70 + 40*rng.Float64(),
				Enclosure:   -1, On: true,
			}
		}
		p := Problem{Items: items, Bins: bins, MigrationWeight: 2}
		res, err := Solve(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Unplaced > 0 {
			continue // greedy says infeasible-for-it; nothing to check
		}
		if cost := greedyCost(p, res); math.IsInf(cost, 1) {
			t.Errorf("trial %d: greedy's fully-placed assignment violates constraints", trial)
		}
	}
}
