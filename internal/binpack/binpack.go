// Package binpack provides the greedy constrained 0-1 packing the paper's
// VM controller uses to approximate its optimization problem (Fig. 6, eqs.
// VMCs): map n VMs onto m servers minimizing estimated total power plus a
// migration penalty, subject to per-server capacity and per-server /
// per-enclosure / group power-budget constraints.
//
// The algorithm is greedy best-fit decreasing: items in decreasing demand,
// each placed on the feasible bin with the lowest marginal cost, where the
// marginal cost is the estimated power increase plus the migration weight if
// the bin differs from the item's current host. High idle power makes the
// marginal cost of opening an empty bin large, so the greedy naturally
// consolidates — the paper's "greedy bin-packing algorithm ... an
// approximation of the optimal solution".
package binpack

import (
	"fmt"
	"math"
	"sort"
)

// Item is one VM to place.
type Item struct {
	// ID identifies the item (VM index).
	ID int
	// Demand is the estimated resource demand in full-speed server units,
	// including the virtualization overhead (1+α_V).
	Demand float64
	// Current is the bin the item occupies now (-1 if unplaced); staying
	// costs no migration.
	Current int
}

// Bin is one candidate server.
type Bin struct {
	// ID identifies the bin (server index).
	ID int
	// Capacity is the usable compute capacity in full-speed units (the
	// packing limit, typically a fraction of FullCapacity).
	Capacity float64
	// FullCapacity is the bin's physical full-speed capacity, used to
	// convert load to utilization for the power estimate. Zero defaults to
	// Capacity.
	FullCapacity float64
	// IdlePower is the draw of the (powered-on) empty bin at full frequency.
	IdlePower float64
	// PowerSlope is Watts per unit load (linear P0 model: idle + slope·r).
	PowerSlope float64
	// PowerBudget is the effective power cap for this bin; +Inf disables it.
	PowerBudget float64
	// Enclosure groups bins for the enclosure budget; -1 = standalone.
	Enclosure int
	// On reports whether the machine is currently powered (informational;
	// cost already reflects it through idle power of newly opened bins).
	On bool
}

// Problem bundles one packing instance.
type Problem struct {
	Items []Item
	Bins  []Bin
	// EnclosureBudgets caps the summed estimated power per enclosure ID;
	// missing entries are unconstrained.
	EnclosureBudgets map[int]float64
	// GroupBudget caps total estimated power; <= 0 disables it.
	GroupBudget float64
	// MigrationWeight is the objective cost (in Watts-equivalents) of moving
	// an item off its current bin — the α_M term of eq. (1).
	MigrationWeight float64
	// DelayWeight adds an energy-delay-style term to the objective: each
	// bin contributes DelayWeight · r² (r = load/full capacity), penalizing
	// dense packing in proportion to the queueing-delay growth it causes.
	// Zero (the default) keeps the paper's pure-power objective; positive
	// values implement the §6.1 extension (6) trade-off.
	DelayWeight float64
}

// Result is the packing outcome.
type Result struct {
	// Assignment maps item index -> bin index (into Problem.Bins).
	Assignment []int
	// Migrations counts items placed away from their current bin.
	Migrations int
	// Unplaced counts items that fit no feasible bin and were left on their
	// current bin (constraint violations possible there).
	Unplaced int
	// EstimatedPower is the projected draw of the chosen placement, counting
	// only opened bins.
	EstimatedPower float64
	// OpenBins counts bins that host at least one item.
	OpenBins int
}

// slot is one bin's packing state during a Solve: the constants its
// checks read, with each 1e-12 tolerance folded in, and the bin's load and
// estimated draw so far.
type slot struct {
	capTol    float64 // Capacity + 1e-12
	full      float64 // FullCapacity, or Capacity when that is <= 0
	idle      float64
	slope     float64
	budgetTol float64 // PowerBudget + 1e-12
	load      float64
	cur       float64 // power(load) once open, 0 while closed
	enc       int     // index into Solve's enclosure budgets; -1 if none
	open      bool
}

// util is the bin's utilization at load, capped at 1.
func (s *slot) util(load float64) float64 {
	r := load / s.full
	if r > 1 {
		r = 1
	}
	return r
}

// power projects the bin's draw at load (linear P0 model). The conversion
// rounds the product, so no GOARCH fuses it into a multiply-add.
func (s *slot) power(load float64) float64 {
	return s.idle + float64(s.slope*s.util(load))
}

// Solve runs the greedy placement. It is deterministic. It rejects a
// problem with no bins, a duplicate bin ID, a bin whose Capacity is not
// positive, a NaN in any bin field or budget it reads, and a NaN or
// negative Demand.
func Solve(p Problem) (*Result, error) {
	if len(p.Bins) == 0 {
		return nil, fmt.Errorf("binpack: no bins")
	}
	if math.IsNaN(p.GroupBudget) {
		return nil, fmt.Errorf("binpack: group budget %v", p.GroupBudget)
	}
	binIdx := make(map[int]int, len(p.Bins)) // bin ID -> index
	slots := make([]slot, len(p.Bins))
	encIdx := map[int]int{} // enclosure ID -> index into encTol, encPower
	var encTol []float64
	maxCap := math.Inf(-1) // largest capTol
	for i, b := range p.Bins {
		if !(b.Capacity > 0) {
			return nil, fmt.Errorf("binpack: bin %d capacity %v", b.ID, b.Capacity)
		}
		if math.IsNaN(b.FullCapacity) || math.IsNaN(b.IdlePower) ||
			math.IsNaN(b.PowerSlope) || math.IsNaN(b.PowerBudget) {
			return nil, fmt.Errorf("binpack: bin %d has a NaN field", b.ID)
		}
		if _, dup := binIdx[b.ID]; dup {
			return nil, fmt.Errorf("binpack: duplicate bin ID %d", b.ID)
		}
		binIdx[b.ID] = i
		s := slot{capTol: b.Capacity + 1e-12, full: b.FullCapacity, idle: b.IdlePower,
			slope: b.PowerSlope, budgetTol: b.PowerBudget + 1e-12, enc: -1}
		if s.full <= 0 {
			s.full = b.Capacity
		}
		if budget, has := p.EnclosureBudgets[b.Enclosure]; has && b.Enclosure >= 0 {
			if math.IsNaN(budget) {
				return nil, fmt.Errorf("binpack: enclosure %d budget %v", b.Enclosure, budget)
			}
			k, seen := encIdx[b.Enclosure]
			if !seen {
				k = len(encTol)
				encIdx[b.Enclosure] = k
				encTol = append(encTol, budget+1e-12)
			}
			s.enc = k
		}
		maxCap = max(maxCap, s.capTol)
		slots[i] = s
	}
	for _, it := range p.Items {
		if !(it.Demand >= 0) {
			return nil, fmt.Errorf("binpack: item %d demand %v", it.ID, it.Demand)
		}
	}
	encPower := make([]float64, len(encTol))
	grpPower, grpTol := 0.0, math.Inf(1) // no sum exceeds +Inf: no group budget
	if p.GroupBudget > 0 {
		grpTol = p.GroupBudget + 1e-12
	}

	order := make([]int, len(p.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Items[order[a]].Demand > p.Items[order[b]].Demand
	})

	res := &Result{Assignment: make([]int, len(p.Items))}
	for _, itemIdx := range order {
		item := p.Items[itemIdx]
		d := item.Demand
		home, ok := binIdx[item.Current] // staying there costs no migration
		if !ok {
			home = -1
		}
		best, bestCost := -1, math.Inf(1)
		// Loads are never negative and rounding is monotone, so every
		// bin's load+d is at least d: an item larger than every bin's
		// capacity fails them all, and the scan is skipped.
		if d <= maxCap {
			for bi := range slots {
				s := &slots[bi]
				newLoad := s.load + d
				if newLoad > s.capTol {
					continue
				}
				newPower := s.power(newLoad)
				delta := newPower - s.cur
				if newPower > s.budgetTol {
					continue
				}
				if s.enc >= 0 && encPower[s.enc]+delta > encTol[s.enc] {
					continue
				}
				if grpPower+delta > grpTol {
					continue
				}
				cost := delta
				if p.DelayWeight > 0 {
					un, uo := s.util(newLoad), s.util(s.load)
					cost += float64(p.DelayWeight * (float64(un*un) - float64(uo*uo)))
				}
				if bi != home {
					cost += p.MigrationWeight
				}
				if cost < bestCost-1e-12 {
					best, bestCost = bi, cost
				}
			}
		}
		if best < 0 {
			// Nothing feasible: leave the item where it is (or on bin 0 if
			// it has no current host) and account for the load anyway so
			// later decisions see the truth.
			res.Unplaced++
			best = max(home, 0)
		}
		s := &slots[best]
		s.load += d
		s.open = true
		newPower := s.power(s.load)
		delta := newPower - s.cur
		s.cur = newPower
		if s.enc >= 0 {
			encPower[s.enc] += delta
		}
		grpPower += delta
		res.Assignment[itemIdx] = best
		if best != home {
			res.Migrations++
		}
	}

	for _, s := range slots {
		if s.open {
			res.OpenBins++
			res.EstimatedPower += s.cur
		}
	}
	return res, nil
}
