package binpack

import (
	"fmt"
	"math"
	"sort"
)

// referenceSolve is the packer's original implementation: each (item, bin)
// visit re-derives the bin's state from the Problem and maps. Solve must
// return bit-for-bit what it returns on every valid problem; the
// differential tests in binpack_test.go hold it to that. Besides its name,
// the only edits from the original are the explicit float64 conversions
// that stop fused multiply-adds (in sq and the delay term here, and in
// estPower). amd64 never fused them, and with them the reference matches
// Solve on every GOARCH.
func referenceSolve(p Problem) (*Result, error) {
	if len(p.Bins) == 0 {
		return nil, fmt.Errorf("binpack: no bins")
	}
	binIdx := make(map[int]int, len(p.Bins)) // bin ID -> index
	for i, b := range p.Bins {
		if b.Capacity <= 0 {
			return nil, fmt.Errorf("binpack: bin %d capacity %v", b.ID, b.Capacity)
		}
		if _, dup := binIdx[b.ID]; dup {
			return nil, fmt.Errorf("binpack: duplicate bin ID %d", b.ID)
		}
		binIdx[b.ID] = i
	}

	order := make([]int, len(p.Items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Items[order[a]].Demand > p.Items[order[b]].Demand
	})

	st := &state{
		load:     make([]float64, len(p.Bins)),
		open:     make([]bool, len(p.Bins)),
		encPower: make(map[int]float64),
	}
	res := &Result{Assignment: make([]int, len(p.Items))}
	for i := range res.Assignment {
		res.Assignment[i] = -1
	}

	for _, itemIdx := range order {
		item := p.Items[itemIdx]
		best, bestCost := -1, math.Inf(1)
		for bi := range p.Bins {
			cost, ok := p.marginalCost(st, bi, item)
			if !ok {
				continue
			}
			if cost < bestCost-1e-12 {
				best, bestCost = bi, cost
			}
		}
		if best < 0 {
			// Nothing feasible: leave the item where it is (or on bin 0 if
			// it has no current host) and account for the load anyway so
			// later decisions see the truth.
			res.Unplaced++
			best = 0
			if cur, ok := binIdx[item.Current]; ok {
				best = cur
			}
		}
		p.place(st, best, item)
		res.Assignment[itemIdx] = best
		if p.Bins[best].ID != item.Current {
			res.Migrations++
		}
	}

	for bi, b := range p.Bins {
		if st.open[bi] {
			res.OpenBins++
			res.EstimatedPower += estPower(b, st.load[bi])
		}
	}
	return res, nil
}

// state tracks incremental loads during the greedy pass.
type state struct {
	load     []float64 // per bin
	open     []bool
	encPower map[int]float64
	grpPower float64
}

// marginalCost returns the objective increase of placing item on bin index
// bi, or ok=false if any constraint would be violated.
func (p Problem) marginalCost(st *state, bi int, item Item) (float64, bool) {
	b := p.Bins[bi]
	newLoad := st.load[bi] + item.Demand
	if newLoad > b.Capacity+1e-12 {
		return 0, false
	}
	oldPower := 0.0
	if st.open[bi] {
		oldPower = estPower(b, st.load[bi])
	}
	newPower := estPower(b, newLoad)
	delta := newPower - oldPower

	if newPower > b.PowerBudget+1e-12 {
		return 0, false
	}
	if budget, has := p.EnclosureBudgets[b.Enclosure]; has && b.Enclosure >= 0 {
		if st.encPower[b.Enclosure]+delta > budget+1e-12 {
			return 0, false
		}
	}
	if p.GroupBudget > 0 && st.grpPower+delta > p.GroupBudget+1e-12 {
		return 0, false
	}

	cost := delta
	if p.DelayWeight > 0 {
		cost += float64(p.DelayWeight * (sq(utilOf(b, newLoad)) - sq(utilOf(b, st.load[bi]))))
	}
	if b.ID != item.Current {
		cost += p.MigrationWeight
	}
	return cost, true
}

func utilOf(b Bin, load float64) float64 {
	full := b.FullCapacity
	if full <= 0 {
		full = b.Capacity
	}
	r := load / full
	if r > 1 {
		r = 1
	}
	return r
}

func sq(v float64) float64 { return float64(v * v) }

// place commits an item to a bin and updates the running totals.
func (p Problem) place(st *state, bi int, item Item) {
	b := p.Bins[bi]
	oldPower := 0.0
	if st.open[bi] {
		oldPower = estPower(b, st.load[bi])
	}
	st.load[bi] += item.Demand
	st.open[bi] = true
	delta := estPower(b, st.load[bi]) - oldPower
	if b.Enclosure >= 0 {
		st.encPower[b.Enclosure] += delta
	}
	st.grpPower += delta
}
