// Package policy implements the budget-division policies the enclosure and
// group managers use to re-provision a level's power budget across its
// children each epoch. The paper's base policy is proportional share
// (Fig. 6, eqs. EM/GMs); §3.1 notes that "different policies (e.g.,
// fair-share, FIFO, random, priority-based, history-based) can be
// implemented" and §5.4 studies their impact — all six are provided here.
//
// A Division only computes the *recommendations*; the receiving level always
// takes min(own static cap, recommendation) per the paper's coordination
// rule, so recommendations above a child's static cap are harmless.
package policy

import (
	"fmt"
	"math/rand"
	"sort"

	"nopower/internal/state"
)

// Child is one budget recipient as seen by a division policy.
type Child struct {
	// ID identifies the child (server or enclosure index).
	ID int
	// Power is the child's measured draw over the last epoch, Watts.
	Power float64
	// MaxPower is the child's maximum possible draw, Watts.
	MaxPower float64
	// Priority orders children for the priority policy (higher = first).
	Priority int
}

// Division allocates a total budget across children. Implementations must
// return one non-negative share per child, summing to at most total.
type Division interface {
	// Name identifies the policy for reports and flags.
	Name() string
	// Divide computes the per-child budget recommendations into dst,
	// resized to len(children) and reallocated only when its capacity is
	// short, and returns dst's new extent (or the new array). A controller
	// dividing every epoch passes back what the last call returned, so it
	// allocates no shares after the first; nil asks for a fresh slice. The
	// children slice is valid only for the duration of the call —
	// controllers pool and reuse it across epochs — so implementations
	// must not retain it.
	Divide(dst []float64, total float64, children []Child) []float64
}

// resize returns dst with length n, reallocated only when its capacity is
// short.
func resize(dst []float64, n int) []float64 {
	if cap(dst) < n {
		return make([]float64, n)
	}
	return dst[:n]
}

// Stateful is implemented by division policies that accumulate state across
// epochs (History's EWMA). The checkpoint subsystem captures it through the
// owning controller so a resumed run divides budgets identically. Stateless
// policies simply don't implement it.
type Stateful interface {
	PolicyState() ([]byte, error)
	RestorePolicyState(data []byte) error
}

// floorFrac keeps proportional-style policies from starving a child whose
// measured power was ~0 (e.g. just powered on): each child's weight is at
// least this fraction of its MaxPower. Without it, min(static, 0) would lock
// a re-awakened machine at a zero budget — a live-lock the paper's
// proportional equations implicitly avoid by running on measured power that
// is never exactly zero on real hardware.
const floorFrac = 0.05

// Proportional is the paper's base policy: shares proportional to each
// child's consumption in the previous interval.
type Proportional struct{}

// Name implements Division.
func (Proportional) Name() string { return "proportional" }

// Divide implements Division: the weights go into dst, and each becomes its
// share in place.
func (Proportional) Divide(dst []float64, total float64, children []Child) []float64 {
	weights := resize(dst, len(children))
	sum := 0.0
	for i, c := range children {
		w := c.Power
		if floor := floorFrac * c.MaxPower; w < floor {
			w = floor
		}
		weights[i] = w
		sum += w
	}
	return byWeight(total, weights, sum)
}

// FairShare splits the budget equally.
type FairShare struct{}

// Name implements Division.
func (FairShare) Name() string { return "fairshare" }

// Divide implements Division.
func (FairShare) Divide(dst []float64, total float64, children []Child) []float64 {
	out := resize(dst, len(children))
	if len(children) == 0 {
		return out
	}
	share := total / float64(len(children))
	for i := range out {
		out[i] = share
	}
	return out
}

// FIFO grants each child its full MaxPower in ID order until the budget is
// exhausted; later children get the remainder.
type FIFO struct{}

// Name implements Division.
func (FIFO) Name() string { return "fifo" }

// Divide implements Division.
func (FIFO) Divide(dst []float64, total float64, children []Child) []float64 {
	order := make([]int, len(children))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return children[order[a]].ID < children[order[b]].ID
	})
	return fill(dst, total, children, order)
}

// Random fills children in a seeded random order each epoch.
type Random struct {
	// Rng drives the shuffle; a nil Rng makes Divide deterministic in ID
	// order (degrading to FIFO), which keeps the zero value usable.
	Rng *rand.Rand
}

// Name implements Division.
func (Random) Name() string { return "random" }

// Divide implements Division.
func (r Random) Divide(dst []float64, total float64, children []Child) []float64 {
	order := make([]int, len(children))
	for i := range order {
		order[i] = i
	}
	if r.Rng != nil {
		r.Rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
	}
	return fill(dst, total, children, order)
}

// Priority fills children in descending Priority (ties by ID).
type Priority struct{}

// Name implements Division.
func (Priority) Name() string { return "priority" }

// Divide implements Division.
func (Priority) Divide(dst []float64, total float64, children []Child) []float64 {
	order := make([]int, len(children))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ca, cb := children[order[a]], children[order[b]]
		if ca.Priority != cb.Priority {
			return ca.Priority > cb.Priority
		}
		return ca.ID < cb.ID
	})
	return fill(dst, total, children, order)
}

// History shares proportionally to an exponentially-weighted moving average
// of each child's power, smoothing out transients.
type History struct {
	ewma map[int]float64
}

// historyAlpha is History's EWMA smoothing factor.
const historyAlpha = 0.3

// Name implements Division.
func (*History) Name() string { return "history" }

// Divide implements Division: the weights go into dst, and each becomes its
// share in place.
func (h *History) Divide(dst []float64, total float64, children []Child) []float64 {
	if h.ewma == nil {
		h.ewma = make(map[int]float64)
	}
	weights := resize(dst, len(children))
	sum := 0.0
	for i, c := range children {
		prev, ok := h.ewma[c.ID]
		if !ok {
			prev = c.Power
		}
		cur := float64(historyAlpha*c.Power) + float64((1-historyAlpha)*prev)
		h.ewma[c.ID] = cur
		w := cur
		if floor := floorFrac * c.MaxPower; w < floor {
			w = floor
		}
		weights[i] = w
		sum += w
	}
	return byWeight(total, weights, sum)
}

// historyEntry is one (child, EWMA) pair; the state is stored as a sorted
// slice rather than the live map so the encoding is byte-deterministic
// (npckpt diff compares component blobs byte-wise).
type historyEntry struct {
	ID   int
	EWMA float64
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal([]historyEntry{}) }

// PolicyState implements Stateful.
func (h *History) PolicyState() ([]byte, error) {
	entries := make([]historyEntry, 0, len(h.ewma))
	for id, v := range h.ewma {
		entries = append(entries, historyEntry{ID: id, EWMA: v})
	}
	sort.Slice(entries, func(a, b int) bool { return entries[a].ID < entries[b].ID })
	return state.Marshal(entries)
}

// RestorePolicyState implements Stateful.
func (h *History) RestorePolicyState(data []byte) error {
	var entries []historyEntry
	if err := state.Unmarshal(data, &entries); err != nil {
		return err
	}
	h.ewma = make(map[int]float64, len(entries))
	for _, e := range entries {
		h.ewma[e.ID] = e.EWMA
	}
	return nil
}

// byWeight turns weights into the shares of total proportional to them, in
// place (all shares are non-negative and sum to exactly total when
// sum > 0), and returns them.
func byWeight(total float64, weights []float64, sum float64) []float64 {
	if sum <= 0 || total <= 0 {
		clear(weights)
		return weights
	}
	for i, w := range weights {
		weights[i] = total * w / sum
	}
	return weights
}

// fill grants MaxPower in the given order until the budget runs out, into
// dst resized to len(children).
func fill(dst []float64, total float64, children []Child, order []int) []float64 {
	out := resize(dst, len(children))
	clear(out)
	remaining := total
	for _, idx := range order {
		if remaining <= 0 {
			break
		}
		grant := children[idx].MaxPower
		if grant > remaining {
			grant = remaining
		}
		out[idx] = grant
		remaining -= grant
	}
	return out
}

// ByName constructs a policy by name; rng is only used by "random".
func ByName(name string, rng *rand.Rand) (Division, error) {
	switch name {
	case "proportional", "":
		return Proportional{}, nil
	case "fairshare":
		return FairShare{}, nil
	case "fifo":
		return FIFO{}, nil
	case "random":
		return Random{Rng: rng}, nil
	case "priority":
		return Priority{}, nil
	case "history":
		return &History{}, nil
	}
	return nil, fmt.Errorf("policy: unknown division policy %q", name)
}

// Names lists every available policy.
func Names() []string {
	return []string{"proportional", "fairshare", "fifo", "random", "priority", "history"}
}
