package model

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// A Distribution describes a heterogeneous fleet as weighted shares of
// registered profiles, e.g. "arm-microblade:3,serverb:2,rack-2u-32:1".
// It is the scenario-level spec for mixed-model clusters: Models(n) expands
// it to a per-server model slice deterministically, so a cluster rebuilt
// from the same spec (checkpoint resume, shard comparison) gets an
// identical fleet.

// Share is one weighted profile in a Distribution.
type Share struct {
	Name   string // profile name, resolved via Lookup
	Weight int    // relative share, in [1, maxWeight]
}

// maxWeight bounds a share's weight. Weights are relative, so the bound
// costs no expressiveness; it keeps the integer apportionment in Models
// (n times a weight, and the weights' sum) far from overflow.
const maxWeight = 1 << 20

// checkWeight rejects a weight outside [1, maxWeight].
func (s Share) checkWeight() error {
	if s.Weight < 1 || s.Weight > maxWeight {
		return fmt.Errorf("model: distribution: share %q weight %d outside [1, %d]", s.Name, s.Weight, maxWeight)
	}
	return nil
}

// Distribution is an ordered list of weighted shares. Order matters: it
// breaks ties in the apportionment and fixes the interleaving pattern.
type Distribution []Share

// ParseDistribution parses "name:weight,name:weight,..." (weight optional,
// default 1, at most 2^20). Every name must resolve in the registry; parsing
// fails fast with the offending token.
func ParseDistribution(spec string) (Distribution, error) {
	var d Distribution
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, w := tok, 1
		if i := strings.LastIndex(tok, ":"); i >= 0 {
			name = strings.TrimSpace(tok[:i])
			n, err := strconv.Atoi(strings.TrimSpace(tok[i+1:]))
			if err != nil {
				return nil, fmt.Errorf("model: distribution %q: bad weight in %q: %v", spec, tok, err)
			}
			w = n
		}
		if w < 1 || w > maxWeight {
			return nil, fmt.Errorf("model: distribution %q: weight %d in %q outside [1, %d]", spec, w, tok, maxWeight)
		}
		m, err := Lookup(name)
		if err != nil {
			return nil, fmt.Errorf("model: distribution %q: %w", spec, err)
		}
		d = append(d, Share{Name: m.Name, Weight: w})
	}
	if len(d) == 0 {
		return nil, fmt.Errorf("model: distribution %q: empty", spec)
	}
	return d, nil
}

// String renders the canonical form: canonical profile names with explicit
// weights. ParseDistribution(d.String()) round-trips, which makes the
// string usable as a checkpoint label.
func (d Distribution) String() string {
	parts := make([]string, len(d))
	for i, s := range d {
		parts[i] = fmt.Sprintf("%s:%d", s.Name, s.Weight)
	}
	return strings.Join(parts, ",")
}

// Models expands the distribution to n per-server models. Counts follow the
// largest-remainder method over the weights (ties broken by share order);
// assignment interleaves shares with a smooth weighted round-robin so a mix
// spreads across every enclosure instead of clustering in blocks. All
// integer arithmetic: the expansion is a pure function of (d, n), which the
// determinism contract (rebuild-for-restore, shard comparison) relies on.
//
// All servers sharing a profile share one *Model instance — the cluster
// treats models as immutable, and sharing preserves the per-unit same-model
// pointer hoist in the plant hot path.
func (d Distribution) Models(n int) ([]*Model, error) {
	if n <= 0 {
		return nil, fmt.Errorf("model: distribution: need n > 0, have %d", n)
	}
	if len(d) == 0 {
		return nil, fmt.Errorf("model: distribution: empty")
	}
	models := make([]*Model, len(d))
	total := 0
	for i, s := range d {
		m, err := Lookup(s.Name)
		if err != nil {
			return nil, err
		}
		if err := s.checkWeight(); err != nil {
			return nil, err
		}
		models[i] = m
		total += s.Weight
	}
	// The apportionment multiplies n by weights (summing to total) and the
	// round-robin multiplies counts (<= n) by n.
	if n > math.MaxInt/max(total, n) {
		return nil, fmt.Errorf("model: distribution: %d servers at total weight %d overflows the apportionment", n, total)
	}
	// Largest-remainder apportionment: floor everyone, then hand the
	// leftover slots to the largest fractional remainders (share order
	// breaks ties).
	counts := make([]int, len(d))
	rem := make([]int, len(d)) // remainder numerators, denominator = total
	given := 0
	for i, s := range d {
		counts[i] = n * s.Weight / total
		rem[i] = n * s.Weight % total
		given += counts[i]
	}
	for given < n {
		best := -1
		for i := range d {
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1 // each share gets at most one leftover slot
		given++
	}
	// Smooth weighted round-robin over the final counts: at each server,
	// pick the share with the largest deficit counts[i]*(s+1) - assigned[i]*n
	// among shares with slots left. Deterministic, interleaved, exact.
	out := make([]*Model, n)
	assigned := make([]int, len(d))
	for s := 0; s < n; s++ {
		best, bestDef := -1, 0
		for i, c := range counts {
			if assigned[i] >= c {
				continue
			}
			def := c*(s+1) - assigned[i]*n
			if best < 0 || def > bestDef {
				best, bestDef = i, def
			}
		}
		out[s] = models[best]
		assigned[best]++
	}
	return out, nil
}
