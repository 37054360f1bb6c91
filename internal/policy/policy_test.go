package policy

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func kids() []Child {
	return []Child{
		{ID: 0, Power: 50, MaxPower: 100, Priority: 1},
		{ID: 1, Power: 100, MaxPower: 100, Priority: 3},
		{ID: 2, Power: 25, MaxPower: 100, Priority: 2},
	}
}

func allPolicies() []Division {
	return []Division{
		Proportional{}, FairShare{}, FIFO{},
		Random{Rng: rand.New(rand.NewSource(1))}, Priority{}, &History{},
	}
}

// Universal contract: non-negative shares that never exceed the budget.
func TestAllPoliciesRespectBudget(t *testing.T) {
	for _, p := range allPolicies() {
		for _, total := range []float64{0, 50, 175, 10000} {
			shares := p.Divide(nil, total, kids())
			if len(shares) != 3 {
				t.Fatalf("%s: %d shares", p.Name(), len(shares))
			}
			sum := 0.0
			for i, s := range shares {
				if s < 0 {
					t.Errorf("%s: negative share %v for child %d", p.Name(), s, i)
				}
				sum += s
			}
			if sum > total+1e-9 {
				t.Errorf("%s: shares sum %v exceed budget %v", p.Name(), sum, total)
			}
		}
	}
}

func TestAllPoliciesHandleEmpty(t *testing.T) {
	for _, p := range allPolicies() {
		if got := p.Divide(nil, 100, nil); len(got) != 0 {
			t.Errorf("%s: empty children gave %v", p.Name(), got)
		}
	}
}

func TestProportionalShares(t *testing.T) {
	shares := Proportional{}.Divide(nil, 175, kids())
	// Weights 50:100:25 -> shares 50:100:25 exactly (total equals sum).
	want := []float64{50, 100, 25}
	for i, w := range want {
		if math.Abs(shares[i]-w) > 1e-9 {
			t.Errorf("share[%d] = %v, want %v", i, shares[i], w)
		}
	}
}

func TestProportionalFloorsIdleChildren(t *testing.T) {
	children := []Child{
		{ID: 0, Power: 0, MaxPower: 100}, // just powered on
		{ID: 1, Power: 95, MaxPower: 100},
	}
	shares := Proportional{}.Divide(nil, 100, children)
	if shares[0] <= 0 {
		t.Errorf("idle child starved: share %v", shares[0])
	}
	if shares[1] <= shares[0] {
		t.Errorf("busy child %v should out-rank idle child %v", shares[1], shares[0])
	}
}

func TestFairShareEqual(t *testing.T) {
	shares := FairShare{}.Divide(nil, 90, kids())
	for i, s := range shares {
		if math.Abs(s-30) > 1e-12 {
			t.Errorf("share[%d] = %v, want 30", i, s)
		}
	}
}

func TestFIFOFillsInIDOrder(t *testing.T) {
	// Shuffle the input order; FIFO must still honor ID order.
	children := []Child{
		{ID: 2, MaxPower: 100}, {ID: 0, MaxPower: 100}, {ID: 1, MaxPower: 100},
	}
	shares := FIFO{}.Divide(nil, 150, children)
	// ID 0 gets 100, ID 1 gets 50, ID 2 gets 0.
	if shares[1] != 100 || shares[2] != 50 || shares[0] != 0 {
		t.Errorf("FIFO shares = %v", shares)
	}
}

func TestPriorityOrder(t *testing.T) {
	shares := Priority{}.Divide(nil, 150, kids())
	// Priorities 3 (ID 1), 2 (ID 2), 1 (ID 0): ID1 -> 100, ID2 -> 50, ID0 -> 0.
	if shares[1] != 100 || shares[2] != 50 || shares[0] != 0 {
		t.Errorf("priority shares = %v", shares)
	}
}

func TestPriorityTieBreaksByID(t *testing.T) {
	children := []Child{
		{ID: 5, MaxPower: 100, Priority: 1},
		{ID: 3, MaxPower: 100, Priority: 1},
	}
	shares := Priority{}.Divide(nil, 100, children)
	if shares[1] != 100 || shares[0] != 0 {
		t.Errorf("tie-break shares = %v", shares)
	}
}

func TestRandomSeededDeterministic(t *testing.T) {
	a := Random{Rng: rand.New(rand.NewSource(7))}.Divide(nil, 150, kids())
	b := Random{Rng: rand.New(rand.NewSource(7))}.Divide(nil, 150, kids())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	// Nil RNG degrades to deterministic fill, not a panic.
	c := Random{}.Divide(nil, 150, kids())
	if len(c) != 3 {
		t.Fatalf("nil-rng shares = %v", c)
	}
}

func TestHistorySmoothes(t *testing.T) {
	h := &History{}
	steady := []Child{{ID: 0, Power: 100, MaxPower: 100}, {ID: 1, Power: 100, MaxPower: 100}}
	h.Divide(nil, 200, steady)
	// Child 0 spikes to 0; EWMA should keep it above the floor-weight level.
	spiked := []Child{{ID: 0, Power: 0, MaxPower: 100}, {ID: 1, Power: 100, MaxPower: 100}}
	shares := h.Divide(nil, 200, spiked)
	instant := Proportional{}.Divide(nil, 200, spiked)
	if shares[0] <= instant[0] {
		t.Errorf("history share %v should exceed instantaneous %v after a dip", shares[0], instant[0])
	}
}

func TestHistoryZeroValueUsable(t *testing.T) {
	var h History
	shares := h.Divide(nil, 100, kids())
	if len(shares) != 3 {
		t.Fatalf("shares = %v", shares)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, err := ByName(name, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		if p.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, p.Name())
		}
	}
	if p, err := ByName("", nil); err != nil || p.Name() != "proportional" {
		t.Error("empty name should default to proportional")
	}
	if _, err := ByName("bogus", nil); err == nil {
		t.Error("unknown policy accepted")
	}
}

// Property: for any total and child set, proportional never exceeds the
// budget and conserves it fully when children have any weight.
func TestProportionalConservesProperty(t *testing.T) {
	f := func(powers []float64, rawTotal float64) bool {
		total := math.Mod(math.Abs(rawTotal), 10000)
		children := make([]Child, len(powers))
		for i, p := range powers {
			children[i] = Child{ID: i, Power: math.Mod(math.Abs(p), 500), MaxPower: 500}
		}
		shares := Proportional{}.Divide(nil, total, children)
		sum := 0.0
		for _, s := range shares {
			if s < 0 {
				return false
			}
			sum += s
		}
		if len(children) == 0 || total == 0 {
			return sum == 0
		}
		return math.Abs(sum-total) < 1e-6*math.Max(total, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Divide into a reused buffer gives the shares of a fresh division bit for
// bit whatever the buffer held, in the buffer's own array when it is large
// enough.
func TestDivideReusesDst(t *testing.T) {
	fresh, reused := allPolicies(), allPolicies()
	for i, p := range fresh {
		dst := []float64{-7, math.NaN(), 1e9, 3}
		for _, total := range []float64{0, 50, 175, 10000} {
			want := p.Divide(nil, total, kids())
			got := reused[i].Divide(dst, total, kids())
			if &got[0] != &dst[0] {
				t.Errorf("%s: shares not written into dst", p.Name())
			}
			for c := range want {
				if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
					t.Errorf("%s at %v W: share %d = %v, a fresh division gave %v", p.Name(), total, c, got[c], want[c])
				}
			}
			dst = got
		}
	}
}
