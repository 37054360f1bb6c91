package cluster

import (
	"math"
	"math/rand"
	"testing"
)

// combine and foldPairs are the reduction reduceTree replaced: each level's
// pairs combined by value into the front of the slice, a level's odd partial
// out moved down after them.
func combine(a, b unitPartial) unitPartial {
	out := unitPartial{
		power: a.power + b.power, demand: a.demand + b.demand,
		delivered: a.delivered + b.delivered, violMass: a.violMass + b.violMass,
		on: a.on + b.on, violSM: a.violSM + b.violSM, violEM: a.violEM + b.violEM,
		hEnc: a.hEnc, hasEnc: a.hasEnc, hLoc: a.hLoc, hasLoc: a.hasLoc,
	}
	if b.hasEnc && (!out.hasEnc || b.hEnc < out.hEnc) {
		out.hEnc, out.hasEnc = b.hEnc, true
	}
	if b.hasLoc && (!out.hasLoc || b.hLoc < out.hLoc) {
		out.hLoc, out.hasLoc = b.hLoc, true
	}
	return out
}

func foldPairs(ps []unitPartial) unitPartial {
	n := len(ps)
	if n == 0 {
		return unitPartial{}
	}
	for n > 1 {
		half := n / 2
		for i := 0; i < half; i++ {
			ps[i] = combine(ps[2*i], ps[2*i+1])
		}
		if n%2 == 1 {
			ps[half] = ps[n-1]
			half++
		}
		n = half
	}
	return ps[0]
}

// randomPartial draws a unit partial whose sums round differently under any
// other association (magnitudes spread over nine decades) and whose
// headrooms tie often: they come from a short list holding both signed
// zeros and NaN, and an absent headroom keeps a stale value the merge must
// ignore.
func randomPartial(rng *rand.Rand) unitPartial {
	val := func() float64 { return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(10)-3)) }
	headrooms := []float64{-2.5, -1, math.Copysign(0, -1), 0, 0.5, 7, math.NaN()}
	head := func() float64 { return headrooms[rng.Intn(len(headrooms))] }
	return unitPartial{
		power: val(), demand: val(), delivered: val(), violMass: val(),
		hEnc: head(), hLoc: head(),
		on: rng.Intn(40), violSM: rng.Intn(5), violEM: rng.Intn(2),
		hasEnc: rng.Intn(2) == 0, hasLoc: rng.Intn(3) != 0,
	}
}

// samePartial compares two partials bit for bit.
func samePartial(a, b unitPartial) bool {
	bits := func(p unitPartial) [6]uint64 {
		return [6]uint64{math.Float64bits(p.power), math.Float64bits(p.demand), math.Float64bits(p.delivered),
			math.Float64bits(p.violMass), math.Float64bits(p.hEnc), math.Float64bits(p.hLoc)}
	}
	return bits(a) == bits(b) && a.on == b.on && a.violSM == b.violSM && a.violEM == b.violEM &&
		a.hasEnc == b.hasEnc && a.hasLoc == b.hasLoc
}

// TestReduceTreeMatchesPairFold holds the in-place reduction to the fold it
// replaced, bit for bit, on random partials for every length from 1 to 300.
func TestReduceTreeMatchesPairFold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= 300; n++ {
		for range 20 {
			ps := make([]unitPartial, n)
			for i := range ps {
				ps[i] = randomPartial(rng)
			}
			want := foldPairs(append([]unitPartial(nil), ps...))
			if got := reduceTree(ps); !samePartial(got, want) {
				t.Fatalf("n=%d: reduceTree = %+v, pair fold = %+v", n, got, want)
			}
		}
	}
	if got := reduceTree(nil); got != (unitPartial{}) {
		t.Errorf("reduceTree(nil) = %+v, want the zero partial", got)
	}
}
