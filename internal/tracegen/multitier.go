package tracegen

import (
	"fmt"
	"math"
	"math/rand"

	"nopower/internal/trace"
)

// The paper's trace corpus covers "several classes of individual and
// multi-tier workloads" (§4.3). This file synthesizes the multi-tier kind:
// a stack of web → app → db tiers serving one user population, so the
// tiers share the diurnal phase and the request bursts, with per-tier
// intensity scaling and a small amount of tier-local noise.

// Tier describes one layer of a multi-tier application.
type Tier struct {
	// Name suffixes the trace name ("web", "app", "db").
	Name string
	// Gain scales the shared request signal into this tier's utilization.
	Gain float64
	// LocalNoise is the std-dev of tier-local AR(1) noise.
	LocalNoise float64
	// Class labels the generated trace for component weighting.
	Class string
}

// DefaultTiers returns the classic three-tier shape: the web tier rides the
// request volume, the app tier amplifies it (business logic), the db tier
// sees a damped, cache-absorbed version.
func DefaultTiers() []Tier {
	return []Tier{
		{Name: "web", Gain: 1.0, LocalNoise: 0.03, Class: "web"},
		{Name: "app", Gain: 1.3, LocalNoise: 0.04, Class: "ecommerce"},
		{Name: "db", Gain: 0.7, LocalNoise: 0.05, Class: "db"},
	}
}

// GenerateMultiTier produces stacks*len(tiers) traces: each stack shares one
// request signal (diurnal + bursts + AR noise) that every tier scales by its
// gain and perturbs with local noise. Traces are ordered stack-major:
// stack0/web, stack0/app, stack0/db, stack1/web, ...
func GenerateMultiTier(stacks int, tiers []Tier, p Params) (*trace.Set, error) {
	if stacks <= 0 {
		return nil, fmt.Errorf("tracegen: stacks = %d", stacks)
	}
	if len(tiers) == 0 {
		tiers = DefaultTiers()
	}
	if p.Ticks <= 0 {
		return nil, fmt.Errorf("tracegen: ticks = %d", p.Ticks)
	}
	if p.TicksPerDay <= 0 {
		p.TicksPerDay = 1000
	}
	if p.Level <= 0 {
		p.Level = 1.0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	set := &trace.Set{Name: fmt.Sprintf("tiered-%dx%d", stacks, len(tiers))}

	base := Class{ // the shared request-volume signal
		Base: 0.15, DiurnalAmp: 0.15,
		NoiseSigma: 0.04, NoisePhi: 0.85,
		BurstProb: 0.005, BurstAmp: 0.30, BurstLen: 15,
	}
	day := newDayTable(p.Ticks, p.TicksPerDay)
	requests := make([]float64, p.Ticks)
	wave := make([]float64, len(day.pos))
	for s := 0; s < stacks; s++ {
		fill(requests, wave, base, p.Level, day, rng)
		for _, tier := range tiers {
			demand := make([]float64, p.Ticks)
			ar := 0.0
			const phi = 0.8
			for k := 0; k < p.Ticks; k++ {
				ar = float64(phi*ar) + float64(rng.NormFloat64()*tier.LocalNoise*math.Sqrt(1-phi*phi))
				d := float64(requests[k]*tier.Gain) + ar
				if d < 0 {
					d = 0
				}
				if d > 1.3 {
					d = 1.3
				}
				demand[k] = d
			}
			set.Traces = append(set.Traces, trace.New(fmt.Sprintf("stack%02d-%s", s, tier.Name), tier.Class, demand))
		}
	}
	return set, nil
}

// Correlation computes the Pearson correlation of two equal-length traces —
// the multi-tier tests use it to verify that tiers of one stack co-move
// while separate stacks do not.
func Correlation(a, b *trace.Trace) float64 {
	n := a.Len()
	if b.Len() < n {
		n = b.Len()
	}
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := 0; i < n; i++ {
		ma += a.At(i)
		mb += b.At(i)
	}
	ma /= float64(n)
	mb /= float64(n)
	var cov, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a.At(i)-ma, b.At(i)-mb
		cov += float64(da * db)
		va += float64(da * da)
		vb += float64(db * db)
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}
