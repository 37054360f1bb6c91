// Package tracegen synthesizes enterprise utilization traces.
//
// The paper drove its simulations with 180 proprietary utilization traces
// collected at nine enterprises across several workload classes (database
// servers, web servers, e-commerce, remote desktop infrastructure, ...; §4.3)
// — data we cannot obtain. This package is the documented substitution
// (DESIGN.md §2): a seeded generator producing traces with the statistical
// envelope the paper describes — predominantly low mean utilization
// (15–50 %), diurnal shape, autocorrelated noise and occasional bursts — plus
// the paper's own stacking construction for the high-utilization 60HH/60HHH
// mixes.
//
// Everything is driven by math/rand with explicit seeds, so any mix is
// reproducible bit-for-bit from (mix name, seed, length).
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"nopower/internal/trace"
)

// Class describes one workload family's statistical parameters.
type Class struct {
	// Name labels traces generated from this class.
	Name string
	// Base is the mean utilization floor of the class.
	Base float64
	// DiurnalAmp is the amplitude of the daily sinusoidal component.
	DiurnalAmp float64
	// BusinessHours narrows the diurnal bump to a work-day plateau when true
	// (remote desktop style) instead of a smooth sinusoid (web style).
	BusinessHours bool
	// NoiseSigma is the std-dev of the AR(1) noise component.
	NoiseSigma float64
	// NoisePhi is the AR(1) autocorrelation coefficient in [0,1).
	NoisePhi float64
	// BurstProb is the per-tick probability of starting a burst.
	BurstProb float64
	// BurstAmp is the added utilization during a burst.
	BurstAmp float64
	// BurstLen is the mean burst length in ticks.
	BurstLen int
	// CPUWeight, MemWeight, DiskWeight describe how the class's scalar
	// demand exercises a multi-component platform (internal/platform):
	// component demand = scalar demand × weight. A database pounds memory
	// and disk; a web server is CPU-dominant. All-zero weights default to
	// CPU-only (1, 0, 0).
	CPUWeight, MemWeight, DiskWeight float64
}

// ComponentWeights returns the class's (cpu, mem, disk) intensity vector,
// defaulting to CPU-only when unset.
func (c Class) ComponentWeights() (cpu, mem, disk float64) {
	if c.CPUWeight == 0 && c.MemWeight == 0 && c.DiskWeight == 0 {
		return 1, 0, 0
	}
	return c.CPUWeight, c.MemWeight, c.DiskWeight
}

// Classes returns the five enterprise workload families, mirroring the
// workload types the paper lists (§4.3).
func Classes() []Class {
	return []Class{
		{Name: "web", Base: 0.15, DiurnalAmp: 0.15, NoiseSigma: 0.04, NoisePhi: 0.85, BurstProb: 0.004, BurstAmp: 0.25, BurstLen: 12,
			CPUWeight: 1.0, MemWeight: 0.5, DiskWeight: 0.2},
		{Name: "db", Base: 0.22, DiurnalAmp: 0.08, NoiseSigma: 0.06, NoisePhi: 0.92, BurstProb: 0.008, BurstAmp: 0.30, BurstLen: 20,
			CPUWeight: 0.8, MemWeight: 1.0, DiskWeight: 0.9},
		{Name: "ecommerce", Base: 0.18, DiurnalAmp: 0.18, NoiseSigma: 0.05, NoisePhi: 0.80, BurstProb: 0.006, BurstAmp: 0.35, BurstLen: 15,
			CPUWeight: 1.0, MemWeight: 0.7, DiskWeight: 0.5},
		{Name: "remotedesktop", Base: 0.10, DiurnalAmp: 0.25, BusinessHours: true, NoiseSigma: 0.05, NoisePhi: 0.75, BurstProb: 0.002, BurstAmp: 0.15, BurstLen: 8,
			CPUWeight: 1.0, MemWeight: 0.8, DiskWeight: 0.1},
		{Name: "batch", Base: 0.12, DiurnalAmp: 0.05, NoiseSigma: 0.03, NoisePhi: 0.95, BurstProb: 0.003, BurstAmp: 0.55, BurstLen: 60,
			CPUWeight: 0.9, MemWeight: 0.6, DiskWeight: 1.0},
	}
}

// ClassByName resolves a workload class; nil if unknown.
func ClassByName(name string) *Class {
	for _, c := range Classes() {
		if c.Name == name {
			return &c
		}
	}
	return nil
}

// Params controls generation of one trace set.
type Params struct {
	// Ticks is the trace length.
	Ticks int
	// TicksPerDay sets the diurnal period. The default (0) means 1000.
	TicksPerDay int
	// Seed makes generation reproducible.
	Seed int64
	// Level globally scales utilization around the class defaults:
	// 1.0 = the class as-is; the L/M/H mixes use 0.6/1.2/2.0.
	Level float64
	// Stack >= 2 sums Stack independently generated traces per output trace
	// (the paper's 60HH/60HHH construction).
	Stack int
}

// Generate produces n traces cycling through the workload classes.
func Generate(n int, p Params) (*trace.Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tracegen: n = %d", n)
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
	stack := p.Stack
	if stack < 1 {
		stack = 1
	}
	rng := rand.New(rand.NewSource(p.Seed))
	classes := Classes()
	set := &trace.Set{Name: fmt.Sprintf("gen-%d", n)}
	for i := 0; i < n; i++ {
		cls := classes[i%len(classes)]
		parts := make([]*trace.Trace, stack)
		for s := 0; s < stack; s++ {
			parts[s] = one(fmt.Sprintf("%s-%03d", cls.Name, i), cls, p, rng)
		}
		tr := parts[0]
		if stack > 1 {
			tr = trace.Stack(fmt.Sprintf("%s-%03d", cls.Name, i), parts...)
			tr.Class = cls.Name
		}
		// Demand above ~1.3 of a full server is unrealistic for a single
		// consolidatable VM; clip so stacked mixes stay servable-ish.
		tr.Clip(1.3)
		set.Traces = append(set.Traces, tr)
	}
	return set, nil
}

// one synthesizes a single trace: base + diurnal + AR(1) noise + bursts,
// scaled by Level and clamped to be non-negative.
func one(name string, cls Class, p Params, rng *rand.Rand) *trace.Trace {
	tr := &trace.Trace{Name: name, Class: cls.Name, Demand: make([]float64, p.Ticks)}
	phase := rng.Float64() * 2 * math.Pi
	ar := 0.0
	burstLeft := 0
	for k := 0; k < p.Ticks; k++ {
		dayPos := float64(k%p.TicksPerDay) / float64(p.TicksPerDay)
		var diurnal float64
		if cls.BusinessHours {
			// Plateau between ~08:00 and ~18:00 of the synthetic day.
			if dayPos > 0.33 && dayPos < 0.75 {
				diurnal = cls.DiurnalAmp
			}
		} else {
			diurnal = cls.DiurnalAmp * 0.5 * (1 + math.Sin(2*math.Pi*dayPos+phase))
		}
		ar = cls.NoisePhi*ar + rng.NormFloat64()*cls.NoiseSigma*math.Sqrt(1-cls.NoisePhi*cls.NoisePhi)
		if burstLeft > 0 {
			burstLeft--
		} else if rng.Float64() < cls.BurstProb {
			burstLeft = 1 + rng.Intn(2*cls.BurstLen)
		}
		var burst float64
		if burstLeft > 0 {
			burst = cls.BurstAmp
		}
		d := (cls.Base + diurnal + ar + burst) * p.Level
		if d < 0 {
			d = 0
		}
		tr.Demand[k] = d
	}
	return tr
}

// AI-burst generation (WDPC-style): synchronized data-parallel training.
// Unlike the enterprise classes, where each trace evolves independently, an
// AI training fleet moves in lockstep — every accelerator group runs the
// same compute/all-reduce/checkpoint loop, so the whole mix swings between
// near-peak draw and a shallow stall within a few ticks. That synchronized
// step is the facility-stressing behavior the WDPC spec (SNIPPETS.md
// snippet 3) documents, and exactly the workload the facility manager's
// feed/cooling budget loop exists to absorb.
const (
	// aiComputeLevel is the demand during a compute phase — close to peak.
	aiComputeLevel = 0.95
	// aiStallLevel is the demand during an all-reduce/checkpoint stall.
	aiStallLevel = 0.20
	// aiClassName labels generated AI-burst traces.
	aiClassName = "aitrain"
)

// GenerateAIBurst produces n synchronized AI-training traces: one global
// square-wave schedule (compute phases of 30–60 ticks at ~0.95, stalls of
// 3–8 ticks at ~0.20) shared by every trace, with a per-trace start offset
// of 0–2 ticks (the step spans "a few ticks" fleet-wide, not one) and a
// small per-trace amplitude jitter. Driven entirely by the seeded source,
// so the schedule is reproducible bit-for-bit from (n, ticks, seed).
func GenerateAIBurst(n int, p Params) (*trace.Set, error) {
	if n <= 0 {
		return nil, fmt.Errorf("tracegen: n = %d", n)
	}
	if p.Ticks <= 0 {
		return nil, fmt.Errorf("tracegen: ticks = %d", p.Ticks)
	}
	if p.Level <= 0 {
		p.Level = 1.0
	}
	rng := rand.New(rand.NewSource(p.Seed))
	// The shared schedule first, so every trace sees the same phase edges.
	sched := make([]float64, p.Ticks)
	for k, high := 0, true; k < p.Ticks; high = !high {
		span := 3 + rng.Intn(6) // stall: 3–8 ticks
		lvl := aiStallLevel
		if high {
			span = 30 + rng.Intn(31) // compute: 30–60 ticks
			lvl = aiComputeLevel
		}
		for i := 0; i < span && k < p.Ticks; i++ {
			sched[k] = lvl
			k++
		}
	}
	set := &trace.Set{Name: fmt.Sprintf("aiburst-%d", n)}
	for i := 0; i < n; i++ {
		offset := rng.Intn(3)               // the fleet steps within ~3 ticks
		amp := 1 + 0.06*(rng.Float64()-0.5) // ±3 % group-to-group spread
		tr := &trace.Trace{Name: fmt.Sprintf("%s-%03d", aiClassName, i), Class: aiClassName,
			Demand: make([]float64, p.Ticks)}
		for k := 0; k < p.Ticks; k++ {
			src := k - offset
			if src < 0 {
				src = 0
			}
			tr.Demand[k] = sched[src] * amp * p.Level
		}
		set.Traces = append(set.Traces, tr)
	}
	return set, nil
}

// Mix names the canonical workload mixes of the evaluation (§4.3).
type Mix string

// The six mixes the paper evaluates.
const (
	Mix180   Mix = "180"   // all 180 workloads, mixed levels
	Mix60L   Mix = "60L"   // 60 low-utilization workloads
	Mix60M   Mix = "60M"   // 60 medium
	Mix60H   Mix = "60H"   // 60 high
	Mix60HH  Mix = "60HH"  // 60 stacked x2 (synthetic, higher)
	Mix60HHH Mix = "60HHH" // 60 stacked x3 (synthetic, highest)
)

// AllMixes lists every canonical mix in evaluation order.
func AllMixes() []Mix {
	return []Mix{Mix180, Mix60L, Mix60M, Mix60H, Mix60HH, Mix60HHH}
}

// ScaleMix names a synthetic fleet-scale mix of n workloads: the Mix180
// blend (two-thirds low, one-third medium utilization) scaled to any
// population. Used by the E17 scale experiment and BenchmarkScale10k.
func ScaleMix(n int) Mix { return Mix(fmt.Sprintf("scale%d", n)) }

// MixAIBurst is the canonical 60-trace AI-training mix (see GenerateAIBurst).
const MixAIBurst Mix = "aiburst"

// AIBurstMix names an AI-training mix of n synchronized workloads.
func AIBurstMix(n int) Mix { return Mix(fmt.Sprintf("aiburst%d", n)) }

// MixHetero is the canonical 60-trace heterogeneous-fleet mix: a utilization
// spread wider than Mix180 (half low, a medium tier, and a stacked-high
// tail) so a mixed-hardware fleet sees both consolidation pressure and DVFS
// headroom in one run. Pair it with Scenario.Profiles.
const MixHetero Mix = "hetero"

// HeteroMix names a heterogeneous-fleet mix of n workloads.
func HeteroMix(n int) Mix { return Mix(fmt.Sprintf("hetero%d", n)) }

// scaleMixSize parses a ScaleMix name; ok is false for the canonical mixes.
func scaleMixSize(mix Mix) (n int, ok bool) {
	return sizedMix(mix, "scale%d")
}

// aiBurstMixSize parses an AIBurstMix name (not the bare "aiburst").
func aiBurstMixSize(mix Mix) (n int, ok bool) {
	return sizedMix(mix, "aiburst%d")
}

// heteroMixSize parses a HeteroMix name (not the bare "hetero").
func heteroMixSize(mix Mix) (n int, ok bool) {
	return sizedMix(mix, "hetero%d")
}

// Known reports whether BuildMix generates the named mix. It generates
// nothing, so checking a scaleN name costs the same at any N.
func (m Mix) Known() bool {
	_, scale := scaleMixSize(m)
	_, burst := aiBurstMixSize(m)
	_, hetero := heteroMixSize(m)
	return scale || burst || hetero || m == MixAIBurst || m == MixHetero || slices.Contains(AllMixes(), m)
}

// sizedMix parses a "<prefix><n>" mix name against its format string.
func sizedMix(mix Mix, format string) (n int, ok bool) {
	var parsed int
	if _, err := fmt.Sscanf(string(mix), format, &parsed); err != nil || parsed <= 0 {
		return 0, false
	}
	if string(mix) != fmt.Sprintf(format, parsed) {
		return 0, false
	}
	return parsed, true
}

// BuildMix generates a canonical mix at the given length and seed.
// The 180 mix blends levels like the nine-enterprise corpus (mostly low,
// some medium); 60L/M/H scale one level; 60HH/HHH stack traces.
func BuildMix(mix Mix, ticks int, seed int64) (*trace.Set, error) {
	switch mix {
	case Mix180:
		lo, err := Generate(120, Params{Ticks: ticks, Seed: seed, Level: 0.55})
		if err != nil {
			return nil, err
		}
		mid, err := Generate(60, Params{Ticks: ticks, Seed: seed + 1, Level: 0.95})
		if err != nil {
			return nil, err
		}
		set := &trace.Set{Name: string(mix), Traces: append(lo.Traces, mid.Traces...)}
		renumber(set)
		return set, nil
	case Mix60L:
		set, err := Generate(60, Params{Ticks: ticks, Seed: seed, Level: 0.6})
		return named(mix, set, err)
	case Mix60M:
		set, err := Generate(60, Params{Ticks: ticks, Seed: seed, Level: 1.2})
		return named(mix, set, err)
	case Mix60H:
		set, err := Generate(60, Params{Ticks: ticks, Seed: seed, Level: 1.8})
		return named(mix, set, err)
	case Mix60HH:
		set, err := Generate(60, Params{Ticks: ticks, Seed: seed, Level: 0.85, Stack: 2})
		return named(mix, set, err)
	case Mix60HHH:
		set, err := Generate(60, Params{Ticks: ticks, Seed: seed, Level: 0.85, Stack: 3})
		return named(mix, set, err)
	case MixAIBurst:
		set, err := GenerateAIBurst(60, Params{Ticks: ticks, Seed: seed})
		return named(mix, set, err)
	}
	if mix == MixHetero {
		return buildHetero(mix, 60, ticks, seed)
	}
	if n, ok := heteroMixSize(mix); ok {
		return buildHetero(mix, n, ticks, seed)
	}
	if n, ok := aiBurstMixSize(mix); ok {
		set, err := GenerateAIBurst(n, Params{Ticks: ticks, Seed: seed})
		return named(mix, set, err)
	}
	if n, ok := scaleMixSize(mix); ok {
		// The Mix180 blend generalized to n workloads: two-thirds low-level,
		// the rest medium, seeds split the same way.
		nLo := 2 * n / 3
		nMid := n - nLo
		set := &trace.Set{Name: string(mix)}
		if nLo > 0 {
			lo, err := Generate(nLo, Params{Ticks: ticks, Seed: seed, Level: 0.55})
			if err != nil {
				return nil, err
			}
			set.Traces = append(set.Traces, lo.Traces...)
		}
		if nMid > 0 {
			mid, err := Generate(nMid, Params{Ticks: ticks, Seed: seed + 1, Level: 0.95})
			if err != nil {
				return nil, err
			}
			set.Traces = append(set.Traces, mid.Traces...)
		}
		renumber(set)
		return set, nil
	}
	return nil, fmt.Errorf("tracegen: unknown mix %q", mix)
}

// buildHetero blends three utilization tiers — n/2 low (0.55), 3n/10 medium
// (0.95), the rest stacked-high (x2 at 0.85, the 60HH construction) — with
// tier-split seeds like Mix180. The wide spread is deliberate: on a mixed
// fleet the low tier exercises consolidation onto the efficient boxes while
// the stacked tail keeps the big machines in their DVFS band.
func buildHetero(mix Mix, n, ticks int, seed int64) (*trace.Set, error) {
	nLo := n / 2
	nMid := 3 * n / 10
	nHi := n - nLo - nMid
	set := &trace.Set{Name: string(mix)}
	for _, tier := range []struct {
		count int
		p     Params
	}{
		{nLo, Params{Ticks: ticks, Seed: seed, Level: 0.55}},
		{nMid, Params{Ticks: ticks, Seed: seed + 1, Level: 0.95}},
		{nHi, Params{Ticks: ticks, Seed: seed + 2, Level: 0.85, Stack: 2}},
	} {
		if tier.count <= 0 {
			continue
		}
		part, err := Generate(tier.count, tier.p)
		if err != nil {
			return nil, err
		}
		set.Traces = append(set.Traces, part.Traces...)
	}
	if len(set.Traces) == 0 {
		return nil, fmt.Errorf("tracegen: hetero mix %q is empty", mix)
	}
	renumber(set)
	return set, nil
}

func named(mix Mix, set *trace.Set, err error) (*trace.Set, error) {
	if err != nil {
		return nil, err
	}
	set.Name = string(mix)
	renumber(set)
	return set, nil
}

// renumber gives traces unique sequential names within the set.
func renumber(set *trace.Set) {
	for i, tr := range set.Traces {
		tr.Name = fmt.Sprintf("%s-%03d", tr.Class, i)
	}
}
