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
	"strconv"
	"sync"

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
	traces := make([]*trace.Trace, n)
	if err := generate(traces, 0, p); err != nil {
		return nil, err
	}
	return &trace.Set{Name: fmt.Sprintf("gen-%d", n), Traces: traces}, nil
}

// generate fills dst with len(dst) traces cycling through the workload
// classes, naming trace i after its class and index first+i, so a tier of a
// blended mix is named in place. Every sample of the call sits in one
// backing array and every trace in one array of traces: two allocations
// instead of 2·len(dst). A retained trace keeps both alive.
func generate(dst []*trace.Trace, first int, p Params) error {
	if p.Ticks <= 0 {
		return fmt.Errorf("tracegen: ticks = %d", p.Ticks)
	}
	if p.TicksPerDay <= 0 {
		p.TicksPerDay = 1000
	}
	if p.Level <= 0 {
		p.Level = 1.0
	}
	stack := max(p.Stack, 1)
	rng := rand.New(rand.NewSource(p.Seed))
	classes := Classes()
	day := newDayTable(p.Ticks, p.TicksPerDay)
	samples := make([]float64, len(dst)*p.Ticks)
	traces := make([]trace.Trace, len(dst))
	wave := make([]float64, len(day.pos))
	var part []float64
	if stack > 1 {
		part = make([]float64, p.Ticks)
	}
	for i := range dst {
		cls := classes[i%len(classes)]
		demand := samples[i*p.Ticks : (i+1)*p.Ticks]
		if stack == 1 {
			fill(demand, wave, cls, p.Level, day, rng)
		} else {
			// The paper's stacking construction (60HH stacks two traces,
			// 60HHH three; §4.3): each independently drawn part added in
			// turn to a zeroed sum.
			for s := 0; s < stack; s++ {
				fill(part, wave, cls, p.Level, day, rng)
				for k, d := range part {
					demand[k] += d
				}
			}
		}
		// New inlines, so copying its trace into the array allocates
		// nothing.
		traces[i] = *trace.New(traceName(cls.Name, first+i), cls.Name, demand)
		// Demand above ~1.3 of a full server is unrealistic for a single
		// consolidatable VM; clip so stacked mixes stay servable-ish.
		dst[i] = traces[i].Clip(1.3)
	}
	return nil
}

// traceName formats fmt.Sprintf("%s-%03d", class, i) without the
// formatter: a fleet-scale mix names one trace per server.
func traceName(class string, i int) string {
	var buf [32]byte
	b := append(buf[:0], class...)
	b = append(b, '-')
	for pad := 100; pad > 1 && i < pad; pad /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// dayTable tabulates what every trace of a call shares about tick k: the
// position k%TicksPerDay/TicksPerDay within the synthetic day and the sine
// angle 2π·position, the latter rounded before a trace adds its phase. It
// covers min(ticks, TicksPerDay) ticks, all a call can index.
type dayTable struct {
	pos, angle []float64
}

func newDayTable(ticks, perDay int) dayTable {
	n := min(ticks, perDay)
	d := dayTable{pos: make([]float64, n), angle: make([]float64, n)}
	for j := range n {
		d.pos[j] = float64(j) / float64(perDay)
		d.angle[j] = float64(2 * math.Pi * d.pos[j])
	}
	return d
}

// fill synthesizes one trace into dst: base + diurnal + AR(1) noise +
// bursts, scaled by level and clamped to be non-negative. The diurnal term
// depends on the tick only through its position in the day, so fill
// computes it once per position of the first day into wave (scratch of
// len(day.pos)) and every later day reads it back.
func fill(dst, wave []float64, cls Class, level float64, day dayTable, rng *rand.Rand) {
	// Each conversion rounds, so no GOARCH fuses the source's scaling or
	// this product into a multiply-add (internal/tracegen is in FMA_PKGS).
	u := float64(rng.Float64())
	phase := float64(u * 2 * math.Pi)
	halfAmp := cls.DiurnalAmp * 0.5
	for j, pos := range day.pos {
		if cls.BusinessHours {
			// Plateau between ~08:00 and ~18:00 of the synthetic day.
			wave[j] = 0
			if pos > 0.33 && pos < 0.75 {
				wave[j] = cls.DiurnalAmp
			}
		} else {
			wave[j] = halfAmp * (1 + math.Sin(day.angle[j]+phase))
		}
	}
	// The AR(1) innovation scale that keeps the noise's std-dev at sigma.
	innov := math.Sqrt(1 - float64(cls.NoisePhi*cls.NoisePhi))
	ar := 0.0
	burstLeft := 0
	j := 0 // k % TicksPerDay
	for k := range dst {
		diurnal := wave[j]
		if j++; j == len(wave) {
			j = 0
		}
		ar = float64(cls.NoisePhi*ar) + float64(rng.NormFloat64()*cls.NoiseSigma*innov)
		if burstLeft > 0 {
			burstLeft--
		} else if rng.Float64() < cls.BurstProb {
			burstLeft = 1 + rng.Intn(2*cls.BurstLen)
		}
		var burst float64
		if burstLeft > 0 {
			burst = cls.BurstAmp
		}
		d := (cls.Base + diurnal + ar + burst) * level
		if d < 0 {
			d = 0
		}
		dst[k] = d
	}
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
// so the schedule is reproducible bit-for-bit from (n, ticks, seed). Every
// trace reads the one schedule (trace.OnSchedule) instead of a copy: sample
// k of a trace is sched[max(k−offset, 0)]·amp·Level, and the set holds
// ticks + O(n) floats, not n·ticks.
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
	set := &trace.Set{Name: fmt.Sprintf("aiburst-%d", n), Traces: make([]*trace.Trace, n)}
	for i := range set.Traces {
		offset := rng.Intn(3) // the fleet steps within ~3 ticks
		// ±3 % group-to-group spread, rounded step by step as in fill.
		u := float64(rng.Float64())
		amp := 1 + float64(0.06*(u-0.5))
		set.Traces[i] = trace.OnSchedule(traceName(aiClassName, i), aiClassName, sched, offset, amp, p.Level)
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
	tierOf := func(n int, seed int64, level float64, stack int) tier {
		return tier{n, Params{Ticks: ticks, Seed: seed, Level: level, Stack: stack}}
	}
	switch mix {
	case Mix180:
		return blend(mix, tierOf(120, seed, 0.55, 1), tierOf(60, seed+1, 0.95, 1))
	case Mix60L:
		return blend(mix, tierOf(60, seed, 0.6, 1))
	case Mix60M:
		return blend(mix, tierOf(60, seed, 1.2, 1))
	case Mix60H:
		return blend(mix, tierOf(60, seed, 1.8, 1))
	case Mix60HH:
		return blend(mix, tierOf(60, seed, 0.85, 2))
	case Mix60HHH:
		return blend(mix, tierOf(60, seed, 0.85, 3))
	case MixAIBurst:
		return aiBurst(mix, 60, ticks, seed)
	case MixHetero:
		return buildHetero(mix, 60, ticks, seed)
	}
	if n, ok := heteroMixSize(mix); ok {
		return buildHetero(mix, n, ticks, seed)
	}
	if n, ok := aiBurstMixSize(mix); ok {
		return aiBurst(mix, n, ticks, seed)
	}
	if n, ok := scaleMixSize(mix); ok {
		// The Mix180 blend generalized to n workloads: two-thirds low-level,
		// the rest medium, seeds split the same way.
		nLo := 2 * n / 3
		return blend(mix, tierOf(nLo, seed, 0.55, 1), tierOf(n-nLo, seed+1, 0.95, 1))
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
	return blend(mix,
		tier{nLo, Params{Ticks: ticks, Seed: seed, Level: 0.55}},
		tier{nMid, Params{Ticks: ticks, Seed: seed + 1, Level: 0.95}},
		tier{n - nLo - nMid, Params{Ticks: ticks, Seed: seed + 2, Level: 0.85, Stack: 2}})
}

// tier is one independently seeded part of a mix: n traces from Generate's
// parameters.
type tier struct {
	n int
	p Params
}

// blend synthesizes a mix's tiers, each on its own goroutine, into one set
// in tier order; empty tiers are skipped. Each tier draws from its own
// seeded source into its own arena and names its own index range of the
// set, so neither the order nor a bit of the result depends on how the
// goroutines are scheduled.
func blend(mix Mix, tiers ...tier) (*trace.Set, error) {
	total := 0
	for _, t := range tiers {
		total += t.n
	}
	set := &trace.Set{Name: string(mix), Traces: make([]*trace.Trace, total)}
	errs := make([]error, len(tiers))
	var wg sync.WaitGroup
	first := 0
	for i, t := range tiers {
		if t.n > 0 {
			wg.Add(1)
			go func(first int) {
				defer wg.Done()
				errs[i] = generate(set.Traces[first:first+t.n], first, t.p)
			}(first)
		}
		first += t.n
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return set, nil
}

// aiBurst generates an n-trace AI-training mix under the mix's name.
func aiBurst(mix Mix, n, ticks int, seed int64) (*trace.Set, error) {
	set, err := GenerateAIBurst(n, Params{Ticks: ticks, Seed: seed})
	if err != nil {
		return nil, err
	}
	set.Name = string(mix)
	return set, nil
}
