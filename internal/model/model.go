// Package model defines the power/performance models of the simulated
// server hardware.
//
// Following the paper (Fig. 5 and the "Models" equations in Fig. 6), a server
// in P-state p running at CPU utilization r in [0,1] draws
//
//	pow(p, r)  = c_p*r + d_p        (Watts)
//
// and delivers performance (work done, as a fraction of the work the machine
// could do at its top frequency when fully busy)
//
//	perf(p, r) = a_p*r
//
// where a_p = f_p/f_0 is the P-state's relative frequency. Both are linear in
// utilization; monotonicity across P-states (higher frequency => higher power
// at equal utilization, and higher performance) is a structural assumption of
// the controllers and is validated by this package's tests.
//
// Two calibrations ship with the package, mirroring the two systems the paper
// measured: BladeA (a low-power blade, 5 non-uniformly spaced P-states, wide
// power range) and ServerB (an entry-level 2U server, 6 uniformly spaced
// P-states, narrow power range, high idle power).
package model

import (
	"fmt"
	"math"
	"sort"
)

// PState is one operating point of a processor: a frequency and the linear
// power-model coefficients measured at that frequency.
type PState struct {
	// FreqMHz is the clock frequency of this P-state.
	FreqMHz float64
	// C is the slope of the power model: Watts per unit utilization.
	C float64
	// D is the intercept of the power model: idle Watts at this P-state.
	D float64
}

// Power returns the power draw in Watts at utilization r (clamped to [0,1]).
func (p PState) Power(r float64) float64 {
	return p.C*clamp01(r) + p.D
}

// Max returns the power draw at full utilization.
func (p PState) Max() float64 { return p.C + p.D }

// Model is the calibrated power/performance model of one server type.
// PStates are ordered from P0 (highest frequency) downwards, matching the
// ACPI convention used throughout the paper.
type Model struct {
	// Name identifies the calibration ("BladeA", "ServerB", ...).
	Name string
	// Cores is the advertised core count of the machine (informational:
	// utilization is a scalar fraction of the whole box, so cores never
	// enter the power/performance math; profile tables report it).
	Cores int
	// PStates holds the operating points, P0 first (highest frequency).
	PStates []PState
	// OffWatts is the draw of a machine that the VMC has powered off.
	OffWatts float64

	// Derived lookup tables, frozen by Validate. The hot per-server-tick
	// paths (Capacity, Quantize, MaxFreq) hit these instead of re-deriving
	// from PStates: the values are the exact results of the same
	// expressions, so cached and uncached models are bit-identical. The
	// tables are only trusted while they match len(PStates) — mutating
	// PStates after Validate requires calling Validate again; the hot-path
	// accessors enforce that by panicking on a length mismatch (see tab)
	// instead of silently recomputing from the mutated ladder.
	freqs   []float64 // freqs[p] = PStates[p].FreqMHz
	relFreq []float64 // relFreq[p] = PStates[p].FreqMHz / PStates[0].FreqMHz
	powC    []float64 // powC[p] = PStates[p].C
	powD    []float64 // powD[p] = PStates[p].D
	// frozen records that freeze has run. Once frozen, a length mismatch
	// between PStates and the tables is a caller bug (mutation without
	// re-Validate) and the accessors panic loudly rather than serve stale
	// or silently re-derived values.
	frozen bool
}

// Validate checks the structural assumptions the controllers rely on:
// at least two P-states, strictly decreasing frequency, monotonically
// non-increasing power at equal utilization, and positive coefficients.
func (m *Model) Validate() error {
	if len(m.PStates) < 2 {
		return fmt.Errorf("model %s: need at least 2 P-states, have %d", m.Name, len(m.PStates))
	}
	for i, ps := range m.PStates {
		if ps.FreqMHz <= 0 || ps.C <= 0 || ps.D < 0 {
			return fmt.Errorf("model %s: P%d has non-positive coefficients %+v", m.Name, i, ps)
		}
		if i == 0 {
			continue
		}
		prev := m.PStates[i-1]
		if ps.FreqMHz >= prev.FreqMHz {
			return fmt.Errorf("model %s: P%d frequency %.0f not below P%d frequency %.0f",
				m.Name, i, ps.FreqMHz, i-1, prev.FreqMHz)
		}
		// Monotonic power: at any utilization a deeper P-state must not
		// draw more. Linearity means checking the endpoints suffices.
		if ps.D > prev.D || ps.Max() > prev.Max() {
			return fmt.Errorf("model %s: P%d power not below P%d", m.Name, i, i-1)
		}
	}
	if m.OffWatts < 0 {
		return fmt.Errorf("model %s: negative off power", m.Name)
	}
	m.freeze()
	return nil
}

// freeze (re)builds the derived lookup tables from PStates. Called by
// Validate, which every model passes through before a cluster uses it.
func (m *Model) freeze() {
	n := len(m.PStates)
	m.freqs = make([]float64, n)
	m.relFreq = make([]float64, n)
	m.powC = make([]float64, n)
	m.powD = make([]float64, n)
	for i := range m.PStates {
		m.freqs[i] = m.PStates[i].FreqMHz
		m.relFreq[i] = m.PStates[i].FreqMHz / m.PStates[0].FreqMHz
		m.powC[i] = m.PStates[i].C
		m.powD[i] = m.PStates[i].D
	}
	m.frozen = true
}

// tab ensures the frozen lookup tables match PStates before a hot-path
// accessor uses them. A never-validated model (hand-built in a test, say) is
// frozen lazily — the tables are pure functions of PStates, so lazy and
// eager freezing are bit-identical. A model that WAS validated and whose
// PStates were then mutated is a bug: the old code silently fell back to
// re-deriving from PStates in some accessors but served stale tables in
// others, so the same model answered inconsistently. Panic instead.
//
// Only the length check stays here, so tab inlines into every hot-path
// accessor; the rare branch is outlined into retab.
func (m *Model) tab() {
	if len(m.freqs) != len(m.PStates) {
		m.retab()
	}
}

// retab freezes a never-validated model's tables, or panics if a validated
// model's PStates changed since.
func (m *Model) retab() {
	if m.frozen {
		panic(fmt.Sprintf("model %s: PStates mutated after Validate (%d states, tables frozen at %d); call Validate again",
			m.Name, len(m.PStates), len(m.freqs)))
	}
	m.freeze()
}

// NumPStates returns the number of operating points.
func (m *Model) NumPStates() int { return len(m.PStates) }

// MaxFreq returns the P0 frequency in MHz.
func (m *Model) MaxFreq() float64 { return m.PStates[0].FreqMHz }

// MinFreq returns the deepest P-state's frequency in MHz.
func (m *Model) MinFreq() float64 { return m.PStates[len(m.PStates)-1].FreqMHz }

// MaxPower returns the maximum possible draw: P0 fully utilized. Static
// budgets ("10% off server max") are expressed against this value.
func (m *Model) MaxPower() float64 { return m.PStates[0].Max() }

// MinActivePower returns the smallest possible draw of a powered-on machine:
// the deepest P-state at zero utilization.
func (m *Model) MinActivePower() float64 { return m.PStates[len(m.PStates)-1].D }

// RelFreq returns a_p = f_p/f_0, the performance slope of P-state p.
func (m *Model) RelFreq(p int) float64 {
	m.tab()
	return m.relFreq[p]
}

// Power returns the draw at P-state p and utilization r. Same coefficients,
// same expression as PState.Power — the frozen columns only save the PState
// struct copy per call.
func (m *Model) Power(p int, r float64) float64 {
	m.tab()
	return m.powC[p]*clamp01(r) + m.powD[p]
}

// Capacity returns the compute capacity of P-state p as a fraction of the
// full-speed capacity. It equals RelFreq; the alias exists because the
// simulator uses it in the capacity sense (f_p/f_0).
func (m *Model) Capacity(p int) float64 { return m.RelFreq(p) }

// Quantize maps a desired frequency (MHz) to the index of the nearest
// available P-state, the f -> f_q step in the paper's EC.
func (m *Model) Quantize(freqMHz float64) int {
	m.tab()
	best, bestDist := 0, math.Inf(1)
	for i, f := range m.freqs {
		if d := math.Abs(f - freqMHz); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// ClampFreq limits a continuous desired frequency to the model's range.
func (m *Model) ClampFreq(freqMHz float64) float64 {
	if freqMHz > m.MaxFreq() {
		return m.MaxFreq()
	}
	if freqMHz < m.MinFreq() {
		return m.MinFreq()
	}
	return freqMHz
}

// PowerAtFreq interpolates the power model between the two P-states
// bracketing a continuous frequency. Used by the stability analysis, which
// (like Appendix A) ignores quantization.
func (m *Model) PowerAtFreq(freqMHz, r float64) float64 {
	freqMHz = m.ClampFreq(freqMHz)
	// PStates are sorted by decreasing frequency.
	hi := 0
	for hi < len(m.PStates)-1 && m.PStates[hi+1].FreqMHz >= freqMHz {
		hi++
	}
	if hi == len(m.PStates)-1 || m.PStates[hi].FreqMHz == freqMHz {
		return m.PStates[hi].Power(r)
	}
	lo := hi + 1 // lower frequency
	fHi, fLo := m.PStates[hi].FreqMHz, m.PStates[lo].FreqMHz
	t := (freqMHz - fLo) / (fHi - fLo)
	return (1-t)*m.PStates[lo].Power(r) + t*m.PStates[hi].Power(r)
}

// ECSteadyPower returns the steady-state draw of a server managed by the
// efficiency controller at utilization target rRef while serving a total
// load (in full-speed units): the EC sets capacity ≈ load/rRef, clamped to
// the frequency range, and the plant runs at the resulting utilization.
// Quantization is ignored (the Appendix-A treatment); the curve is the
// envelope the coordinated VMC uses to judge placement feasibility.
func (m *Model) ECSteadyPower(rRef, load float64) float64 {
	if load <= 0 {
		return m.MinActivePower()
	}
	if rRef <= 0 {
		rRef = 0.75
	}
	fRel := load / rRef
	fMinRel := m.MinFreq() / m.MaxFreq()
	switch {
	case fRel >= 1:
		// Wants more than full speed: pinned at P0, r = min(1, load).
		return m.Power(0, load)
	case fRel <= fMinRel:
		// Floor frequency: utilization below target.
		return m.PStates[len(m.PStates)-1].Power(load / fMinRel)
	default:
		return m.PowerAtFreq(fRel*m.MaxFreq(), rRef)
	}
}

// MaxLoadUnderCap returns the largest load (in full-speed units, up to
// maxLoad) whose EC-steady-state draw stays within the power budget, or 0 if
// even an idle machine exceeds it. Found by bisection; ECSteadyPower is
// monotone in load.
func (m *Model) MaxLoadUnderCap(rRef, budget, maxLoad float64) float64 {
	if m.ECSteadyPower(rRef, 0) > budget {
		return 0
	}
	if m.ECSteadyPower(rRef, maxLoad) <= budget {
		return maxLoad
	}
	lo, hi := 0.0, maxLoad
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if m.ECSteadyPower(rRef, mid) <= budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// CapSlopeMax returns c_max, an upper bound on the sensitivity |d pow / d r_ref|
// of steady-state server power to the utilization target, used to bound the
// SM gain (Appendix A: stability iff 0 < beta_loc < 2/c_max).
//
// At steady state the EC holds r = r_ref by setting capacity = f_D/r_ref, so
// pow ≈ c_p*r_ref + d_p with p chosen so f_p ≈ f_D/r_ref. Raising r_ref
// shrinks capacity and moves the machine down the ladder; the magnitude of
// the power change per unit r_ref is bounded by the steepest power/frequency
// gradient times the largest f_D/r_ref^2 plus the direct c_p term. We bound
// it conservatively by the largest total power swing across the ladder plus
// the steepest slope, which is safe (larger c_max => smaller, still-stable
// gain).
func (m *Model) CapSlopeMax() float64 {
	maxC := 0.0
	for _, ps := range m.PStates {
		if ps.C > maxC {
			maxC = ps.C
		}
	}
	swing := m.MaxPower() - m.MinActivePower()
	// r_ref ranges over [0.75, 1]; the worst-case frequency sensitivity is
	// f_D/r_ref^2 <= f_0/0.75^2 in relative units, i.e. a factor ~1.78 on
	// the ladder swing.
	return maxC + swing/(0.75*0.75)
}

// Pick returns a reduced model keeping only the given P-state indices
// (which must include 0). Used for the "number of P-states" study (§5.3):
// e.g. keeping only the two extreme states.
func (m *Model) Pick(indices ...int) (*Model, error) {
	if len(indices) < 2 {
		return nil, fmt.Errorf("model %s: Pick needs at least 2 states", m.Name)
	}
	sorted := append([]int(nil), indices...)
	sort.Ints(sorted)
	if sorted[0] != 0 {
		return nil, fmt.Errorf("model %s: Pick must include P0", m.Name)
	}
	out := &Model{
		// The derived name contains '/', which the registry refuses to
		// register — reduced models can never shadow a catalog profile.
		Name:     fmt.Sprintf("%s/%dstates", m.Name, len(sorted)),
		Cores:    m.Cores,
		OffWatts: m.OffWatts,
	}
	seen := -1
	for _, idx := range sorted {
		if idx == seen {
			continue // ignore duplicates
		}
		seen = idx
		if idx < 0 || idx >= len(m.PStates) {
			return nil, fmt.Errorf("model %s: Pick index %d out of range", m.Name, idx)
		}
		out.PStates = append(out.PStates, m.PStates[idx])
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// TwoExtremes returns the model reduced to its highest and lowest P-states.
func (m *Model) TwoExtremes() *Model {
	reduced, err := m.Pick(0, len(m.PStates)-1)
	if err != nil {
		// Only possible on an invalid model; surface loudly.
		panic(err)
	}
	return reduced
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
