package model

import (
	"fmt"
	"math"
)

// SPECpower-style host-profile library (ROADMAP item: heterogeneous fleets).
//
// The paper calibrates exactly two machines; its §5.1 observation that "the
// range of power control is likely more important than the granularity of
// control" only becomes testable across a spectrum of hardware. The profiles
// below span that spectrum the way public SPECpower_ssj2008 submissions do:
// from a low-power ARM-class microblade (tiny idle fraction, wide DVFS
// leverage) to a 128-core 2-socket monster (big absolute draw), with idle
// fraction, ladder width, P-state count, and OffWatts all varying.
//
// Each profile is constructed programmatically by specpower() from four
// headline numbers — peak Watts, idle fraction, frequency range, state
// count — using the same linear-per-P-state shape as the paper's models:
//
//	D_p = idle * (0.75 + 0.25*a_p)     (idle draw shrinks mildly down-ladder)
//	C_p = (peak - idle) * a_p^1.6      (dynamic power superlinear in freq,
//	                                    the f*V^2 shape DVFS exploits)
//
// where a_p = f_p/f_0. Both are monotone in a_p, so Validate's structural
// checks (strictly decreasing frequency, non-increasing D and Max) hold by
// construction; registration enforces them anyway.

// specpower builds a calibration from SPECpower-style headline numbers:
// `states` uniformly spaced P-states from fMaxMHz down to fMinMHz, peak draw
// peakW at P0 fully busy, idle draw idleFrac*peakW at P0 idle.
func specpower(name string, cores, states int, fMaxMHz, fMinMHz, peakW, idleFrac, offW float64) *Model {
	if states < 2 || fMinMHz >= fMaxMHz || idleFrac <= 0 || idleFrac >= 1 {
		panic(fmt.Sprintf("model: specpower %q: bad shape (states=%d f=[%g,%g] idle=%g)",
			name, states, fMinMHz, fMaxMHz, idleFrac))
	}
	idle := idleFrac * peakW
	dyn := peakW - idle
	m := &Model{Name: name, Cores: cores, OffWatts: offW, PStates: make([]PState, states)}
	for p := 0; p < states; p++ {
		f := fMaxMHz - float64(p)*(fMaxMHz-fMinMHz)/float64(states-1)
		a := f / fMaxMHz
		m.PStates[p] = PState{
			FreqMHz: f,
			C:       dyn * math.Pow(a, 1.6),
			D:       idle * (0.75 + 0.25*a),
		}
	}
	return m
}

// ARMMicroblade: a 16-core ARM-class microblade. Tiny absolute draw, very
// low idle fraction, wide relative DVFS range — the "wide control range"
// end of §5.1's spectrum, even wider than Blade A.
func ARMMicroblade() *Model {
	return specpower("ARMMicroblade", 16, 6, 2200, 1000, 45, 0.12, 2)
}

// EdgeNode8 : an 8-core edge node. Small, moderate idle, short ladder.
func EdgeNode8() *Model {
	return specpower("EdgeNode8", 8, 5, 1800, 800, 90, 0.40, 4)
}

// Dense2S56: a 56-core dense 2-socket server with a deep 10-step ladder —
// fine-grained control, moderate idle fraction.
func Dense2S56() *Model {
	return specpower("Dense2S56", 56, 10, 2600, 1200, 208, 0.28, 9)
}

// Cloud1S64: a 64-core single-socket cloud server. Low idle fraction for
// its class.
func Cloud1S64() *Model {
	return specpower("Cloud1S64", 64, 8, 2250, 1000, 240, 0.21, 8)
}

// LegacyHighIdle: a legacy 24-core box with a very high idle fraction and a
// stubby 4-state ladder — the "DVFS buys almost nothing" end of the
// spectrum, more extreme than Server B. Consolidation is the only lever.
func LegacyHighIdle() *Model {
	return specpower("LegacyHighIdle", 24, 4, 2100, 1500, 300, 0.62, 12)
}

// Rack2U32: a mainstream 32-core 2U rack server — the middle of the fleet.
func Rack2U32() *Model {
	return specpower("Rack2U32", 32, 7, 2400, 1100, 265, 0.35, 10)
}

// Epyc2S128: a 128-core 2-socket server, the biggest box in the library.
// Large absolute draw; a long 12-step ladder over a narrow relative range.
func Epyc2S128() *Model {
	return specpower("Epyc2S128", 128, 12, 2500, 1500, 430, 0.25, 15)
}

// Turbo1U48: a 48-core 1U with a tall 3 GHz ladder and low idle fraction —
// wide absolute control range at mid-size.
func Turbo1U48() *Model {
	return specpower("Turbo1U48", 48, 9, 3000, 1200, 350, 0.18, 11)
}

func init() {
	// The paper's two measured calibrations, with their historical aliases.
	mustRegister(BladeA, "bladea", "blade-a", "A")
	mustRegister(ServerB, "serverb", "server-b", "B")
	// The SPECpower-style library. Hyphenated aliases follow the same
	// convention as blade-a/server-b.
	mustRegister(ARMMicroblade, "arm-microblade")
	mustRegister(EdgeNode8, "edge-node-8")
	mustRegister(Dense2S56, "dense-2s-56")
	mustRegister(Cloud1S64, "cloud-1s-64")
	mustRegister(LegacyHighIdle, "legacy-high-idle")
	mustRegister(Rack2U32, "rack-2u-32")
	mustRegister(Epyc2S128, "epyc-2s-128")
	mustRegister(Turbo1U48, "turbo-1u-48")
}
