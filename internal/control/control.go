// Package control provides the control-theoretic primitives the paper's
// architecture is built on (Fig. 3, Fig. 6, Appendix A): the EC's
// self-tuning integral law, the SM's power-capping integral law, and the
// stability bounds on their gains.
//
// The design principle the paper leans on — "connecting the actuation at one
// layer to the inputs at another layer" — shows up here as plain data flow:
// the loops expose their references (r_ref, cap) as settable inputs so an
// outer controller can overload them, exactly like a workload change.
package control

import (
	"fmt"
	"math"
)

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// UtilizationLoop implements the EC control law (Fig. 6, eq. EC):
//
//	f(k) = f(k-1) − λ·(f_C(k-1)/r_ref)·(r_ref − r(k-1))
//
// where f is the (continuous, pre-quantization) clock frequency, f_C the
// measured consumption min(f, f_D), and r = f_C/f the utilization. The gain
// is self-tuning: the effective integral gain scales with the measured
// consumption, which is what makes the loop adapt to workload level.
// Appendix A: globally stable for 0 < λ < 1/r_ref (locally for < 2/r_ref).
type UtilizationLoop struct {
	// Lambda is the scaling parameter λ.
	Lambda float64
	// RRef is the utilization target r_ref.
	RRef float64
	// FMin and FMax bound the frequency actuator.
	FMin, FMax float64
	// F is the current continuous frequency.
	F float64
}

// NewUtilizationLoop builds an EC loop starting at full frequency. It
// returns a value, so a controller can keep one loop per server in a flat
// slice without a heap object each.
func NewUtilizationLoop(lambda, rRef, fMin, fMax float64) (UtilizationLoop, error) {
	if lambda <= 0 {
		return UtilizationLoop{}, fmt.Errorf("control: lambda %v must be positive", lambda)
	}
	if rRef <= 0 || rRef >= 1 {
		return UtilizationLoop{}, fmt.Errorf("control: r_ref %v must be in (0,1)", rRef)
	}
	if fMin <= 0 || fMax <= fMin {
		return UtilizationLoop{}, fmt.Errorf("control: bad frequency range [%v, %v]", fMin, fMax)
	}
	return UtilizationLoop{Lambda: lambda, RRef: rRef, FMin: fMin, FMax: fMax, F: fMax}, nil
}

// StepEC advances the loop given the measured utilization r and consumption
// fC (both from the previous interval) and returns the new frequency.
func (u *UtilizationLoop) StepEC(r, fC float64) float64 {
	u.F = Clamp(u.F-u.Lambda*(fC/u.RRef)*(u.RRef-r), u.FMin, u.FMax)
	return u.F
}

// MaxRRef bounds the settable utilization target. Values above 1 are legal
// and meaningful: the paper specifies only a LOWER bound (0.75) on r_ref,
// and a target above 1 is how the SM throttles a *saturated* server — with
// r pinned at 1, only r_ref > 1 makes the EC error (r_ref − r) positive and
// drives the frequency down the ladder.
const MaxRRef = 1.99

// Reference returns r_ref.
func (u *UtilizationLoop) Reference() float64 { return u.RRef }

// SetReference sets r_ref, clamped into (0, MaxRRef]. This is the channel
// the SM actuates.
func (u *UtilizationLoop) SetReference(ref float64) {
	u.RRef = Clamp(ref, 0.01, MaxRRef)
}

// CappingLoop implements the SM control law (Fig. 6, eq. SM):
//
//	r_ref(k̂) = r_ref(k̂-1) − β_loc·(cap_loc − pow(k̂-1))
//
// When power exceeds the cap the target utilization rises, which drives the
// nested EC to lower frequencies and hence lower power. Appendix A: stable
// for 0 < β_loc < 2/c_max where c is the local slope of steady-state power
// versus r_ref.
//
// The paper floors r_ref at 0.75 "to ensure reasonably high resource
// utilization even when the power consumption is below the local budget".
type CappingLoop struct {
	// Beta is the gain β_loc in r_ref units per Watt.
	Beta float64
	// DownScale scales the gain when power is UNDER the cap (recovery
	// direction). 0 or 1 keeps the symmetric textbook law; values in (0,1)
	// make the capper release its throttle more cautiously than it applies
	// it — the standard asymmetry of thermal protection loops, and what
	// keeps the violation duty cycle (hence heat accumulation) bounded
	// under sustained overload. Stability is unaffected: the effective gain
	// never exceeds Beta.
	DownScale float64
	// Cap is the power budget cap_loc in Watts (the reference).
	Cap float64
	// RRefMin and RRefMax bound the actuated utilization target.
	RRefMin, RRefMax float64
	// RRef is the current output fed to the nested EC.
	RRef float64
}

// NewCappingLoop builds an SM loop, by value like NewUtilizationLoop.
// rRef starts at the floor.
func NewCappingLoop(beta, cap, rRefMin, rRefMax float64) (CappingLoop, error) {
	if beta <= 0 {
		return CappingLoop{}, fmt.Errorf("control: beta %v must be positive", beta)
	}
	if cap <= 0 {
		return CappingLoop{}, fmt.Errorf("control: cap %v must be positive", cap)
	}
	if rRefMin <= 0 || rRefMax <= rRefMin || rRefMax > MaxRRef {
		return CappingLoop{}, fmt.Errorf("control: bad r_ref range [%v, %v]", rRefMin, rRefMax)
	}
	return CappingLoop{Beta: beta, Cap: cap, RRefMin: rRefMin, RRefMax: rRefMax, RRef: rRefMin}, nil
}

// Step consumes the measured power and returns the new r_ref.
func (c *CappingLoop) Step(pow float64) float64 {
	gain := c.Beta
	if pow < c.Cap && c.DownScale > 0 && c.DownScale < 1 {
		gain *= c.DownScale
	}
	c.RRef = Clamp(c.RRef-gain*(c.Cap-pow), c.RRefMin, c.RRefMax)
	return c.RRef
}

// SetReference sets the power cap — the channel the EM/GM actuate.
func (c *CappingLoop) SetReference(cap float64) {
	if cap > 0 {
		c.Cap = cap
	}
}

// StableBetaBound returns the Appendix-A bound 2/cMax for a given upper bound
// on the power/r_ref slope.
func StableBetaBound(cMax float64) float64 {
	if cMax <= 0 {
		return math.Inf(1)
	}
	return 2 / cMax
}

// DefaultBeta returns a conservative SM gain: half the stability bound.
func DefaultBeta(cMax float64) float64 {
	b := StableBetaBound(cMax) / 2
	if math.IsInf(b, 1) {
		return 1
	}
	return b
}
