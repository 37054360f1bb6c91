package control

// This file provides the analytic plants used to verify the Appendix-A
// stability results. They model the system exactly as the appendix does:
// continuous frequency (quantization ignored), demand constant on the time
// scale of the loop.

// FrequencyPlant is the EC's plant: a CPU whose capacity is its clock
// frequency f and whose demand is f_D. Consumption f_C = min(f, f_D),
// utilization r = f_C/f (Appendix A, eq. 1).
type FrequencyPlant struct {
	// FD is the workload demand expressed in frequency units.
	FD float64
}

// Observe returns (r, fC) at frequency f.
func (p FrequencyPlant) Observe(f float64) (r, fC float64) {
	fC = p.FD
	if f < fC {
		fC = f
	}
	if f <= 0 {
		return 0, 0
	}
	return fC / f, fC
}

// SteadyStateFrequency returns the fixed point f0 = f_D / r_ref the EC
// should converge to when f_D < r_ref * f_max.
func (p FrequencyPlant) SteadyStateFrequency(rRef float64) float64 {
	return p.FD / rRef
}

// PowerPlant is the SM's plant as linearized in Appendix A (eq. 6):
// steady-state power is a decreasing affine function of the utilization
// target, pow = -c*r_ref + d with slope magnitude c > 0.
//
// (The appendix writes pow = c·r_ref + d with c > 0 and then uses
// pow(k̂)−pow(k̂−1) = c·(r_ref(k̂)−r_ref(k̂−1)) with a sign convention folded
// into the loop; physically raising r_ref lowers power, so we keep the
// explicit negative slope and verify the same closed-loop recurrence
// pow(k̂) = (1−β c)·pow(k̂−1) + β c·cap.)
type PowerPlant struct {
	// C is the magnitude of the power/r_ref slope (Watts per unit r_ref).
	C float64
	// D is the power at r_ref = 0 (Watts).
	D float64
}

// Power returns the steady-state power at a given utilization target.
func (p PowerPlant) Power(rRef float64) float64 {
	return -p.C*rRef + p.D
}
