package tracegen

import "math/rand"

// oneForTest exposes the single-trace generator to tests with a fixed RNG.
func oneForTest(cls Class, p Params) []float64 {
	demand := make([]float64, p.Ticks)
	fill(demand, cls, p.Level, newDayTable(p.Ticks, p.TicksPerDay), rand.New(rand.NewSource(p.Seed)))
	return demand
}
