package tracegen

import "math/rand"

// oneForTest exposes the single-trace generator to tests with a fixed RNG.
func oneForTest(cls Class, p Params) []float64 {
	demand := make([]float64, p.Ticks)
	day := newDayTable(p.Ticks, p.TicksPerDay)
	fill(demand, make([]float64, len(day.pos)), cls, p.Level, day, rand.New(rand.NewSource(p.Seed)))
	return demand
}
