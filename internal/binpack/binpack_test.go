package binpack

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// stdBin builds a BladeA-like bin: idle 60 W, slope 40 W, capacity 0.85.
func stdBin(id, enclosure int, budget float64) Bin {
	return Bin{
		ID: id, Capacity: 0.85, FullCapacity: 1.0,
		IdlePower: 60, PowerSlope: 40,
		PowerBudget: budget, Enclosure: enclosure, On: true,
	}
}

func bins(n int, budget float64) []Bin {
	out := make([]Bin, n)
	for i := range out {
		out[i] = stdBin(i, -1, budget)
	}
	return out
}

func TestSolveValidation(t *testing.T) {
	if _, err := Solve(Problem{}); err == nil {
		t.Error("no bins accepted")
	}
	if _, err := Solve(Problem{Bins: []Bin{{ID: 0, Capacity: 0}}}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Solve(Problem{Bins: []Bin{stdBin(1, -1, 100), stdBin(1, -1, 100)}}); err == nil {
		t.Error("duplicate bin IDs accepted")
	}

	// A NaN fails every comparison, so before it was rejected it switched
	// off the check it reached: a NaN-capacity bin took every item.
	nan := math.NaN()
	items := make([]Item, 10)
	for i := range items {
		items[i] = Item{ID: i, Demand: 0.5, Current: 3}
	}
	for _, tc := range []struct {
		name string
		edit func(*Problem)
		want string // the bin, item or budget the error must name
	}{
		{"NaN capacity", func(p *Problem) { p.Bins[1].Capacity = nan }, "bin 7"},
		{"NaN full capacity", func(p *Problem) { p.Bins[1].FullCapacity = nan }, "bin 7"},
		{"NaN idle power", func(p *Problem) { p.Bins[1].IdlePower = nan }, "bin 7"},
		{"NaN power slope", func(p *Problem) { p.Bins[1].PowerSlope = nan }, "bin 7"},
		{"NaN power budget", func(p *Problem) { p.Bins[1].PowerBudget = nan }, "bin 7"},
		{"NaN enclosure budget", func(p *Problem) { p.EnclosureBudgets[2] = nan }, "enclosure 2"},
		{"NaN group budget", func(p *Problem) { p.GroupBudget = nan }, "group budget"},
		{"NaN demand", func(p *Problem) { p.Items[4].Demand = nan }, "item 4"},
		{"negative demand", func(p *Problem) { p.Items[4].Demand = -0.1 }, "item 4"},
	} {
		p := Problem{
			Items:            append([]Item(nil), items...),
			Bins:             []Bin{stdBin(3, 2, math.Inf(1)), stdBin(7, 2, math.Inf(1))},
			EnclosureBudgets: map[int]float64{2: 500},
			GroupBudget:      1000,
		}
		tc.edit(&p)
		res, err := Solve(p)
		if err == nil {
			t.Errorf("%s accepted: %+v", tc.name, *res)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// genProblem draws a valid problem shaped to reach every branch of Solve:
// 1-40 bins and 0-60 items; FullCapacity zero, below and above Capacity;
// bins cloned from earlier ones, exactly or one ulp of idle power apart,
// so costs tie on the 1e-12 rule; enclosures with and without budgets and
// a budget keyed -1; group budget and DelayWeight on and off; migration
// weights of either sign; items with no current bin or a missing one;
// repeated demands, demands of exactly the largest bin's tolerance, and
// demands no bin can hold.
func genProblem(rng *rand.Rand) Problem {
	m, n, encs := 1+rng.Intn(40), rng.Intn(61), 1+rng.Intn(4)
	ids := rng.Perm(2 * m) // distinct, and mostly not the bin's index
	bins := make([]Bin, m)
	for i := range bins {
		if i > 0 && rng.Intn(4) == 0 {
			b := bins[rng.Intn(i)]
			switch rng.Intn(3) {
			case 1:
				b.IdlePower = math.Nextafter(b.IdlePower, math.Inf(1))
			case 2:
				b.IdlePower = math.Nextafter(b.IdlePower, math.Inf(-1))
			}
			b.ID = ids[i]
			bins[i] = b
			continue
		}
		b := Bin{ID: ids[i], Capacity: 0.2 + 0.8*rng.Float64(),
			IdlePower: 30 + 50*rng.Float64(), PowerSlope: 10 + 50*rng.Float64(),
			PowerBudget: math.Inf(1), Enclosure: -1, On: true}
		switch rng.Intn(3) {
		case 1:
			b.FullCapacity = b.Capacity * (0.5 + 0.5*rng.Float64())
		case 2:
			b.FullCapacity = b.Capacity * (1 + rng.Float64())
		}
		if rng.Intn(2) == 0 {
			b.PowerBudget = b.IdlePower + b.PowerSlope*rng.Float64()
		}
		if rng.Intn(3) > 0 {
			b.Enclosure = rng.Intn(encs)
		}
		bins[i] = b
	}
	maxCap := 0.0
	for _, b := range bins {
		maxCap = max(maxCap, b.Capacity)
	}
	p := Problem{Bins: bins, EnclosureBudgets: map[int]float64{}}
	for e := -1; e < encs; e++ {
		if rng.Intn(2) == 0 {
			p.EnclosureBudgets[e] = 50 + 300*rng.Float64()
		}
	}
	switch rng.Intn(3) {
	case 1:
		p.GroupBudget = 80 + 40*float64(m)*rng.Float64()
	case 2:
		p.GroupBudget = -1
	}
	switch rng.Intn(3) {
	case 1:
		p.MigrationWeight = 10 * rng.Float64()
	case 2:
		p.MigrationWeight = -5 * rng.Float64()
	}
	if rng.Intn(3) == 0 {
		p.DelayWeight = 500 * rng.Float64()
	}
	pool := []float64{0.1, 0.25, 0.3 * rng.Float64(), bins[0].Capacity}
	p.Items = make([]Item, n)
	for i := range p.Items {
		it := Item{ID: i, Demand: 0.6 * rng.Float64(), Current: bins[rng.Intn(m)].ID}
		switch rng.Intn(8) {
		case 0, 1:
			it.Demand = pool[rng.Intn(len(pool))]
		case 2:
			it.Demand = maxCap + 1e-12
		case 3:
			it.Demand = math.Nextafter(maxCap+1e-12, math.Inf(1))
		case 4:
			it.Demand = maxCap + rng.Float64()
		case 5:
			it.Demand = 0
		}
		switch rng.Intn(6) {
		case 0:
			it.Current = -1
		case 1:
			it.Current = 2*m + rng.Intn(3) // no bin has this ID
		}
		p.Items[i] = it
	}
	return p
}

// diffResult names the first field where two results differ, comparing
// EstimatedPower bit for bit, or returns "".
func diffResult(got, want *Result) string {
	switch {
	case len(got.Assignment) != len(want.Assignment):
		return fmt.Sprintf("len(Assignment) %d, want %d", len(got.Assignment), len(want.Assignment))
	case got.Migrations != want.Migrations:
		return fmt.Sprintf("Migrations %d, want %d", got.Migrations, want.Migrations)
	case got.Unplaced != want.Unplaced:
		return fmt.Sprintf("Unplaced %d, want %d", got.Unplaced, want.Unplaced)
	case got.OpenBins != want.OpenBins:
		return fmt.Sprintf("OpenBins %d, want %d", got.OpenBins, want.OpenBins)
	case math.Float64bits(got.EstimatedPower) != math.Float64bits(want.EstimatedPower):
		return fmt.Sprintf("EstimatedPower %v, want %v", got.EstimatedPower, want.EstimatedPower)
	}
	for i := range got.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			return fmt.Sprintf("Assignment[%d] %d, want %d", i, got.Assignment[i], want.Assignment[i])
		}
	}
	return ""
}

// Solve returns bit-for-bit what the original implementation returns.
func TestSolveMatchesReference(t *testing.T) {
	unplaced := 0
	for seed := int64(0); seed < 20000; seed++ {
		p := genProblem(rand.New(rand.NewSource(seed)))
		want, err := referenceSolve(p)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Solve(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if d := diffResult(got, want); d != "" {
			t.Fatalf("seed %d (%d bins, %d items): %s", seed, len(p.Bins), len(p.Items), d)
		}
		unplaced += want.Unplaced
	}
	if unplaced == 0 {
		t.Error("no problem left an item unplaced")
	}
}

// decodeProblem builds a problem from fuzz bytes. Each number is one byte:
// its low four bits pick a value from a palette that holds the packer's
// usual magnitudes, 0, -1, +Inf and NaN, and its top two bits may move the
// value one ulp up or down. Missing bytes read as 0.
func decodeProblem(data []byte) Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	palette := [16]float64{0, 0.1, 0.2, 0.25, 0.5, 0.85, 1, 1.3, 2, 40, 60, 80, 100,
		math.Inf(1), -1, math.NaN()}
	val := func() float64 {
		b := next()
		v := palette[b&15]
		switch b >> 6 {
		case 1:
			v = math.Nextafter(v, math.Inf(1))
		case 2:
			v = math.Nextafter(v, math.Inf(-1))
		}
		return v
	}
	flags := next()
	p := Problem{MigrationWeight: val(), EnclosureBudgets: map[int]float64{}}
	if flags&1 != 0 {
		p.GroupBudget = val()
	}
	if flags&2 != 0 {
		p.DelayWeight = val()
	}
	for e := -1; e < 3; e++ {
		if flags&(4<<(e+1)) != 0 {
			p.EnclosureBudgets[e] = val()
		}
	}
	m, n := 1+next()%8, next()%16
	for i := 0; i < m; i++ {
		p.Bins = append(p.Bins, Bin{ID: next() % 16, Capacity: val(), FullCapacity: val(),
			IdlePower: val(), PowerSlope: val(), PowerBudget: val(), Enclosure: next()%4 - 1})
	}
	for i := 0; i < n; i++ {
		p.Items = append(p.Items, Item{ID: i, Demand: val(), Current: next()%18 - 1})
	}
	return p
}

// FuzzSolve holds Solve to the reference on every problem it accepts.
func FuzzSolve(f *testing.F) {
	// flags, migration weight, bins, items, then each bin's ID, Capacity,
	// FullCapacity, IdlePower, PowerSlope, PowerBudget and enclosure byte,
	// then each item's Demand and current-bin byte (palette indexes: 0.5 is
	// 4, 0.85 is 5, 1 is 6, 1.3 is 7, 40 is 9, 60 is 10, +Inf is 13).
	f.Add([]byte{0, 0, 1, 1, 0, 5, 6, 10, 9, 13, 0, 1, 5, 6, 10, 9, 13, 0, 4, 0}) // two identical bins tie
	f.Add([]byte{0, 0, 0, 2, 0, 5, 6, 10, 9, 13, 0, 7, 1, 4, 1})                  // 1.3 fits no 0.85 bin
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProblem(data)
		got, err := Solve(p)
		if err != nil {
			return
		}
		want, err := referenceSolve(p)
		if err != nil {
			t.Fatalf("Solve accepted what the reference rejects: %v", err)
		}
		if d := diffResult(got, want); d != "" {
			t.Fatalf("%s\nproblem: %+v", d, p)
		}
	})
}

func TestConsolidatesOntoFewBins(t *testing.T) {
	items := make([]Item, 8)
	for i := range items {
		items[i] = Item{ID: i, Demand: 0.2, Current: i}
	}
	res, err := Solve(Problem{Items: items, Bins: bins(8, math.Inf(1)), MigrationWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	// 8 * 0.2 = 1.6 demand fits in 2 bins of capacity 0.85.
	if res.OpenBins != 2 {
		t.Errorf("OpenBins = %d, want 2", res.OpenBins)
	}
	if res.Unplaced != 0 {
		t.Errorf("Unplaced = %d", res.Unplaced)
	}
}

func TestRespectsCapacity(t *testing.T) {
	items := []Item{{ID: 0, Demand: 0.5, Current: 0}, {ID: 1, Demand: 0.5, Current: 0}}
	res, err := Solve(Problem{Items: items, Bins: bins(3, math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] == res.Assignment[1] {
		t.Error("two 0.5 items on one 0.85 bin")
	}
}

func TestRespectsLocalPowerBudget(t *testing.T) {
	// Budget 80 W: idle 60 + 40r <= 80 -> r <= 0.5 -> load <= 0.5.
	items := []Item{{ID: 0, Demand: 0.4, Current: 0}, {ID: 1, Demand: 0.4, Current: 0}}
	res, err := Solve(Problem{Items: items, Bins: bins(2, 80)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[0] == res.Assignment[1] {
		t.Error("budget-violating co-location")
	}
	if res.Unplaced != 0 {
		t.Errorf("Unplaced = %d", res.Unplaced)
	}
}

func TestRespectsEnclosureBudget(t *testing.T) {
	// Two bins in enclosure 0 with a shared budget that admits only one
	// loaded bin; a third standalone bin takes the spillover.
	bs := []Bin{stdBin(0, 0, math.Inf(1)), stdBin(1, 0, math.Inf(1)), stdBin(2, -1, math.Inf(1))}
	items := []Item{{ID: 0, Demand: 0.5, Current: 0}, {ID: 1, Demand: 0.5, Current: 1}}
	res, err := Solve(Problem{
		Items: items, Bins: bs,
		EnclosureBudgets: map[int]float64{0: 90}, // one ~80 W bin fits, two don't
		MigrationWeight:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inEnc := 0
	for _, a := range res.Assignment {
		if bs[a].Enclosure == 0 {
			inEnc++
		}
	}
	if inEnc != 1 {
		t.Errorf("%d items in the constrained enclosure, want 1", inEnc)
	}
}

func TestRespectsGroupBudget(t *testing.T) {
	// Group budget admits one opened bin (~76 W) but not two (>120 W).
	items := []Item{{ID: 0, Demand: 0.4, Current: 0}, {ID: 1, Demand: 0.5, Current: 1}}
	res, err := Solve(Problem{Items: items, Bins: bins(4, math.Inf(1)), GroupBudget: 110})
	if err != nil {
		t.Fatal(err)
	}
	// 0.4+0.5 = 0.9 > capacity 0.85, so they cannot share; the group budget
	// forbids a second bin -> one item is unplaced.
	if res.Unplaced != 1 {
		t.Errorf("Unplaced = %d, want 1", res.Unplaced)
	}
}

func TestMigrationWeightKeepsItemsHome(t *testing.T) {
	// Two items on separate bins; consolidation would save ~55 W (one idle),
	// so a small migration weight allows it and a huge one forbids it.
	items := []Item{{ID: 0, Demand: 0.3, Current: 0}, {ID: 1, Demand: 0.3, Current: 1}}
	cheap, err := Solve(Problem{Items: items, Bins: bins(2, math.Inf(1)), MigrationWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cheap.Migrations != 1 || cheap.OpenBins != 1 {
		t.Errorf("cheap migration: %d moves, %d bins", cheap.Migrations, cheap.OpenBins)
	}
	sticky, err := Solve(Problem{Items: items, Bins: bins(2, math.Inf(1)), MigrationWeight: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if sticky.Migrations != 0 || sticky.OpenBins != 2 {
		t.Errorf("sticky migration: %d moves, %d bins", sticky.Migrations, sticky.OpenBins)
	}
}

func TestUnplacedFallsBackToCurrentBin(t *testing.T) {
	items := []Item{{ID: 0, Demand: 2.0, Current: 1}} // fits nowhere
	res, err := Solve(Problem{Items: items, Bins: bins(3, math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unplaced != 1 {
		t.Fatalf("Unplaced = %d", res.Unplaced)
	}
	if res.Assignment[0] != 1 {
		t.Errorf("fallback bin = %d, want current bin 1", res.Assignment[0])
	}
	if res.Migrations != 0 {
		t.Errorf("fallback counted as migration")
	}
}

func TestEstimatedPowerAccounting(t *testing.T) {
	items := []Item{{ID: 0, Demand: 0.4, Current: 0}}
	res, err := Solve(Problem{Items: items, Bins: bins(2, math.Inf(1))})
	if err != nil {
		t.Fatal(err)
	}
	want := 60 + 40*0.4 // one open bin at r = 0.4/1.0
	if math.Abs(res.EstimatedPower-want) > 1e-9 {
		t.Errorf("EstimatedPower = %v, want %v", res.EstimatedPower, want)
	}
	if res.OpenBins != 1 {
		t.Errorf("OpenBins = %d", res.OpenBins)
	}
}

func TestDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := make([]Item, 40)
	for i := range items {
		items[i] = Item{ID: i, Demand: 0.05 + 0.4*rng.Float64(), Current: i % 20}
	}
	p := Problem{Items: items, Bins: bins(20, 95), MigrationWeight: 5}
	a, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("nondeterministic at item %d", i)
		}
	}
}

func TestLargerDemandPlacedFirst(t *testing.T) {
	// A big item and small items competing for one tight bin: the big item
	// must win the slot (decreasing-order greedy).
	bs := []Bin{stdBin(0, -1, math.Inf(1))}
	bs[0].Capacity = 0.6
	items := []Item{
		{ID: 0, Demand: 0.1, Current: 0},
		{ID: 1, Demand: 0.55, Current: 0},
	}
	res, err := Solve(Problem{Items: items, Bins: bs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[1] != 0 {
		t.Error("large item displaced from the only bin")
	}
	if res.Unplaced != 1 {
		t.Errorf("Unplaced = %d, want 1 (the small item)", res.Unplaced)
	}
}

// The energy-delay objective spreads load: with a high DelayWeight the
// packer opens more bins than the pure-power objective would.
func TestDelayWeightSpreadsLoad(t *testing.T) {
	items := make([]Item, 6)
	for i := range items {
		items[i] = Item{ID: i, Demand: 0.25, Current: i}
	}
	pure, err := Solve(Problem{Items: items, Bins: bins(6, math.Inf(1)), MigrationWeight: 1})
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Solve(Problem{Items: items, Bins: bins(6, math.Inf(1)),
		MigrationWeight: 1, DelayWeight: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if spread.OpenBins <= pure.OpenBins {
		t.Errorf("energy-delay packing opened %d bins, pure power %d — expected spreading",
			spread.OpenBins, pure.OpenBins)
	}
}

// Property: placements never exceed capacity (excluding unplaced fallbacks)
// and every item is assigned to some bin.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := 3 + rng.Intn(10)
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{ID: i, Demand: 0.05 + 0.6*rng.Float64(), Current: rng.Intn(m)}
		}
		res, err := Solve(Problem{Items: items, Bins: bins(m, math.Inf(1)), MigrationWeight: 3})
		if err != nil {
			return false
		}
		load := make([]float64, m)
		placed := 0
		for i, a := range res.Assignment {
			if a < 0 || a >= m {
				return false
			}
			load[a] += items[i].Demand
			placed++
		}
		if placed != n {
			return false
		}
		if res.Unplaced == 0 {
			for _, l := range load {
				if l > 0.85+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: with ample capacity, consolidation never opens more bins than
// the trivial ceiling of total demand / capacity plus one.
func TestConsolidationQualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(20)
		items := make([]Item, n)
		total := 0.0
		for i := range items {
			d := 0.05 + 0.3*rng.Float64()
			items[i] = Item{ID: i, Demand: d, Current: i % 5}
			total += d
		}
		res, err := Solve(Problem{Items: items, Bins: bins(n, math.Inf(1)), MigrationWeight: 2})
		if err != nil {
			return false
		}
		// First-fit-decreasing guarantee: <= 2x optimal bins + 1 is loose
		// enough to never flake, tight enough to catch broken consolidation.
		optimal := int(math.Ceil(total / 0.85))
		return res.OpenBins <= 2*optimal+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
