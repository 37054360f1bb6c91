package tracegen

import (
	"math"
	"testing"
)

// TestMixKnown checks Known agrees with BuildMix on which names exist.
func TestMixKnown(t *testing.T) {
	for _, m := range []Mix{Mix180, Mix60L, Mix60HHH, MixAIBurst, MixHetero,
		ScaleMix(4), AIBurstMix(3), HeteroMix(10), "bogus", "scale0", "scale-2", "scale04", "60l", ""} {
		_, err := BuildMix(m, 1, 1)
		if m.Known() != (err == nil) {
			t.Errorf("%q: Known() = %v, BuildMix error %v", m, m.Known(), err)
		}
	}
	if !ScaleMix(1 << 40).Known() {
		t.Error("a large scale mix is a known name")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(10, Params{Ticks: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(10, Params{Ticks: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Traces {
		for k := 0; k < a.Traces[i].Len(); k++ {
			if a.Traces[i].At(k) != b.Traces[i].At(k) {
				t.Fatalf("trace %d tick %d differs across identical seeds", i, k)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(1, Params{Ticks: 200, Seed: 1})
	b, _ := Generate(1, Params{Ticks: 200, Seed: 2})
	same := true
	for k := 0; k < a.Traces[0].Len(); k++ {
		if a.Traces[0].At(k) != b.Traces[0].At(k) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidAndBounded(t *testing.T) {
	set, err := Generate(25, Params{Ticks: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tr := range set.Traces {
		s := tr.Summarize()
		if s.Max > 1.3 {
			t.Errorf("%s: max %v above clip", tr.Name, s.Max)
		}
		if s.Min < 0 {
			t.Errorf("%s: negative demand", tr.Name)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(0, Params{Ticks: 10}); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Generate(5, Params{Ticks: 0}); err == nil {
		t.Error("ticks=0 should fail")
	}
}

func TestClassesCycleThroughSet(t *testing.T) {
	set, _ := Generate(7, Params{Ticks: 50, Seed: 1})
	classes := Classes()
	for i, tr := range set.Traces {
		if tr.Class != classes[i%len(classes)].Name {
			t.Errorf("trace %d class = %s, want %s", i, tr.Class, classes[i%len(classes)].Name)
		}
	}
}

// The paper: "Most of our workload traces ... show relatively low utilization
// (15-50% in most cases)". The 180 mix must land in that envelope.
func TestMix180UtilizationEnvelope(t *testing.T) {
	set, err := BuildMix(Mix180, 2000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 180 {
		t.Fatalf("mix 180 has %d traces", set.Len())
	}
	mean := set.MeanDemand()
	if mean < 0.12 || mean > 0.50 {
		t.Errorf("180 mix mean demand %.3f outside the paper's 15-50%% envelope", mean)
	}
	inBand := 0
	for _, tr := range set.Traces {
		if m := tr.Summarize().Mean; m >= 0.08 && m <= 0.60 {
			inBand++
		}
	}
	if frac := float64(inBand) / 180; frac < 0.8 {
		t.Errorf("only %.0f%% of traces in the low-utilization band", frac*100)
	}
}

func TestMixLevelsOrdered(t *testing.T) {
	means := map[Mix]float64{}
	for _, m := range AllMixes() {
		set, err := BuildMix(m, 1500, 42)
		if err != nil {
			t.Fatal(err)
		}
		means[m] = set.MeanDemand()
	}
	order := []Mix{Mix60L, Mix60M, Mix60H}
	for i := 1; i < len(order); i++ {
		if means[order[i]] <= means[order[i-1]] {
			t.Errorf("mix %s mean %.3f not above %s mean %.3f",
				order[i], means[order[i]], order[i-1], means[order[i-1]])
		}
	}
	if means[Mix60HH] <= means[Mix60M] {
		t.Errorf("stacked 60HH mean %.3f should exceed 60M mean %.3f", means[Mix60HH], means[Mix60M])
	}
	if means[Mix60HHH] <= means[Mix60HH] {
		t.Errorf("60HHH mean %.3f should exceed 60HH mean %.3f", means[Mix60HHH], means[Mix60HH])
	}
}

func TestMixSizes(t *testing.T) {
	for _, m := range AllMixes() {
		set, err := BuildMix(m, 100, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := 60
		if m == Mix180 {
			want = 180
		}
		if set.Len() != want {
			t.Errorf("mix %s has %d traces, want %d", m, set.Len(), want)
		}
		if set.Name != string(m) {
			t.Errorf("mix %s named %q", m, set.Name)
		}
	}
	if _, err := BuildMix(Mix("nope"), 100, 1); err == nil {
		t.Error("unknown mix should fail")
	}
}

func TestHeteroMixSizesAndDeterminism(t *testing.T) {
	set, err := BuildMix(MixHetero, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 60 {
		t.Fatalf("hetero has %d traces, want 60", set.Len())
	}
	for _, n := range []int{10, 90} {
		sized, err := BuildMix(HeteroMix(n), 120, 7)
		if err != nil {
			t.Fatal(err)
		}
		if sized.Len() != n {
			t.Fatalf("hetero%d has %d traces", n, sized.Len())
		}
	}
	again, err := BuildMix(MixHetero, 120, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range set.Traces {
		a, b := set.Traces[i], again.Traces[i]
		for k := 0; k < a.Len(); k++ {
			if a.At(k) != b.At(k) {
				t.Fatalf("trace %d tick %d not reproducible", i, k)
			}
		}
	}
	// The stacked-high tail must actually be hotter than the low tier.
	mean := func(i int) float64 { return set.Traces[i].Summarize().Mean }
	if lo, hi := mean(0), mean(set.Len()-1); hi <= lo {
		t.Errorf("high tier mean %v not above low tier %v", hi, lo)
	}
}

func TestNamesUniqueWithinMix(t *testing.T) {
	set, _ := BuildMix(Mix180, 100, 3)
	seen := map[string]bool{}
	for _, tr := range set.Traces {
		if seen[tr.Name] {
			t.Fatalf("duplicate trace name %q", tr.Name)
		}
		seen[tr.Name] = true
	}
}

func TestDiurnalShapePresent(t *testing.T) {
	// A web-class trace should correlate with its daily sinusoid: the mean
	// over the busy half-day should exceed the quiet half-day.
	set, _ := Generate(1, Params{Ticks: 4000, TicksPerDay: 1000, Seed: 9})
	tr := set.Traces[0]
	if tr.Class != "web" {
		t.Fatalf("expected web trace first, got %s", tr.Class)
	}
	var dayMean [1000]float64
	days := tr.Len() / 1000
	for k := 0; k < tr.Len(); k++ {
		dayMean[k%1000] += tr.At(k) / float64(days)
	}
	min, max := math.Inf(1), math.Inf(-1)
	for _, v := range dayMean {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	if max-min < 0.05 {
		t.Errorf("diurnal swing %.3f too small — no daily shape", max-min)
	}
}

func TestBusinessHoursPlateau(t *testing.T) {
	cls := Classes()[3]
	if cls.Name != "remotedesktop" {
		t.Fatalf("class 3 = %s, want remotedesktop", cls.Name)
	}
	cls.NoiseSigma = 0
	cls.BurstProb = 0
	p := Params{Ticks: 1000, TicksPerDay: 1000, Seed: 5, Level: 1}
	// The plateau window is (0.33, 0.75) of the synthetic day.
	demand := oneForTest(cls, p)
	work := demand[500]  // inside plateau
	night := demand[100] // outside
	if work <= night {
		t.Errorf("business-hours demand %.3f not above off-hours %.3f", work, night)
	}
}
