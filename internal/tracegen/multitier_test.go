package tracegen

import (
	"testing"

	"nopower/internal/trace"
)

func TestGenerateMultiTierShape(t *testing.T) {
	set, err := GenerateMultiTier(4, nil, Params{Ticks: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 12 {
		t.Fatalf("%d traces, want 4 stacks x 3 tiers", set.Len())
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ordering: stack-major with tier suffixes.
	if set.Traces[0].Name != "stack00-web" || set.Traces[5].Name != "stack01-db" {
		t.Errorf("ordering wrong: %s, %s", set.Traces[0].Name, set.Traces[5].Name)
	}
	// The app tier amplifies the web tier (gain 1.3 vs 1.0).
	web := set.Traces[0].Summarize().Mean
	app := set.Traces[1].Summarize().Mean
	if app <= web {
		t.Errorf("app tier mean %.3f not above web tier %.3f", app, web)
	}
}

func TestGenerateMultiTierValidation(t *testing.T) {
	if _, err := GenerateMultiTier(0, nil, Params{Ticks: 10}); err == nil {
		t.Error("zero stacks accepted")
	}
	if _, err := GenerateMultiTier(2, nil, Params{Ticks: 0}); err == nil {
		t.Error("zero ticks accepted")
	}
}

// The defining property: tiers within a stack co-move (shared requests),
// while tiers of different stacks are nearly independent.
func TestMultiTierCorrelationStructure(t *testing.T) {
	set, err := GenerateMultiTier(3, nil, Params{Ticks: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	within := Correlation(set.Traces[0], set.Traces[1]) // stack0 web vs app
	across := Correlation(set.Traces[0], set.Traces[3]) // stack0 web vs stack1 web
	if within < 0.8 {
		t.Errorf("within-stack correlation %.2f too low — tiers should share the request signal", within)
	}
	if across > within-0.2 {
		t.Errorf("across-stack correlation %.2f too close to within-stack %.2f", across, within)
	}
}

func TestCorrelationBasics(t *testing.T) {
	a := trace.New("a", "", []float64{1, 2, 3, 4})
	b := trace.New("b", "", []float64{2, 4, 6, 8})
	if got := Correlation(a, a); got < 0.999 {
		t.Errorf("self correlation = %v", got)
	}
	if got := Correlation(a, b); got < 0.999 {
		t.Errorf("linear correlation = %v", got)
	}
	inv := trace.New("inv", "", []float64{4, 3, 2, 1})
	if got := Correlation(a, inv); got > -0.999 {
		t.Errorf("anti-correlation = %v", got)
	}
	flat := trace.New("flat", "", []float64{1, 1, 1, 1})
	if got := Correlation(a, flat); got != 0 {
		t.Errorf("zero-variance correlation = %v", got)
	}
	if got := Correlation(&trace.Trace{}, &trace.Trace{}); got != 0 {
		t.Errorf("empty correlation = %v", got)
	}
}

// Multi-tier stacks run through the whole system.
func TestMultiTierEndToEnd(t *testing.T) {
	set, err := GenerateMultiTier(5, nil, Params{Ticks: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 15 {
		t.Fatal("unexpected size")
	}
	// Every trace stays within physical bounds.
	for _, tr := range set.Traces {
		s := tr.Summarize()
		if s.Max > 1.3 || s.Min < 0 {
			t.Errorf("%s: range [%v, %v]", tr.Name, s.Min, s.Max)
		}
	}
}
