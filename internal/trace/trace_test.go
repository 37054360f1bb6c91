package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func mk(name string, demand ...float64) *Trace {
	return &Trace{Name: name, Class: "test", Demand: demand}
}

func TestAtWrapsCyclically(t *testing.T) {
	tr := mk("t", 0.1, 0.2, 0.3)
	for k, want := range map[int]float64{0: 0.1, 1: 0.2, 2: 0.3, 3: 0.1, 7: 0.2, 300: 0.1} {
		if got := tr.At(k); got != want {
			t.Errorf("At(%d) = %v, want %v", k, got, want)
		}
	}
	empty := &Trace{Name: "e"}
	if empty.At(5) != 0 {
		t.Error("empty trace should read 0")
	}
}

func TestValidate(t *testing.T) {
	if err := mk("ok", 0, 0.5, 1.2).Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Name: "empty"},
		mk("neg", 0.1, -0.1),
		mk("nan", math.NaN()),
		mk("inf", math.Inf(1)),
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("trace %s should fail validation", tr.Name)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := mk("t", 0.5)
	c := tr.Clone()
	c.Demand[0] = 0.9
	if tr.Demand[0] != 0.5 {
		t.Error("Clone shares backing array")
	}
	if c.Name != tr.Name || c.Class != tr.Class {
		t.Error("Clone dropped metadata")
	}
}

func TestClipAndScale(t *testing.T) {
	tr := mk("t", 0.5, 1.5, 2.5).Clip(1.0)
	want := []float64{0.5, 1.0, 1.0}
	for i, w := range want {
		if tr.Demand[i] != w {
			t.Errorf("Clip[%d] = %v, want %v", i, tr.Demand[i], w)
		}
	}
	tr.Scale(2)
	for i, w := range want {
		if tr.Demand[i] != 2*w {
			t.Errorf("Scale[%d] = %v, want %v", i, tr.Demand[i], 2*w)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := mk("t", 0.1, 0.2, 0.3, 0.4)
	s := tr.Summarize()
	if math.Abs(s.Mean-0.25) > 1e-12 {
		t.Errorf("Mean = %v", s.Mean)
	}
	if s.Min != 0.1 || s.Max != 0.4 {
		t.Errorf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if math.Abs(s.P50-0.25) > 1e-9 {
		t.Errorf("P50 = %v", s.P50)
	}
	if s.P95 <= s.P50 || s.P95 > s.Max {
		t.Errorf("P95 = %v out of order", s.P95)
	}
	wantStd := math.Sqrt((0.15*0.15 + 0.05*0.05 + 0.05*0.05 + 0.15*0.15) / 4)
	if math.Abs(s.StdDev-wantStd) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", s.StdDev, wantStd)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := (&Trace{}).Summarize(); s.Mean != 0 || s.Max != 0 {
		t.Errorf("empty Summarize = %+v", s)
	}
	s := mk("one", 0.7).Summarize()
	if s.Mean != 0.7 || s.P99 != 0.7 || s.StdDev != 0 {
		t.Errorf("single-sample Summarize = %+v", s)
	}
}

func TestSetMeanDemand(t *testing.T) {
	s := &Set{Name: "s", Traces: []*Trace{mk("a", 0.2, 0.2), mk("b", 0.4, 0.4)}}
	if got := s.MeanDemand(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("MeanDemand = %v", got)
	}
	if (&Set{}).MeanDemand() != 0 {
		t.Error("empty set mean should be 0")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := &Set{Name: "mix", Traces: []*Trace{
		mk("a", 0.125, 0.25, 0.5),
		mk("b", 1.0, 0.0, 0.75),
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf, "mix")
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != in.Len() {
		t.Fatalf("round trip lost traces: %d", out.Len())
	}
	for i, tr := range out.Traces {
		if tr.Name != in.Traces[i].Name || tr.Class != in.Traces[i].Class {
			t.Errorf("trace %d metadata mismatch: %q/%q", i, tr.Name, tr.Class)
		}
		for k := range tr.Demand {
			if tr.Demand[k] != in.Traces[i].Demand[k] {
				t.Errorf("trace %d tick %d: %v != %v", i, k, tr.Demand[k], in.Traces[i].Demand[k])
			}
		}
	}
}

func TestWriteCSVRejectsRagged(t *testing.T) {
	s := &Set{Name: "bad", Traces: []*Trace{mk("a", 1, 2), mk("b", 1)}}
	if err := WriteCSV(&bytes.Buffer{}, s); err == nil {
		t.Error("ragged set should be rejected")
	}
	if err := WriteCSV(&bytes.Buffer{}, &Set{Name: "empty"}); err == nil {
		t.Error("empty set should be rejected")
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"no classes": "a,b\n",
		"bad number": "a\ntest\nxyz\n",
		"negative":   "a\ntest\n-0.5\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data), "x"); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}
