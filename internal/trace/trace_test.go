package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"unsafe"
)

func mk(name string, demand ...float64) *Trace {
	return New(name, "test", demand)
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
	c.samples[0] = 0.9
	if tr.At(0) != 0.5 {
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
		if tr.At(i) != w {
			t.Errorf("Clip[%d] = %v, want %v", i, tr.At(i), w)
		}
	}
	tr.Scale(2)
	for i, w := range want {
		if tr.At(i) != 2*w {
			t.Errorf("Scale[%d] = %v, want %v", i, tr.At(i), 2*w)
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
		for k := 0; k < tr.Len(); k++ {
			if tr.At(k) != in.Traces[i].At(k) {
				t.Errorf("trace %d tick %d: %v != %v", i, k, tr.At(k), in.Traces[i].At(k))
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

// onSchedule builds three traces over one schedule, at shifts 0–2 and
// distinct gains, and returns them with the samples each would have
// materialized: sched[max(k−shift, 0)]·gain·level.
func onSchedule() (sched []float64, traces []*Trace, want [][]float64) {
	sched = []float64{0.2, 0.95, 0.95, 0.95, 0.2, 0.2, 0.95}
	const level = 1.3
	for shift, gain := range []float64{1.01, 0.985, 1.0299} {
		traces = append(traces, OnSchedule("ai", "aitrain", sched, shift, gain, level))
		w := make([]float64, len(sched))
		for k := range w {
			w[k] = sched[max(k-shift, 0)] * gain * level
		}
		want = append(want, w)
	}
	return sched, traces, want
}

// bitsEqual reports whether two series match bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A schedule-backed trace reads like the trace it would have materialized:
// Len, At (wrapping to k mod Len before the shift), AppendSamples, Validate
// and Summarize.
func TestScheduleBackedReads(t *testing.T) {
	_, traces, want := onSchedule()
	for i, tr := range traces {
		n := len(want[i])
		if tr.Len() != n {
			t.Fatalf("shift %d: Len %d, want %d", i, tr.Len(), n)
		}
		for k := 0; k < 3*n; k++ {
			if got := tr.At(k); math.Float64bits(got) != math.Float64bits(want[i][k%n]) {
				t.Errorf("shift %d: At(%d) = %v, want %v", i, k, got, want[i][k%n])
			}
		}
		if got := tr.AppendSamples([]float64{-1}); !bitsEqual(got[1:], want[i]) || got[0] != -1 {
			t.Errorf("shift %d: AppendSamples = %v, want -1 then %v", i, got, want[i])
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("shift %d: %v", i, err)
		}
		if got, w := tr.Summarize(), New("m", "x", want[i]).Summarize(); got != w {
			t.Errorf("shift %d: Summarize %+v, materialized %+v", i, got, w)
		}
	}
	if empty := OnSchedule("e", "x", nil, 1, 1, 1); empty.Len() != 0 || empty.At(3) != 0 || empty.Validate() == nil {
		t.Error("a trace over an empty schedule should read as empty")
	}
}

// Clone, Scale and Clip give the trace they write its own samples: the
// schedule and every sibling on it keep their bits, and Mutated moves as
// it does for a trace with its own samples (Scale sets it; Clone copies it;
// Clip leaves it).
func TestScheduleBackedWritesStayPrivate(t *testing.T) {
	for _, op := range []struct {
		name    string
		apply   func(*Trace) *Trace
		mutated bool
		scale   float64
		clip    float64
	}{
		{"Clone", (*Trace).Clone, false, 1, math.Inf(1)},
		{"Scale", func(tr *Trace) *Trace { return tr.Scale(1.5) }, true, 1.5, math.Inf(1)},
		{"Clip", func(tr *Trace) *Trace { return tr.Clip(0.5) }, false, 1, 0.5},
		{"Clone.Scale", func(tr *Trace) *Trace { return tr.Clone().Scale(0.8) }, true, 0.8, math.Inf(1)},
	} {
		sched, traces, want := onSchedule()
		before := append([]float64(nil), sched...)
		got := op.apply(traces[1])
		if !bitsEqual(sched, before) {
			t.Errorf("%s wrote the shared schedule: %v, was %v", op.name, sched, before)
		}
		for _, i := range []int{0, 2} {
			if !bitsEqual(traces[i].AppendSamples(nil), want[i]) {
				t.Errorf("%s on trace 1 moved sibling %d", op.name, i)
			}
		}
		w := make([]float64, len(want[1]))
		for k, d := range want[1] {
			w[k] = math.Min(d*op.scale, op.clip)
		}
		if !bitsEqual(got.AppendSamples(nil), w) {
			t.Errorf("%s: samples %v, want %v", op.name, got.AppendSamples(nil), w)
		}
		if got.Mutated != op.mutated {
			t.Errorf("%s: Mutated = %v, want %v", op.name, got.Mutated, op.mutated)
		}
		if got.sched != nil || got.Len() != len(w) {
			t.Errorf("%s: result still reads the schedule (len %d)", op.name, got.Len())
		}
	}
}

// A fleet holds one Trace per server, so its header stays within one word
// of the eight it had with one backing: the schedule costs a pointer.
func TestTraceHeaderSize(t *testing.T) {
	word := unsafe.Sizeof(uintptr(0))
	if got := unsafe.Sizeof(Trace{}); got > 9*word {
		t.Errorf("trace.Trace is %d bytes, want at most %d", got, 9*word)
	}
}
