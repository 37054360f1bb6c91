package metrics

import (
	"bytes"
	"strings"
	"testing"

	"nopower/internal/testutil"
)

// fakeEval is a deterministic stand-in facility model.
func fakeEval(k int, itW float64) (float64, float64, float64, float64) {
	return itW * 1.5, 1.5, itW * 0.4, 20 + float64(k%7)
}

func TestSeriesFacilityColumnsRecorded(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 100, 0.5)
	var s Series
	s.AttachFacility(fakeEval)
	for k := 0; k < 20; k++ {
		cl.Advance(k)
		s.Observe(k, cl)
	}
	if s.Len() != 20 {
		t.Fatalf("recorded %d samples", s.Len())
	}
	if len(s.FacilityW) != 20 || len(s.PUE) != 20 || len(s.CoolingW) != 20 || len(s.OutsideC) != 20 {
		t.Fatalf("facility columns %d/%d/%d/%d, want 20 each",
			len(s.FacilityW), len(s.PUE), len(s.CoolingW), len(s.OutsideC))
	}
	for i := range s.Ticks {
		if s.FacilityW[i] != s.PowerW[i]*1.5 {
			t.Fatalf("sample %d: facility %v != 1.5× power %v", i, s.FacilityW[i], s.PowerW[i])
		}
		if s.PUE[i] != 1.5 {
			t.Fatalf("sample %d: PUE %v", i, s.PUE[i])
		}
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if !strings.HasSuffix(head, "facility_w,pue,cooling_w,outside_c") {
		t.Errorf("facility header missing: %q", head)
	}
}

// Without an attached model the columns stay empty and the CSV keeps the
// pre-facility format byte-for-byte.
func TestSeriesWithoutFacilityUnchanged(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 100, 0.5)
	var s Series
	for k := 0; k < 10; k++ {
		cl.Advance(k)
		s.Observe(k, cl)
	}
	if len(s.FacilityW) != 0 {
		t.Fatalf("facility column recorded without a model: %d samples", len(s.FacilityW))
	}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(buf.String(), "\n", 2)[0]
	if strings.Contains(head, "facility") || strings.Contains(head, "pue") {
		t.Errorf("facility columns leaked into non-facility CSV: %q", head)
	}
}

// Restore overwrites the recorded columns but must preserve the attached
// facility hook (funcs don't travel in snapshots): a resumed series keeps
// recording facility samples.
func TestSeriesRestorePreservesFacilityHook(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 200, 0.5)
	var orig Series
	orig.AttachFacility(fakeEval)
	for k := 0; k < 15; k++ {
		cl.Advance(k)
		orig.Observe(k, cl)
	}
	blob, err := orig.State()
	if err != nil {
		t.Fatal(err)
	}
	var resumed Series
	resumed.AttachFacility(fakeEval)
	if err := resumed.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for k := 15; k < 30; k++ {
		cl.Advance(k)
		orig.Observe(k, cl)
		resumed.Observe(k, cl)
	}
	if len(resumed.FacilityW) != 30 {
		t.Fatalf("resumed series has %d facility samples, want 30 (hook lost on Restore?)", len(resumed.FacilityW))
	}
	if d := orig.Diff(&resumed); d != "" {
		t.Errorf("resumed series not bit-identical to the uninterrupted one: %s", d)
	}
}

// Diff covers the facility columns: a perturbation of one sample in any of
// them is reported at that sample's tick under the column's CSV name.
func TestSeriesBitEqualCoversFacility(t *testing.T) {
	build := func() *Series {
		cl := testutil.StandaloneCluster(t, 2, 50, 0.5)
		var s Series
		s.AttachFacility(fakeEval)
		for k := 0; k < 10; k++ {
			cl.Advance(k)
			s.Observe(k, cl)
		}
		return &s
	}
	a := build()
	for name, col := range map[string][]float64{
		"facility_w": a.FacilityW, "pue": a.PUE, "cooling_w": a.CoolingW, "outside_c": a.OutsideC,
	} {
		b := build()
		old := col[3]
		col[3] = old + 1e-9
		d := a.Diff(b)
		if want := "tick 3: " + name + ": "; !strings.HasPrefix(d, want) {
			t.Errorf("%s perturbation: Diff = %q, want prefix %q", name, d, want)
		}
		col[3] = old
		if d := a.Diff(b); d != "" {
			t.Fatalf("series differ after restoring %s: %s", name, d)
		}
	}
	// A series without the facility model lacks the columns entirely.
	var bare Series
	cl := testutil.StandaloneCluster(t, 2, 50, 0.5)
	for k := 0; k < 10; k++ {
		cl.Advance(k)
		bare.Observe(k, cl)
	}
	if d, want := a.Diff(&bare), "tick 0: facility_w: "; !strings.HasPrefix(d, want) || !strings.HasSuffix(d, " vs missing") {
		t.Errorf("facility vs bare: Diff = %q, want %q... vs missing", d, want)
	}
}
