package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"nopower/internal/cluster"
	"nopower/internal/state"
)

// Series records per-tick time series of the headline signals, for plotting
// and offline analysis. Attach via the engine's OnTick hook; Stride > 1
// subsamples to keep long runs small.
type Series struct {
	// Stride subsamples the series: a sample is kept iff k%Stride == 0,
	// where k is the engine tick. Stride values of 0 and 1 both mean
	// "every tick" (0 is the useful zero value, 1 the explicit spelling).
	// Because tick numbering starts at 0 and 0%n == 0 for every n, the
	// first tick is always recorded regardless of Stride — so a non-empty
	// run yields a non-empty series, and a run of T ticks at Stride n
	// records ceil(T/n) samples.
	Stride int

	Ticks     []int
	PowerW    []float64
	ServersOn []int
	ViolSM    []int // count of servers over their static cap this tick
	PerfLoss  []float64
	TempProxy []float64 // group power over group budget, Watts (0 if under)

	// Budget headroom per level, in Watts: how far the tightest consumer
	// sits under its *static* budget this tick (negative = violation).
	// HeadroomGrp is CAP_GRP minus group draw; HeadroomEnc the minimum of
	// CAP_ENC minus draw over enclosures; HeadroomLoc the minimum of
	// CAP_LOC minus draw over powered-on servers. Levels with no member
	// (no enclosures / all servers off) record 0.
	HeadroomGrp []float64
	HeadroomEnc []float64
	HeadroomLoc []float64

	// Facility-side columns (DESIGN.md §15), recorded only when a facility
	// model is attached (AttachFacility): total facility draw, PUE, cooling
	// draw, and outside-air temperature per sample. Empty otherwise, and the
	// CSV omits the columns, so pre-facility output is byte-identical.
	FacilityW []float64
	PUE       []float64
	CoolingW  []float64
	OutsideC  []float64

	// facility evaluates the facility sample for a tick. Unexported so gob
	// skips it (funcs don't serialize); Restore preserves it across the
	// overwrite, and the recorded columns above travel in snapshots like
	// every other column.
	facility FacilityEval
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(Series{}) }

// FacilityEval computes the facility-side sample for tick k at IT power itW.
// It must be a pure function of (k, itW) — no internal stream state — so a
// resumed or sharded run reproduces the exact bits of the uninterrupted one.
type FacilityEval func(k int, itW float64) (facilityW, pue, coolingW, outsideC float64)

// AttachFacility wires a facility model into the series; nil detaches.
func (s *Series) AttachFacility(f FacilityEval) { s.facility = f }

// Observe appends one sample (honoring the stride). It reads the cluster's
// shared per-tick aggregate instead of re-scanning the fleet.
func (s *Series) Observe(k int, cl *cluster.Cluster) {
	stride := s.Stride
	if stride < 1 {
		stride = 1
	}
	if k%stride != 0 {
		return
	}
	st := cl.Stats()
	loss := 0.0
	if st.DemandWork > 0 {
		loss = 1 - st.DeliveredWork/st.DemandWork
	}
	// Computed from the cluster fields rather than -st.HeadroomGrp: negating
	// an exact-zero headroom would record -0 where the subtraction yields +0,
	// and the replay bar (Diff) distinguishes the two.
	over := cl.GroupPower - cl.CapGrp()
	if over < 0 {
		over = 0
	}
	if s.facility != nil {
		fw, pue, cw, oc := s.facility(k, st.GroupPower)
		s.FacilityW = append(s.FacilityW, fw)
		s.PUE = append(s.PUE, pue)
		s.CoolingW = append(s.CoolingW, cw)
		s.OutsideC = append(s.OutsideC, oc)
	}
	s.Ticks = append(s.Ticks, k)
	s.PowerW = append(s.PowerW, st.GroupPower)
	s.ServersOn = append(s.ServersOn, st.ServersOn)
	s.ViolSM = append(s.ViolSM, st.ViolSM)
	s.PerfLoss = append(s.PerfLoss, loss)
	s.TempProxy = append(s.TempProxy, over)
	s.HeadroomGrp = append(s.HeadroomGrp, st.HeadroomGrp)
	s.HeadroomEnc = append(s.HeadroomEnc, st.HeadroomEnc)
	s.HeadroomLoc = append(s.HeadroomLoc, st.HeadroomLoc)
}

// Len returns the number of recorded samples.
func (s *Series) Len() int { return len(s.Ticks) }

// State implements the simulator's Snapshotter interface (structurally):
// the recorded prefix travels inside snapshots so a resumed run appends to
// it and ends bit-identical to the uninterrupted series.
func (s *Series) State() ([]byte, error) { return state.Marshal(*s) }

// Restore implements the simulator's Snapshotter interface.
func (s *Series) Restore(data []byte) error {
	var tmp Series
	if err := state.Unmarshal(data, &tmp); err != nil {
		return err
	}
	tmp.facility = s.facility // funcs don't travel in snapshots; keep the wiring
	*s = tmp
	return nil
}

// column is one recorded column under its WriteCSV header name, with the
// decimals WriteCSV prints. Int columns are widened to float64, which is
// exact for any tick or server count.
type column struct {
	name string
	prec int
	v    []float64
}

// columns lists the recorded columns in WriteCSV order; the four facility
// columns come last.
func (s *Series) columns() []column {
	widen := func(xs []int) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = float64(x)
		}
		return out
	}
	return []column{
		{"tick", 0, widen(s.Ticks)},
		{"power_w", 2, s.PowerW},
		{"servers_on", 0, widen(s.ServersOn)},
		{"viol_sm", 0, widen(s.ViolSM)},
		{"perf_loss", 4, s.PerfLoss},
		{"group_over_w", 2, s.TempProxy},
		{"headroom_grp_w", 2, s.HeadroomGrp},
		{"headroom_enc_w", 2, s.HeadroomEnc},
		{"headroom_loc_w", 2, s.HeadroomLoc},
		{"facility_w", 2, s.FacilityW},
		{"pue", 4, s.PUE},
		{"cooling_w", 2, s.CoolingW},
		{"outside_c", 2, s.OutsideC},
	}
}

// numFacilityColumns is how many of columns() are facility columns.
const numFacilityColumns = 4

// Diff reports the first sample where o differs from s bitwise — the
// determinism contract's replay bar, stricter than float equality: values
// compare by math.Float64bits, so +0 differs from −0 and NaNs compare by
// payload. It returns "" when the series are identical, else the tick, the
// column (named as in WriteCSV's header) and both values; a sample or column
// one side lacks reads "missing".
func (s *Series) Diff(o *Series) string {
	a, b := s.columns(), o.columns()
	for i := 0; i < max(s.Len(), o.Len()); i++ {
		for c := range a {
			x, y := a[c].v, b[c].v
			if (i < len(x)) != (i < len(y)) ||
				i < len(x) && math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				tick := sample(a[0].v, i)
				if tick == "missing" {
					tick = sample(b[0].v, i)
				}
				return fmt.Sprintf("tick %s: %s: %s vs %s", tick, a[c].name, sample(x, i), sample(y, i))
			}
		}
	}
	return ""
}

// sample renders v[i] in its shortest round-trip form, or "missing" past
// the end.
func sample(v []float64, i int) string {
	if i >= len(v) {
		return "missing"
	}
	return strconv.FormatFloat(v[i], 'g', -1, 64)
}

// WriteCSV emits the series with a header row. The facility columns appear
// only when facility samples were recorded, so non-facility output is
// byte-identical to the pre-facility format.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	cols := s.columns()
	if len(s.FacilityW) != len(s.Ticks) || len(s.Ticks) == 0 {
		cols = cols[:len(cols)-numFacilityColumns]
	}
	row := make([]string, len(cols))
	for c := range cols {
		row[c] = cols[c].name
	}
	if err := cw.Write(row); err != nil {
		return err
	}
	for i := range s.Ticks {
		for c := range cols {
			row[c] = strconv.FormatFloat(cols[c].v[i], 'f', cols[c].prec, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("metrics: series write: %w", err)
	}
	return nil
}
