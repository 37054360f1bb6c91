package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/model"
	"nopower/internal/obs"
	"nopower/internal/sim"
	"nopower/internal/trace"
)

// buildEngine assembles a small coordinated stack over 4 standalone servers
// and runs it warm so the snapshot carries non-trivial state.
func buildEngine(t *testing.T, warmTicks int) *sim.Engine {
	t.Helper()
	cfg := cluster.Config{
		Standalone: 4, Model: model.BladeA(),
		CapOffGrp: 0.20, CapOffEnc: 0.15, CapOffLoc: 0.10,
		AlphaV: 0.10, AlphaM: 0.10, MigrationTicks: 5,
	}
	set := &trace.Set{Name: "flat"}
	for i := 0; i < 4; i++ {
		d := make([]float64, 100)
		for k := range d {
			d[k] = 0.4
		}
		set.Traces = append(set.Traces, trace.New("w", "flat", d))
	}
	cl, err := cluster.New(cfg, set)
	if err != nil {
		t.Fatal(err)
	}
	spec := core.Coordinated()
	spec.Periods = core.Periods{EC: 1, SM: 2, EM: 5, GM: 10, VMC: 20}
	eng, _, err := core.Build(cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if warmTicks > 0 {
		if _, err := eng.Run(warmTicks); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func snapshotOf(t *testing.T, eng *sim.Engine) *sim.Snapshot {
	t.Helper()
	snap, err := eng.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := snapshotOf(t, buildEngine(t, 17))
	f := &File{
		Meta: Meta{
			Tick: snap.Tick, Experiment: "unit",
			Labels: map[string]string{"stack": "coordinated", "seed": "42"},
		},
		State: snap,
	}
	data, err := Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Tick != snap.Tick || got.Meta.Experiment != "unit" {
		t.Errorf("meta mismatch: %+v", got.Meta)
	}
	if got.Meta.Labels["stack"] != "coordinated" {
		t.Errorf("labels mismatch: %v", got.Meta.Labels)
	}
	if got.State.Tick != snap.Tick {
		t.Errorf("state tick = %d, want %d", got.State.Tick, snap.Tick)
	}
	if len(got.State.Controllers) != len(snap.Controllers) {
		t.Errorf("controllers = %d, want %d", len(got.State.Controllers), len(snap.Controllers))
	}
	for i := range snap.Controllers {
		if got.State.Controllers[i].Name != snap.Controllers[i].Name {
			t.Errorf("controller %d name %q, want %q", i,
				got.State.Controllers[i].Name, snap.Controllers[i].Name)
		}
	}
	if len(got.State.Cluster.Servers) != len(snap.Cluster.Servers) {
		t.Errorf("servers = %d, want %d", len(got.State.Cluster.Servers), len(snap.Cluster.Servers))
	}
}

func TestEncodeRejectsNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
	if _, err := Encode(&File{}); err == nil {
		t.Error("Encode with nil state succeeded")
	}
}

func TestDecodeErrors(t *testing.T) {
	snap := snapshotOf(t, buildEngine(t, 3))
	good, err := Encode(&File{Meta: Meta{Tick: snap.Tick}, State: snap})
	if err != nil {
		t.Fatal(err)
	}

	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOTCKP")

	badVersion := append([]byte(nil), good...)
	badVersion[6], badVersion[7] = 0xFF, 0xFE

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01 // corrupt the payload tail

	shortPayload := append([]byte(nil), good[:len(good)-5]...)

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"header-only-prefix", good[:8], ErrTruncated},
		{"bad-magic", badMagic, ErrBadMagic},
		{"unknown-version", badVersion, ErrVersion},
		{"truncated-payload", shortPayload, ErrTruncated},
		{"crc-mismatch", flipped, ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Decode(tc.data)
			if !errors.Is(err, tc.want) {
				t.Errorf("Decode = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestDecodeHugeDeclaredPayload(t *testing.T) {
	snap := snapshotOf(t, buildEngine(t, 0))
	good, err := Encode(&File{State: snap})
	if err != nil {
		t.Fatal(err)
	}
	// Declare an absurd payload length; the decoder must refuse before
	// trying to allocate or hash anything of that size.
	huge := append([]byte(nil), good...)
	for i := 8; i < 16; i++ {
		huge[i] = 0xFF
	}
	if _, err := Decode(huge); err == nil {
		t.Error("Decode accepted a 2^64-byte declared payload")
	}
}

func TestWriteReadAndLatest(t *testing.T) {
	dir := t.TempDir()
	snap := snapshotOf(t, buildEngine(t, 5))

	if p, err := Latest(dir); err != nil || p != "" {
		t.Fatalf("Latest(empty) = %q, %v", p, err)
	}

	for _, tick := range []int{10, 200, 30} {
		s := *snap
		s.Tick = tick
		if _, err := Write(filepath.Join(dir, FileName(tick)), &File{Meta: Meta{Tick: tick}, State: &s}); err != nil {
			t.Fatal(err)
		}
	}
	// A later panic snapshot must not win Latest.
	ps := *snap
	ps.Tick, ps.MidTick = 999, true
	if _, err := Write(filepath.Join(dir, PanicFileName(999)), &File{Meta: Meta{Tick: 999, MidTick: true}, State: &ps}); err != nil {
		t.Fatal(err)
	}

	p, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(p) != FileName(200) {
		t.Errorf("Latest = %s, want %s", filepath.Base(p), FileName(200))
	}
	f, err := Read(p)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Tick != 200 || f.State.Tick != 200 {
		t.Errorf("read back tick %d/%d, want 200", f.Meta.Tick, f.State.Tick)
	}
}

func TestWriteIsAtomicAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	snap := snapshotOf(t, buildEngine(t, 0))
	path := filepath.Join(dir, FileName(0))
	if _, err := Write(path, &File{State: snap}); err != nil {
		t.Fatal(err)
	}
	// Overwrite (the rename path over an existing file).
	if _, err := Write(path, &File{State: snap}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != FileName(0) {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Errorf("dir contents = %v, want only %s", names, FileName(0))
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := Read(filepath.Join(t.TempDir(), "nope.npckpt")); err == nil {
		t.Error("Read of a missing file succeeded")
	}
}

func TestSaverPeriodicCheckpoints(t *testing.T) {
	dir := t.TempDir()
	eng := buildEngine(t, 0)
	reg := obs.NewRegistry()
	s := &Saver{
		Dir: dir, Every: 10,
		Meta:     Meta{Experiment: "unit", Labels: map[string]string{"stack": "coordinated"}},
		Registry: reg,
		now:      func() time.Time { return time.Unix(1700000000, 0) },
	}
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(35); err != nil {
		t.Fatal(err)
	}
	// Periodic writes are asynchronous; Flush joins them.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Boundaries hit after ticks 10, 20, 30 (tick counter is post-increment).
	for _, tick := range []int{10, 20, 30} {
		if _, err := os.Stat(filepath.Join(dir, FileName(tick))); err != nil {
			t.Errorf("missing checkpoint for tick %d: %v", tick, err)
		}
	}
	if got := reg.Counter("np_checkpoint_writes_total").Value(); got != 3 {
		t.Errorf("writes_total = %d, want 3", got)
	}
	if reg.Counter("np_checkpoint_bytes_total").Value() <= 0 {
		t.Error("bytes_total not accounted")
	}
	if got := reg.Gauge("np_checkpoint_last_tick").Value(); got != 30 {
		t.Errorf("last_tick = %v, want 30", got)
	}

	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Read(latest)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Experiment != "unit" || f.Meta.Labels["stack"] != "coordinated" {
		t.Errorf("saver meta not stamped: %+v", f.Meta)
	}
	if f.Meta.CreatedUnix != 1700000000 {
		t.Errorf("CreatedUnix = %d", f.Meta.CreatedUnix)
	}
}

func TestSaverAttachRequiresDir(t *testing.T) {
	if err := (&Saver{}).Attach(buildEngine(t, 0)); err == nil {
		t.Error("Attach with empty dir succeeded")
	}
}

func TestSaverWritesPanicSnapshot(t *testing.T) {
	dir := t.TempDir()
	eng := buildEngine(t, 0)
	s := &Saver{Dir: dir, Every: 0, Meta: Meta{Experiment: "unit"}}
	if err := s.Attach(eng); err != nil {
		t.Fatal(err)
	}
	snap := snapshotOf(t, eng)
	snap.Tick, snap.MidTick = 7, true
	if err := s.Save(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, PanicFileName(7))); err != nil {
		t.Errorf("panic snapshot missing: %v", err)
	}
	if p, err := Latest(dir); err != nil || p != "" {
		t.Errorf("Latest = %q, %v; panic snapshots must not be resumable", p, err)
	}
	f, err := Read(filepath.Join(dir, PanicFileName(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !f.Meta.MidTick || !f.State.MidTick {
		t.Error("panic snapshot not marked mid-tick")
	}
}

func TestFileNameOrdering(t *testing.T) {
	if FileName(5) >= FileName(40) || FileName(40) >= FileName(12345678) {
		t.Error("zero-padded names do not sort numerically")
	}
	if !strings.HasPrefix(PanicFileName(5), "panic-") {
		t.Errorf("PanicFileName = %s", PanicFileName(5))
	}
}
