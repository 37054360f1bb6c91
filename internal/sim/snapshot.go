package sim

import (
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/metrics"
	"nopower/internal/obs/prof"
	"nopower/internal/state"
)

// Snapshotter is implemented by every component whose mutable state must
// survive a checkpoint/restore cycle: controllers, RNG sources, recorders.
// State returns an opaque self-describing blob (by convention a gob-encoded
// exported struct, see internal/state); Restore reinstates it. The contract
// is deterministic replay: a component restored from State() must behave
// bit-identically to the component that produced it.
type Snapshotter interface {
	State() ([]byte, error)
	Restore(data []byte) error
}

// Component is one named state blob inside a snapshot.
type Component struct {
	// Name identifies the component (Controller.Name() or the aux
	// registration name); restore matches on it.
	Name string
	// Data is the component's opaque state.
	Data []byte
}

// Snapshot is the engine's complete mutable state at a tick boundary: the
// plant, every controller, every auxiliary component (RNG, series recorder),
// the metrics collector, and the fault bookkeeping. It is the payload the
// checkpoint package persists.
type Snapshot struct {
	// Tick is the next tick the engine will execute — Run(n) after a restore
	// continues exactly where the snapshotted run would have.
	Tick int
	// MidTick marks a best-effort snapshot taken inside a failed tick (the
	// checkpoint-on-panic path): some controllers of tick Tick have already
	// acted and the plant has not advanced, so the state is NOT a resumable
	// boundary. RestoreSnapshot refuses it; npckpt can still inspect it.
	MidTick bool
	// Cluster is the plant's mutable state.
	Cluster cluster.State
	// Controllers holds one component per engine controller, in stack order.
	Controllers []Component
	// Aux holds the auxiliary components registered via RegisterAux.
	Aux []Component
	// Collector is the metrics collector's state.
	Collector []byte
	// Disabled and FailsafeBroken mirror the degraded-mode bookkeeping.
	Disabled       []bool
	FailsafeBroken []bool
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(Snapshot{}) }

// RegisterAux attaches a named auxiliary Snapshotter to the engine — state
// that belongs to the run but not to any controller: the policy RNG source,
// a time-series recorder. Registering an existing name replaces it. Aux
// components are captured by Snapshot and matched by name on restore.
func (e *Engine) RegisterAux(name string, s Snapshotter) {
	for i := range e.aux {
		if e.aux[i].name == name {
			e.aux[i].s = s
			return
		}
	}
	e.aux = append(e.aux, auxEntry{name: name, s: s})
}

// Snapshot captures the engine's complete mutable state. Every controller
// must implement Snapshotter; a stack containing one that does not is not
// checkpointable and the call errors rather than writing a partial state.
func (e *Engine) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{Tick: e.tick, Cluster: e.Cluster.State()}
	for _, c := range e.Controllers {
		sn, ok := c.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("sim: controller %s does not implement Snapshotter", c.Name())
		}
		data, err := sn.State()
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot %s: %w", c.Name(), err)
		}
		snap.Controllers = append(snap.Controllers, Component{Name: c.Name(), Data: data})
	}
	for _, a := range e.aux {
		data, err := a.s.State()
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot aux %s: %w", a.name, err)
		}
		snap.Aux = append(snap.Aux, Component{Name: a.name, Data: data})
	}
	if e.Collector != nil {
		data, err := e.Collector.State()
		if err != nil {
			return nil, fmt.Errorf("sim: snapshot collector: %w", err)
		}
		snap.Collector = data
	}
	snap.Disabled = append([]bool(nil), e.disabled...)
	snap.FailsafeBroken = append([]bool(nil), e.failsafeBroken...)
	return snap, nil
}

// RestoreSnapshot reinstates a snapshot onto an engine rebuilt from the same
// scenario: same cluster topology, same controller stack in the same order,
// same aux registrations. It validates the shape (names and counts) before
// touching anything, so a mismatched snapshot leaves the engine unchanged.
// The next Run continues from snapshot.Tick and — per the determinism
// contract — reproduces the uninterrupted run bit-exactly.
func (e *Engine) RestoreSnapshot(snap *Snapshot) error {
	if snap == nil {
		return fmt.Errorf("sim: nil snapshot")
	}
	if snap.MidTick {
		return fmt.Errorf("sim: snapshot at tick %d was taken mid-tick (checkpoint-on-panic); it is a post-mortem artifact, not a resume point", snap.Tick)
	}
	if len(snap.Controllers) != len(e.Controllers) {
		return fmt.Errorf("sim: snapshot has %d controllers, engine has %d",
			len(snap.Controllers), len(e.Controllers))
	}
	restorers := make([]Snapshotter, len(e.Controllers))
	for i, c := range e.Controllers {
		if snap.Controllers[i].Name != c.Name() {
			return fmt.Errorf("sim: controller %d is %s in the snapshot but %s in the engine",
				i, snap.Controllers[i].Name, c.Name())
		}
		sn, ok := c.(Snapshotter)
		if !ok {
			return fmt.Errorf("sim: controller %s does not implement Snapshotter", c.Name())
		}
		restorers[i] = sn
	}
	auxRestorers := make([]Snapshotter, len(snap.Aux))
	for i, comp := range snap.Aux {
		found := false
		for _, a := range e.aux {
			if a.name == comp.Name {
				auxRestorers[i], found = a.s, true
				break
			}
		}
		if !found {
			return fmt.Errorf("sim: snapshot aux component %s is not registered on the engine", comp.Name)
		}
	}
	if len(snap.Aux) != len(e.aux) {
		return fmt.Errorf("sim: snapshot has %d aux components, engine has %d",
			len(snap.Aux), len(e.aux))
	}
	if err := e.Cluster.RestoreState(snap.Cluster); err != nil {
		return fmt.Errorf("sim: restore: %w", err)
	}
	for i, comp := range snap.Controllers {
		if err := restorers[i].Restore(comp.Data); err != nil {
			return fmt.Errorf("sim: restore %s: %w", comp.Name, err)
		}
	}
	for i, comp := range snap.Aux {
		if err := auxRestorers[i].Restore(comp.Data); err != nil {
			return fmt.Errorf("sim: restore aux %s: %w", comp.Name, err)
		}
	}
	if e.Collector == nil {
		e.Collector = &metrics.Collector{}
	}
	if snap.Collector != nil {
		if err := e.Collector.Restore(snap.Collector); err != nil {
			return fmt.Errorf("sim: restore collector: %w", err)
		}
	}
	if snap.Disabled != nil {
		if len(snap.Disabled) != len(e.Controllers) {
			return fmt.Errorf("sim: snapshot disabled mask has %d entries, engine has %d controllers",
				len(snap.Disabled), len(e.Controllers))
		}
		e.disabled = append([]bool(nil), snap.Disabled...)
	}
	if snap.FailsafeBroken != nil {
		e.failsafeBroken = append([]bool(nil), snap.FailsafeBroken...)
	}
	e.tick = snap.Tick
	return nil
}

// checkpointDue fires the OnCheckpoint hook at tick boundaries selected by
// CheckpointEvery. Called from the run loop after e.tick advances.
func (e *Engine) checkpointDue() error {
	if e.CheckpointEvery <= 0 || e.OnCheckpoint == nil || e.tick%e.CheckpointEvery != 0 {
		return nil
	}
	// The span covers the snapshot deep copy plus the hook's synchronous
	// half (an async saver returns after handing the snapshot off). Labeled
	// with the tick that just completed, matching the enclosing sim.tick
	// span.
	rec := e.profRec
	var start int64
	if rec != nil {
		start = rec.Now()
	}
	snap, err := e.Snapshot()
	if err == nil {
		err = e.OnCheckpoint(snap)
	}
	if rec != nil {
		rec.Record(e.tick-1, prof.PhaseCheckpoint, -1, start, rec.Now()-start)
	}
	if err != nil {
		return fmt.Errorf("sim: checkpoint at tick %d: %w", e.tick, err)
	}
	return nil
}

// checkpointOnPanic persists a best-effort mid-tick snapshot when a
// controller panic is about to fail the run — the post-mortem artifact of
// the FaultPolicy sandbox. Errors are swallowed: the panic is the story.
func (e *Engine) checkpointOnPanic() {
	if e.OnCheckpoint == nil {
		return
	}
	snap, err := e.Snapshot()
	if err != nil {
		return
	}
	snap.MidTick = true
	_ = e.OnCheckpoint(snap)
}
