// Package obs is the observability layer: structured decision tracing for
// the controller stack, a lightweight runtime metrics registry with
// Prometheus-text exposition, and an opt-in HTTP endpoint serving /metrics,
// /healthz, and /debug/pprof. It is stdlib-only by design so every other
// package can depend on it without widening the dependency graph.
//
// The tracing half makes the paper's central phenomenon — "power struggles",
// two controllers fighting over one actuator (§2.3) — directly observable
// instead of inferred from aggregate violation rates: every controller emits
// one Event per actuator write, and the ConflictDetector turns same-tick
// multi-writer patterns into an assertable signal.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
)

// Actuator names used in trace events. They identify the knob written, so
// the conflict detector can key on (actuator, target) pairs.
const (
	// ActPState is a server's ACPI operating point (the EC/SM/CAP knob).
	ActPState = "pstate"
	// ActRRef is a server's utilization target (the SM→EC channel).
	ActRRef = "rref"
	// ActServerCap is a server's dynamic power budget cap_loc (EM/GM knob).
	ActServerCap = "cap_srv"
	// ActEnclosureCap is an enclosure's dynamic budget cap_enc (GM knob).
	ActEnclosureCap = "cap_enc"
	// ActGroupCap is the group-level power budget CAP_GRP (the FM knob —
	// and, uncoordinated, the register it fights the operator/cooling for).
	ActGroupCap = "cap_grp"
	// ActPlacement is a VM's host assignment (the VMC knob).
	ActPlacement = "placement"
	// ActPower is a server's on/off state (1 = on, 0 = off).
	ActPower = "power"
	// ActControl is the control plane itself: the engine emits one event
	// here when it recovers a controller panic ("panic") and one when it
	// disables the controller under the degrade fault policy ("disabled").
	ActControl = "control"
)

// Event is one structured actuation record: at tick Tick, Controller wrote
// actuator Actuator of entity Target, moving it from Old to New. Reason is a
// short, stable label for the control decision that caused the write.
type Event struct {
	Tick       int     `json:"tick"`
	Controller string  `json:"controller"`
	Actuator   string  `json:"actuator"`
	Target     int     `json:"target"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	Reason     string  `json:"reason"`
}

// Tracer receives actuation events. Implementations must be safe for use
// from a single simulation goroutine; the provided recorders additionally
// lock so one tracer can serve concurrent engines.
type Tracer interface {
	Emit(Event)
}

// multi fans one event out to several tracers.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// Multi combines tracers into one; nil members are skipped. It returns nil
// when nothing remains, so callers can pass the result straight to an
// engine without re-checking.
func Multi(ts ...Tracer) Tracer {
	var out multi
	for _, t := range ts {
		if t != nil {
			out = append(out, t)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	}
	return out
}

// RingRecorder keeps the most recent events in a fixed-capacity ring buffer
// — the in-memory sink tests attach to read a run's events back.
type RingRecorder struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
}

// DefaultRingCapacity bounds a RingRecorder built with capacity <= 0.
const DefaultRingCapacity = 4096

// NewRingRecorder allocates a recorder holding the last capacity events
// (DefaultRingCapacity when capacity <= 0).
func NewRingRecorder(capacity int) *RingRecorder {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &RingRecorder{buf: make([]Event, capacity)}
}

// Emit implements Tracer.
func (r *RingRecorder) Emit(e Event) {
	r.mu.Lock()
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next, r.full = 0, true
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *RingRecorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.buf[:r.next]...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len reports how many events are currently retained.
func (r *RingRecorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// NDJSONWriter streams events as newline-delimited JSON, one object per
// line — the on-disk trace format (`npsim -trace out.ndjson`). The first
// write error is retained and later events are dropped.
type NDJSONWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int64
	err error
}

// NewNDJSONWriter wraps a writer.
func NewNDJSONWriter(w io.Writer) *NDJSONWriter {
	return &NDJSONWriter{enc: json.NewEncoder(w)}
}

// Emit implements Tracer.
func (w *NDJSONWriter) Emit(e Event) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(e); err != nil {
		w.err = err
		return
	}
	w.n++
}

// Count reports the number of events written so far.
func (w *NDJSONWriter) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}

// Err returns the first write error, if any.
func (w *NDJSONWriter) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// ReadEvents parses an NDJSON event stream (the NDJSONWriter format),
// tolerating malformed lines: a line that is not a complete JSON event —
// typically the truncated tail of a trace whose writer was killed mid-line —
// is skipped and counted in bad rather than failing the whole read. Only a
// transport-level read failure returns an error. Blank lines are ignored
// silently.
func ReadEvents(r io.Reader) (events []Event, bad int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var e Event
		if json.Unmarshal([]byte(line), &e) != nil {
			bad++
			continue
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, bad, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, bad, nil
}

// Conflict records a power struggle: within one tick, two distinct
// controllers wrote the same actuator of the same target. First/Second are
// the controller names in write order; the values are what each wrote.
type Conflict struct {
	Tick        int     `json:"tick"`
	Actuator    string  `json:"actuator"`
	Target      int     `json:"target"`
	First       string  `json:"first"`
	Second      string  `json:"second"`
	FirstValue  float64 `json:"first_value"`
	SecondValue float64 `json:"second_value"`
}

// ConflictDetector is a Tracer that flags same-tick multi-writer actuations
// — the paper's Fig. 5 "power struggle" turned into an assertable signal
// and a test oracle. Events must arrive in non-decreasing tick order (the
// engine emits them that way); the per-tick write table is reset whenever
// the tick advances.
type ConflictDetector struct {
	mu        sync.Mutex
	tick      int
	writers   map[actKey]writeRec
	conflicts []Conflict
	count     int64
}

// maxStoredConflicts bounds the retained conflict list; Count keeps the
// full total regardless.
const maxStoredConflicts = 1024

type actKey struct {
	actuator string
	target   int
}

type writeRec struct {
	controller string
	value      float64
}

// NewConflictDetector allocates a detector.
func NewConflictDetector() *ConflictDetector {
	return &ConflictDetector{tick: -1, writers: make(map[actKey]writeRec)}
}

// Emit implements Tracer.
func (d *ConflictDetector) Emit(e Event) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e.Tick != d.tick {
		d.tick = e.Tick
		clear(d.writers)
	}
	key := actKey{e.Actuator, e.Target}
	if prev, ok := d.writers[key]; ok && prev.controller != e.Controller {
		d.count++
		if len(d.conflicts) < maxStoredConflicts {
			d.conflicts = append(d.conflicts, Conflict{
				Tick: e.Tick, Actuator: e.Actuator, Target: e.Target,
				First: prev.controller, Second: e.Controller,
				FirstValue: prev.value, SecondValue: e.New,
			})
		}
	}
	d.writers[key] = writeRec{controller: e.Controller, value: e.New}
}

// Count reports the total number of conflicts observed.
func (d *ConflictDetector) Count() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.count
}

// Conflicts returns the retained conflicts (at most maxStoredConflicts),
// in detection order.
func (d *ConflictDetector) Conflicts() []Conflict {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Conflict(nil), d.conflicts...)
}
