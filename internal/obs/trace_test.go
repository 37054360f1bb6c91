package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
)

func ev(tick int, ctrl, act string, target int, old, new float64) Event {
	return Event{Tick: tick, Controller: ctrl, Actuator: act, Target: target,
		Old: old, New: new, Reason: "test"}
}

func TestRingRecorderRetainsAndWraps(t *testing.T) {
	r := NewRingRecorder(3)
	for i := 0; i < 5; i++ {
		r.Emit(ev(i, "EC", ActPState, 0, 0, float64(i)))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Events()
	for i, e := range got {
		if e.Tick != i+2 {
			t.Errorf("event %d tick = %d, want %d (oldest-first order)", i, e.Tick, i+2)
		}
	}
}

func TestRingRecorderPartial(t *testing.T) {
	r := NewRingRecorder(0) // default capacity
	r.Emit(ev(7, "SM", ActRRef, 3, 0.75, 0.9))
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	e := r.Events()[0]
	if e.Controller != "SM" || e.Actuator != ActRRef || e.Target != 3 || e.New != 0.9 {
		t.Errorf("event = %+v", e)
	}
}

func TestNDJSONWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewNDJSONWriter(&buf)
	w.Emit(ev(1, "EC", ActPState, 4, 2, 0))
	w.Emit(ev(2, "VMC", ActPlacement, 9, 4, 5))
	if w.Count() != 2 || w.Err() != nil {
		t.Fatalf("Count %d Err %v", w.Count(), w.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines", len(lines))
	}
	var decoded Event
	if err := json.Unmarshal([]byte(lines[1]), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Controller != "VMC" || decoded.Actuator != ActPlacement || decoded.New != 5 {
		t.Errorf("decoded = %+v", decoded)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, bytes.ErrTooLarge }

func TestNDJSONWriterRetainsFirstError(t *testing.T) {
	w := NewNDJSONWriter(failWriter{})
	w.Emit(ev(1, "EC", ActPState, 0, 0, 1))
	w.Emit(ev(2, "EC", ActPState, 0, 1, 2))
	if w.Err() == nil {
		t.Fatal("error not retained")
	}
	if w.Count() != 0 {
		t.Errorf("Count = %d after failed writes", w.Count())
	}
}

func TestConflictDetector(t *testing.T) {
	d := NewConflictDetector()
	// Tick 0: EC writes server 1's P-state; SM overwrites it — conflict.
	d.Emit(ev(0, "EC", ActPState, 1, 0, 0))
	d.Emit(ev(0, "SM", ActPState, 1, 0, 3))
	// Same tick, different target: no conflict.
	d.Emit(ev(0, "EC", ActPState, 2, 0, 1))
	// Same tick, same target, different actuator: no conflict.
	d.Emit(ev(0, "SM", ActRRef, 1, 0.75, 0.8))
	// Same controller writing twice: not a conflict.
	d.Emit(ev(0, "EC", ActPState, 2, 1, 2))
	// Next tick resets the write table.
	d.Emit(ev(1, "EC", ActPState, 1, 3, 0))
	if d.Count() != 1 {
		t.Fatalf("Count = %d, want 1", d.Count())
	}
	c := d.Conflicts()[0]
	if c.First != "EC" || c.Second != "SM" || c.Actuator != ActPState || c.Target != 1 {
		t.Errorf("conflict = %+v", c)
	}
	if c.FirstValue != 0 || c.SecondValue != 3 {
		t.Errorf("values = %v → %v", c.FirstValue, c.SecondValue)
	}
}

func TestConflictDetectorThreeWriters(t *testing.T) {
	d := NewConflictDetector()
	d.Emit(ev(5, "EC", ActPState, 0, 0, 0))
	d.Emit(ev(5, "SM", ActPState, 0, 0, 2))
	d.Emit(ev(5, "CAP", ActPState, 0, 2, 3))
	if d.Count() != 2 {
		t.Errorf("Count = %d, want 2 (SM-over-EC, CAP-over-SM)", d.Count())
	}
}

func TestMulti(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	a, b := NewRingRecorder(4), NewRingRecorder(4)
	if got := Multi(a, nil); got != a {
		t.Error("single non-nil tracer should be returned unwrapped")
	}
	m := Multi(a, nil, b)
	m.Emit(ev(0, "EC", ActPState, 0, 0, 1))
	if a.Len() != 1 || b.Len() != 1 {
		t.Errorf("fan-out missed: a=%d b=%d", a.Len(), b.Len())
	}
}

func TestNDJSONWriterDropped(t *testing.T) {
	w := NewNDJSONWriter(failAfter(2))
	for i := 0; i < 5; i++ {
		w.Emit(ev(i, "EC", ActPState, 0, 0, 1))
	}
	if w.Count() != 2 {
		t.Errorf("Count = %d, want 2", w.Count())
	}
	if w.Err() == nil {
		t.Error("Err should surface the write failure")
	}
}

// failAfter returns a writer that accepts n writes then errors forever.
func failAfter(n int) io.Writer {
	return &quotaWriter{left: n}
}

type quotaWriter struct{ left int }

func (q *quotaWriter) Write(p []byte) (int, error) {
	if q.left == 0 {
		return 0, fmt.Errorf("disk full")
	}
	q.left--
	return len(p), nil
}

func TestReadEventsTolerant(t *testing.T) {
	var buf bytes.Buffer
	w := NewNDJSONWriter(&buf)
	for i := 0; i < 3; i++ {
		w.Emit(ev(i, "SM", ActRRef, i, 0, 0.5))
	}
	// A crash mid-line leaves a truncated JSON tail; a stray non-JSON line
	// can come from log interleaving. Both must be skipped, not fatal.
	full := buf.String()
	input := full + "not json at all\n" + full[:len(full)/2]
	events, bad, err := ReadEvents(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	// The tail fragment contains one complete line plus a truncated one.
	if len(events) < 4 || bad < 2 {
		t.Fatalf("events=%d bad=%d, want >=4 events and >=2 bad lines", len(events), bad)
	}
	if events[0].Controller != "SM" || events[0].Actuator != ActRRef {
		t.Errorf("first event = %+v", events[0])
	}
	// Blank lines are not "bad".
	ev2, bad2, err := ReadEvents(strings.NewReader("\n\n" + full + "\n"))
	if err != nil || bad2 != 0 || len(ev2) != 3 {
		t.Fatalf("blank-line read: events=%d bad=%d err=%v", len(ev2), bad2, err)
	}
}
