package prof

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSpans(t *testing.T) {
	p := New(8)
	for i := 0; i < 3; i++ {
		p.Record(i, PhaseAdvance, -1, int64(i*100), 50)
	}
	if got := p.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	spans := p.Spans()
	for i, s := range spans {
		if s.Tick != i || s.Phase != PhaseAdvance || s.Shard != -1 || s.Dur != 50 {
			t.Fatalf("span %d = %+v", i, s)
		}
	}
	if p.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", p.Dropped())
	}
}

func TestRingOverwriteCountsDropped(t *testing.T) {
	p := New(4)
	for i := 0; i < 10; i++ {
		p.Record(i, PhaseTick, -1, int64(i), 1)
	}
	if got := p.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := p.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := p.Spans()
	if spans[0].Tick != 6 || spans[3].Tick != 9 {
		t.Fatalf("retained ticks %d..%d, want 6..9", spans[0].Tick, spans[3].Tick)
	}
}

func TestDefaultCapacity(t *testing.T) {
	p := New(0)
	if len(p.spans) != DefaultCapacity {
		t.Fatalf("capacity %d, want %d", len(p.spans), DefaultCapacity)
	}
}

func TestConcurrentRecord(t *testing.T) {
	p := New(1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Record(i, PhaseShard, w, p.Now(), 10)
			}
		}(w)
	}
	wg.Wait()
	if got := p.Len(); got != 800 {
		t.Fatalf("Len = %d, want 800", got)
	}
}

func TestPhaseStats(t *testing.T) {
	p := New(64)
	p.Record(0, PhaseAdvance, -1, 0, 100)
	p.Record(1, PhaseAdvance, -1, 0, 300)
	p.Record(0, PhaseReduce, -1, 0, 10)
	stats := p.PhaseStats()
	if len(stats) != 2 {
		t.Fatalf("got %d phases, want 2", len(stats))
	}
	if stats[0].Phase != PhaseAdvance || stats[0].Count != 2 ||
		stats[0].Total != 400*time.Nanosecond || stats[0].Max != 300*time.Nanosecond {
		t.Fatalf("advance stat = %+v", stats[0])
	}
	if stats[1].Phase != PhaseReduce || stats[1].Total != 10*time.Nanosecond {
		t.Fatalf("reduce stat = %+v", stats[1])
	}
}

func TestShardImbalance(t *testing.T) {
	p := New(64)
	// Tick 0: workers take 100 and 300 ns → max/mean = 300/200 = 1.5.
	p.Record(0, PhaseShard, 0, 0, 100)
	p.Record(0, PhaseShard, 1, 0, 300)
	// Tick 1: perfectly balanced → 1.0. Average over ticks = 1.25.
	p.Record(1, PhaseShard, 0, 0, 200)
	p.Record(1, PhaseShard, 1, 0, 200)
	// A single-worker tick and an unrelated phase are ignored.
	p.Record(2, PhaseShard, 0, 0, 999)
	p.Record(0, PhaseAdvance, -1, 0, 999)
	if got := p.ShardImbalance(PhaseShard); math.Abs(got-1.25) > 1e-12 {
		t.Fatalf("imbalance = %g, want 1.25", got)
	}
	if got := p.ShardImbalance("no.such.phase"); got != 0 {
		t.Fatalf("imbalance of absent phase = %g, want 0", got)
	}
}

func TestCounters(t *testing.T) {
	p := New(64)
	p.RecordCounter(0, CounterGCCycles, 100, 1)
	p.RecordCounter(1, CounterHeapAllocBytes, 200, 4096)
	cs := p.Counters()
	if len(cs) != 2 || cs[0].Name != CounterGCCycles || cs[1].Value != 4096 {
		t.Fatalf("counters = %+v", cs)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	p := New(64)
	p.Record(0, PhaseTick, -1, 0, 1000)
	p.Record(0, PhaseShard, 0, 100, 400)
	p.Record(0, PhaseShard, 1, 100, 500)
	p.RecordCounter(0, CounterGCCycles, 1000, 2)
	var buf bytes.Buffer
	if err := p.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var complete, meta, counter int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Dur <= 0 {
				t.Fatalf("complete event %q has dur %g", ev.Name, ev.Dur)
			}
			if _, ok := ev.Args["tick"]; !ok {
				t.Fatalf("complete event %q missing tick arg", ev.Name)
			}
		case "M":
			meta++
		case "C":
			counter++
		}
	}
	if complete != 3 || counter != 1 || meta < 3 {
		t.Fatalf("events: %d complete, %d counter, %d meta", complete, counter, meta)
	}
	// The shard lanes map to distinct tids above the engine lane.
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.TID] = true
		}
	}
	if !tids[0] || !tids[1] || !tids[2] {
		t.Fatalf("span lanes = %v, want 0,1,2", tids)
	}
}
