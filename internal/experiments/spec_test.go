package experiments

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"strings"
	"testing"

	"nopower/internal/trace"
)

// TestRunSpecLabels pins the checkpoint labels to the canonical JSON: one
// label per spec field under its JSON name, defaults spelled out, the shard
// count left out, and a digest that follows the trace values.
func TestRunSpecLabels(t *testing.T) {
	labels := RunSpec{}.Labels()
	typ := reflect.TypeOf(RunSpec{})
	for i := 0; i < typ.NumField(); i++ {
		name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ",")
		_, ok := labels[name]
		if want := name != "-" && name != "shards"; ok != want {
			t.Errorf("label %q present=%v, want %v", name, ok, want)
		}
	}
	if labels["cap_grp"] != "0.2" || labels["model"] != "BladeA" || labels["fault_policy"] != "" {
		t.Errorf("defaults not spelled out canonically: %v", labels)
	}
	if !maps.Equal(RunSpec{Shards: 4}.Labels(), labels) {
		t.Error("the shard count changed the labels")
	}

	set := func(v float64) *trace.Set {
		return &trace.Set{Traces: []*trace.Trace{trace.New("w", "", []float64{0.1, v})}}
	}
	a, b := RunSpec{Traces: set(0.2)}.Labels(), RunSpec{Traces: set(0.3)}.Labels()
	if a["traces"] == "" || a["traces"] == b["traces"] {
		t.Errorf("trace digests %q and %q: want set and distinct", a["traces"], b["traces"])
	}
	if _, ok := labels["traces"]; ok {
		t.Error("a generated-mix run carries a traces label")
	}
}

// FuzzRunSpec decodes arbitrary bytes as a job, as npserved does. Normalized,
// Validate, Key and Labels must never panic. A spec that validates must
// normalize idempotently, keep its Key and Labels through normalization and
// a JSON round trip, and map onto a stack, chaos case and fault policy
// without error.
func FuzzRunSpec(f *testing.F) {
	for _, seed := range []string{
		`{"mix":"60L","stack":"coordinated"}`,                       // the README job
		`{"mix":"aiburst","stack":"uncoordinated","facility":true}`, // E21's uncoordinated row
		`{"mix":"60HH","chaos":"sm-crash","fault_policy":"degrade"}`,
		`{"policy":"bogus"}`,
		`{"migration_ticks":-3}`,
		`{"cap_grp":1.5}`,
		`{"alpha_v":-2}`,
		`{"model":"bladea"}`,
		`{"model":"blade-a"}`,
		`{"chaos":"fault-free","fault_policy":"fail"}`,
		`{"cap_grp":-0,"cap_enc":0.2}`,
		`{"profiles":"bladea:3,rack-2u-32:1","mix":"60L","shards":2}`,
		`{"facility_feed_w":-1,"shards":-1}`,
		`{"mix":"scale1000000000"}`, // valid: Validate must not generate it
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var s RunSpec
		if dec.Decode(&s) != nil {
			return
		}
		n := s.Normalized()
		err := s.Validate()
		key, labels := s.Key(), s.Labels()
		if err != nil {
			return
		}
		if n.Normalized() != n {
			t.Fatalf("Normalized not idempotent:\n%+v\n%+v", n, n.Normalized())
		}
		if n.Key() != key || !maps.Equal(n.Labels(), labels) {
			t.Fatalf("normalizing %+v changed its key or labels", s)
		}
		wire, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var r RunSpec
		if err := json.Unmarshal(wire, &r); err != nil {
			t.Fatal(err)
		}
		if r.Key() != key || !maps.Equal(r.Labels(), labels) {
			t.Fatalf("JSON round trip of %+v changed its key or labels", s)
		}
		if _, err := s.CoreSpec(); err != nil {
			t.Fatalf("valid spec %+v: CoreSpec: %v", s, err)
		}
		if _, err := s.ChaosCase(); err != nil {
			t.Fatalf("valid spec %+v: ChaosCase: %v", s, err)
		}
		if _, err := s.Fault(); err != nil {
			t.Fatalf("valid spec %+v: Fault: %v", s, err)
		}
		if sc := s.Scenario(); sc.Ticks != n.Ticks || string(sc.Mix) != n.Mix {
			t.Fatalf("valid spec %+v: scenario %+v", s, sc)
		}
	})
}
