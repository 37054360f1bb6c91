package experiments

import "testing"

// E18 — the columnar store must produce bitwise-identical results serial vs
// sharded vs resumed. The test runs the shrunk fleet (2000 servers, still
// dozens of enclosures per shard) through the identity harness; the full
// 100k fleet runs the identical code via `npexp scale100k`.
func TestScale100kBitIdentical(t *testing.T) {
	rep, err := scale100k.data(ctx, Options{Ticks: 120, Seed: 42}.normalized())
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Error(err)
	}
	if len(rep.Variants) < 2 || rep.Variants[0].Name != "shards=2" {
		t.Errorf("variants %q, want shards=2 first and a resume chain", rep.VariantNames())
	}
}

// The registered runner must fail loudly on divergence and render one table.
func TestScale100kExperimentRegistered(t *testing.T) {
	found := false
	for _, n := range Names() {
		if n == "scale100k" {
			found = true
		}
	}
	if !found {
		t.Fatalf("scale100k missing from Names(): %v", Names())
	}
	tables, err := RunExperiment(ctx, "scale100k", WithTicks(60))
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) == 0 {
		t.Errorf("scale100k tables = %+v", tables)
	}
}
