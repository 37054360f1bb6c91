package sim

import (
	"strings"
	"testing"
	"time"

	"nopower/internal/testutil"
)

func TestEventInjectorFiresInOrder(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	ev := func(at int, name string) Event {
		return Event{At: at, Name: name}
	}
	inj := NewEventInjector(ev(5, "b"), ev(2, "a"), ev(5, "c"))
	eng := New(cl, inj)
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	fired := inj.Fired()
	want := []string{"2:a", "5:b", "5:c"}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i, w := range want {
		if fired[i] != w {
			t.Errorf("fired[%d] = %q, want %q", i, fired[i], w)
		}
	}
}

func TestFailServerStrandsAndEvacuates(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 100, 0.2)
	inj := NewEventInjector(FailServer(3, 0))
	eng := New(cl, inj)
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if cl.On(0) {
		t.Error("failed server still on")
	}
	if cl.VMs[0].Server == 0 {
		t.Error("VM not evacuated from failed server")
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFailServerWithNoTargetLosesWork(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 100, 0.5)
	inj := NewEventInjector(FailServer(2, 0))
	eng := New(cl, inj)
	col, err := eng.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	res := col.Finalize(0)
	if res.PerfLoss <= 0.5 {
		t.Errorf("perf loss %.2f — a total outage should lose most work", res.PerfLoss)
	}
}

func TestRestoreServer(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 100, 0.2)
	inj := NewEventInjector(FailServer(2, 0), RestoreServer(6, 0))
	eng := New(cl, inj)
	if _, err := eng.Run(10); err != nil {
		t.Fatal(err)
	}
	if !cl.On(0) || cl.PState(0) != 0 {
		t.Error("server not restored at P0")
	}
}

func TestScaleDemand(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 100, 0.2)
	inj := NewEventInjector(ScaleDemand(2, 2.0))
	eng := New(cl, inj)
	if _, err := eng.Run(5); err != nil {
		t.Fatal(err)
	}
	if got := cl.VMs[0].Trace.At(3); got != 0.4 {
		t.Errorf("demand after surge = %v, want 0.4", got)
	}
	// Zero factor ignored.
	NewEventInjector(ScaleDemand(0, 0)).Tick(0, cl)
	if got := cl.VMs[0].Trace.At(3); got != 0.4 {
		t.Errorf("zero-factor scale applied: %v", got)
	}
}

func TestFiredSameTickKeepsScheduleOrder(t *testing.T) {
	// Same-tick events fire in the order they were passed to the injector
	// (the sort is stable), and late registration of an earlier tick still
	// fires first.
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	mk := func(at int, name string) Event { return Event{At: at, Name: name} }
	inj := NewEventInjector(mk(4, "x"), mk(4, "y"), mk(1, "early"), mk(4, "z"))
	eng := New(cl, inj)
	if _, err := eng.Run(6); err != nil {
		t.Fatal(err)
	}
	want := []string{"1:early", "4:x", "4:y", "4:z"}
	got := inj.Fired()
	if len(got) != len(want) {
		t.Fatalf("fired = %v", got)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("fired[%d] = %q, want %q", i, got[i], w)
		}
	}
	// Fired returns a copy: mutating it must not corrupt the injector.
	got[0] = "tampered"
	if inj.Fired()[0] != "1:early" {
		t.Error("Fired() exposes internal state")
	}
}

func TestFailServerProgressGuard(t *testing.T) {
	// Regression: if Move succeeds without removing the head VM from the
	// failed server's list (bookkeeping already inconsistent — here the VM
	// claims to live on the evacuation target already), FailServer used to
	// re-read the same head forever. The guard must break instead.
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	cl.VMs[0].Server = 1 // lie: still listed on server 0, claims server 1
	done := make(chan struct{})
	go func() {
		FailServer(0, 0).Apply(cl)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("FailServer livelocked on a non-removing Move")
	}
	if cl.On(0) {
		t.Error("failed server with stranded VM must still go dark")
	}
}

func TestFailServerOutOfRangeIsNoOp(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 100, 0.2)
	for _, srv := range []int{-1, 99} {
		FailServer(0, srv).Apply(cl)
	}
	if cl.OnCount() != 2 {
		t.Error("out-of-range failure touched the cluster")
	}
}

func TestRestoreServerAfterStrandedFailure(t *testing.T) {
	// A 1-server cluster has no evacuation target: the failure strands the
	// VM on a dark machine (CheckInvariants rejects that state by design).
	// RestoreServer must bring the machine back at P0 with the VM still
	// placed, restoring the invariants.
	cl := testutil.StandaloneCluster(t, 1, 100, 0.5)
	inj := NewEventInjector(FailServer(2, 0), RestoreServer(5, 0))
	eng := New(cl, inj)
	probe := func() {
		if _, err := eng.Run(3); err != nil {
			t.Fatal(err)
		}
	}
	probe() // ticks 0-2: failure fired
	if cl.On(0) {
		t.Fatal("server still on after failure")
	}
	if err := cl.CheckInvariants(); err == nil {
		t.Error("stranded-VM outage should violate placement invariants")
	}
	probe() // ticks 3-5: restore fired
	if !cl.On(0) || cl.PState(0) != 0 {
		t.Error("server not restored at P0")
	}
	if len(cl.ServerVMs(0)) != 1 {
		t.Errorf("stranded VM lost across restore: %v", cl.ServerVMs(0))
	}
	if err := cl.CheckInvariants(); err != nil {
		t.Errorf("invariants broken after restore: %v", err)
	}
	// Out-of-range restores are no-ops.
	RestoreServer(0, -2).Apply(cl)
	RestoreServer(0, 42).Apply(cl)
}

func TestScaleDemandNonPositiveFactorIgnored(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 100, 0.2)
	for _, factor := range []float64{0, -1.5} {
		ScaleDemand(0, factor).Apply(cl)
		if got := cl.VMs[0].Trace.At(0); got != 0.2 {
			t.Errorf("factor %v applied: demand = %v, want 0.2", factor, got)
		}
	}
}

func TestEventNamesDescriptive(t *testing.T) {
	events := []Event{
		FailServer(1, 2), RestoreServer(2, 2), ScaleDemand(5, 1.5),
	}
	for _, ev := range events {
		if ev.Name == "" || !strings.ContainsAny(ev.Name, "0123456789") {
			t.Errorf("event name %q not descriptive", ev.Name)
		}
	}
}
