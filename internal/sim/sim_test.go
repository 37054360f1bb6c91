package sim

import (
	"context"
	"errors"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/testutil"
)

// recorder logs the ticks it ran at.
type recorder struct {
	name  string
	ticks []int
	order *[]string
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Tick(k int, cl *cluster.Cluster) {
	r.ticks = append(r.ticks, k)
	if r.order != nil {
		*r.order = append(*r.order, r.name)
	}
}

func TestRunValidation(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 10, 0.2)
	eng := New(cl)
	// Run(0) is a documented no-op: callers probing between ticks can pass a
	// computed count without special-casing zero.
	col, err := eng.Run(0)
	if err != nil {
		t.Errorf("Run(0) = %v, want no-op", err)
	}
	if col != eng.Collector || col == nil {
		t.Error("Run(0) must return the engine's collector")
	}
	if eng.Tick() != 0 {
		t.Errorf("Run(0) advanced the clock to %d", eng.Tick())
	}
	if _, err := eng.Run(-5); err == nil {
		t.Error("negative ticks accepted")
	}
	// Run(0) interleaved with real ticks observes nothing extra: Run(2) +
	// Run(0) + Run(3) ≡ Run(5).
	for _, n := range []int{2, 0, 3} {
		if _, err := eng.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := eng.Collector.Finalize(0).Ticks; got != 5 {
		t.Errorf("observed %d ticks, want 5", got)
	}
}

func TestControllersRunEveryTickInOrder(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 10, 0.2)
	var order []string
	a := &recorder{name: "A", order: &order}
	b := &recorder{name: "B", order: &order}
	eng := New(cl, a, b)
	if _, err := eng.Run(3); err != nil {
		t.Fatal(err)
	}
	if len(a.ticks) != 3 || len(b.ticks) != 3 {
		t.Fatalf("tick counts %d/%d", len(a.ticks), len(b.ticks))
	}
	want := []string{"A", "B", "A", "B", "A", "B"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestMetricsCollected(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 2, 10, 0.5)
	eng := New(cl)
	col, err := eng.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	r := col.Finalize(0)
	if r.Ticks != 7 {
		t.Errorf("Ticks = %d", r.Ticks)
	}
	if r.AvgPower <= 0 {
		t.Error("no power observed")
	}
}

// corruptor breaks placement bookkeeping; paranoid mode must catch it.
type corruptor struct{}

func (corruptor) Name() string { return "corruptor" }
func (corruptor) Tick(k int, cl *cluster.Cluster) {
	if k == 2 {
		cl.VMs[0].Server = 99999 % cl.NumServers() // lie without updating lists
		cl.VMs[0].Server = 1
	}
}

func TestParanoidCatchesCorruption(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 3, 10, 0.2)
	eng := New(cl, corruptor{})
	eng.Paranoid = true
	_, err := eng.Run(5)
	if err == nil {
		t.Fatal("paranoid mode missed placement corruption")
	}
	var ie *InvariantError
	if !errors.As(err, &ie) {
		t.Fatalf("err %T is not *InvariantError", err)
	}
	if ie.Tick != 2 || ie.Controller != "corruptor" {
		t.Errorf("InvariantError fields = tick %d, controller %q", ie.Tick, ie.Controller)
	}
	if ie.Unwrap() == nil {
		t.Error("InvariantError must wrap the cluster failure")
	}
}

// stopper cancels the shared context at a chosen tick.
type stopper struct {
	cancel context.CancelFunc
	at     int
}

func (s *stopper) Name() string { return "stopper" }
func (s *stopper) Tick(k int, cl *cluster.Cluster) {
	if k == s.at {
		s.cancel()
	}
}

func TestRunContextCancellation(t *testing.T) {
	cl := testutil.StandaloneCluster(t, 1, 100, 0.2)
	ctx, cancel := context.WithCancel(context.Background())
	eng := New(cl, &stopper{cancel: cancel, at: 3})
	_, err := eng.RunContext(ctx, 100)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The cancelling tick completes; the next one never starts.
	if eng.Tick() != 4 {
		t.Errorf("stopped after %d ticks, want 4", eng.Tick())
	}

	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := New(testutil.StandaloneCluster(t, 1, 10, 0.2)).RunContext(pre, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled err = %v", err)
	}
}

// TestRunContextCancellationCause pins the cause plumbing a job server
// depends on: a run stopped via context.WithCancelCause wraps the cause in
// its error, so callers can distinguish suspend-for-eviction from a tenant
// cancel without string matching.
func TestRunContextCancellationCause(t *testing.T) {
	suspended := errors.New("job suspended")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(suspended)
	_, err := New(testutil.StandaloneCluster(t, 1, 10, 0.2)).RunContext(ctx, 5)
	if !errors.Is(err, suspended) {
		t.Fatalf("err = %v, want it to wrap the cancellation cause", err)
	}
	// Plain cancellation still reports context.Canceled.
	plain, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := New(testutil.StandaloneCluster(t, 1, 10, 0.2)).RunContext(plain, 5); !errors.Is(err, context.Canceled) {
		t.Errorf("plain cancel err = %v", err)
	}
}
