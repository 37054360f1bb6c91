package runner

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsSubmittedJobs(t *testing.T) {
	p := NewPool(context.Background(), 4)
	defer p.Close()
	var ran atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		if err := p.Submit(func(context.Context) error {
			defer wg.Done()
			ran.Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := ran.Load(); got != 100 {
		t.Fatalf("ran %d jobs, want 100", got)
	}
}

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(context.Background(), 2)
	defer p.Close()
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		_ = p.Submit(func(context.Context) error {
			defer wg.Done()
			n := cur.Add(1)
			for {
				old := peak.Load()
				if n <= old || peak.CompareAndSwap(old, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil
		})
	}
	wg.Wait()
	if got := peak.Load(); got > 2 {
		t.Fatalf("peak concurrency %d exceeds 2 workers", got)
	}
}

func TestPoolCloseRejectsAndJoins(t *testing.T) {
	p := NewPool(context.Background(), 1)
	started := make(chan struct{})
	release := make(chan struct{})
	var finished atomic.Bool
	_ = p.Submit(func(context.Context) error {
		close(started)
		<-release
		finished.Store(true)
		return nil
	})
	<-started
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned with a job still in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("in-flight job did not finish before Close returned")
	}
	if err := p.Submit(func(context.Context) error { return nil }); err != ErrPoolClosed {
		t.Fatalf("Submit after Close = %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent
}

func TestPoolJobsSeeBaseContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPool(ctx, 1)
	defer p.Close()
	got := make(chan error, 1)
	_ = p.Submit(func(jctx context.Context) error {
		cancel()
		<-jctx.Done()
		got <- jctx.Err()
		return nil
	})
	select {
	case err := <-got:
		if err != context.Canceled {
			t.Fatalf("job ctx err = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("job never observed base-context cancellation")
	}
}

// TestPoolOffer runs an offered job only on a worker that would otherwise
// sit idle: at once, past withdrawing, while one is free, and otherwise when
// a worker frees up with no submitted job waiting. A withdrawn offer and
// one made after Close never run, and QueueLen counts no waiting offer.
func TestPoolOffer(t *testing.T) {
	p := NewPool(context.Background(), 1)
	ran := make(chan string, 8)
	release := make(chan struct{})
	next := func() string {
		select {
		case name := <-ran:
			return name
		case <-time.After(10 * time.Second):
			t.Fatal("no job ran")
			return ""
		}
	}
	job := func(name string) func(context.Context) error {
		return func(context.Context) error {
			ran <- name
			if name == "busy" {
				<-release
			}
			return nil
		}
	}
	withdraw := p.Offer(job("idle"))
	withdraw() // too late: the idle worker has it
	if got := next(); got != "idle" {
		t.Fatalf("ran %q, want the offer made to an idle pool", got)
	}
	if err := p.Submit(job("busy")); err != nil {
		t.Fatal(err)
	}
	next()
	p.Offer(job("offered"))
	withdraw = p.Offer(job("withdrawn"))
	withdraw()
	if err := p.Submit(job("queued")); err != nil {
		t.Fatal(err)
	}
	if n := p.QueueLen(); n != 1 {
		t.Fatalf("QueueLen %d with one job submitted and two offered, want 1", n)
	}
	close(release)
	for _, want := range []string{"queued", "offered"} {
		if got := next(); got != want {
			t.Fatalf("ran %q, want %q: a submitted job starts before an offer", got, want)
		}
	}
	p.Close()
	p.Offer(job("closed"))
	withdraw()
	select {
	case got := <-ran:
		t.Fatalf("ran %q after the last expected job", got)
	default:
	}
}
