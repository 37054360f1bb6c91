package runner

import (
	"context"
	"errors"
	"slices"
	"sync"
)

// ErrPoolClosed is returned by Pool.Submit after Close.
var ErrPoolClosed = errors.New("runner: pool closed")

// Pool is the daemon-shaped sibling of ForEach: a long-lived worker pool
// that executes submitted jobs as workers free up, instead of fanning out
// one fixed batch. The npserved run server multiplexes every simulation
// job over one Pool. Jobs run through the same process-wide accounting as
// the batch pool (np_runner_jobs_* metrics, busy-time telemetry), so a
// daemon's /metrics tells the same story a CLI sweep does.
//
// Ordering is FIFO admission: jobs start in submission order, but nothing
// is guaranteed about completion order — callers that need deterministic
// results key them by job, never by completion (the same contract ForEach
// documents).
type Pool struct {
	ctx     context.Context
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func(context.Context) error
	offers []*offer // waiting offers, taken oldest first when queue is empty
	closed bool

	running int // jobs currently inside a worker
	wg      sync.WaitGroup
}

// NewPool starts workers goroutines that execute submitted jobs until
// Close. ctx is the base context handed to every job; cancelling it is the
// fast-shutdown path (jobs observe it, the pool structure itself survives
// until Close). workers < 1 selects GOMAXPROCS via Parallelism.
func NewPool(ctx context.Context, workers int) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	p := &Pool{ctx: ctx, workers: Parallelism(workers)}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(p.workers)
	for w := 0; w < p.workers; w++ {
		go p.work()
	}
	return p
}

// Workers reports the pool's worker count.
func (p *Pool) Workers() int { return p.workers }

// Submit enqueues one job. It never blocks on a full queue (the queue is
// unbounded — the daemon's admission control lives above the pool) and
// returns ErrPoolClosed after Close.
func (p *Pool) Submit(fn func(ctx context.Context) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	p.queue = append(p.queue, fn)
	p.cond.Signal()
	return nil
}

// offer is one Offer's job, held by pointer so that its withdraw finds it.
type offer struct{ fn func(context.Context) error }

// Offer gives fn to a worker that would otherwise sit idle: to one idle
// now, for good, or else to the first worker that frees up with no
// submitted job waiting. So a waiting offer never starts ahead of a
// submitted job, and QueueLen does not count it. withdraw takes back an fn
// that is still waiting; after withdraw or Close it never starts. A caller
// that can do fn's work itself offers it, and withdraws it when it needs
// the work done.
func (p *Pool) Offer(fn func(ctx context.Context) error) (withdraw func()) {
	o := &offer{fn: fn}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.closed:
	case p.running+len(p.queue) < p.workers:
		// Queue it for the idle worker, past withdrawing, so that the
		// handover does not depend on how soon that worker is scheduled.
		p.queue = append(p.queue, fn)
		p.cond.Signal()
	default:
		p.offers = append(p.offers, o)
	}
	return func() {
		p.mu.Lock()
		defer p.mu.Unlock()
		for i, q := range p.offers {
			if q == o {
				p.offers = slices.Delete(p.offers, i, i+1)
				return
			}
		}
	}
}

// QueueLen reports jobs admitted but not yet started.
func (p *Pool) QueueLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

// Running reports jobs currently executing inside a worker.
func (p *Pool) Running() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.running
}

// Close stops the pool: no further Submit succeeds, jobs still queued are
// abandoned (a durable caller re-discovers them from its own store — the
// daemon rescans its checkpoint directory on boot), and Close blocks until
// every in-flight job has returned. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		p.queue, p.offers = nil, nil
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Pool) work() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && len(p.offers) == 0 && !p.closed {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		var fn func(context.Context) error
		if len(p.queue) > 0 {
			fn = p.queue[0]
			// Clear the slot: the backing array outlives the reslice, and a
			// job's closure may hold what the job ran on (a daemon job's
			// trace set) until append next reallocates it.
			p.queue[0] = nil
			p.queue = p.queue[1:]
		} else {
			fn = p.offers[0].fn
			p.offers = slices.Delete(p.offers, 0, 1)
		}
		p.running++
		p.mu.Unlock()

		_ = runJob(p.ctx, 0, func(ctx context.Context, _ int) error { return fn(ctx) })

		p.mu.Lock()
		p.running--
		p.mu.Unlock()
	}
}
