package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"nopower/internal/checkpoint"
	"nopower/internal/experiments"
	"nopower/internal/obs"
	"nopower/internal/runner"
)

// Cancellation causes. Runs are stopped through context.WithCancelCause, and
// the cause — recoverable from the run error via errors.Is — decides the
// job's next state: suspended jobs keep their checkpoints and can resume,
// cancelled jobs are gone for good.
var (
	// ErrSuspended stops a run so it can resume later from its checkpoint
	// (explicit Suspend, or eviction under memory pressure).
	ErrSuspended = errors.New("serve: job suspended")
	// errCancelled stops a run at the tenant's request.
	errCancelled = errors.New("serve: job cancelled")
	// errShutdown stops every run at daemon shutdown; like suspension, the
	// checkpoints stay, so a restarted daemon resumes the work.
	errShutdown = errors.New("serve: server shutting down")
)

// ErrServerClosed rejects submissions to a closed server.
var ErrServerClosed = errors.New("serve: server closed")

// ErrUnknownJob reports a job ID the server has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// Config parameterizes a Server. The zero value runs in memory with
// runtime-sized workers and no checkpointing.
type Config struct {
	// Dir is the durable job directory. Every job gets a subdirectory with
	// its spec, periodic checkpoints, and final result, which is what makes
	// suspend/resume, eviction, and crash-safe restart work. "" disables
	// durability: jobs run purely in memory.
	Dir string
	// Workers sizes the run pool (0 = runner.Parallelism()).
	Workers int
	// CheckpointEvery is the periodic checkpoint interval in ticks
	// (0 = 500; <0 disables periodic checkpoints).
	CheckpointEvery int
	// MemHighBytes and MemLowBytes are the eviction watermarks: heap above
	// high suspends the least-recently-accessed running job to its
	// checkpoint; heap back under low resumes evicted jobs. Zero disables
	// the janitor.
	MemHighBytes uint64
	MemLowBytes  uint64
	// MemCheckEvery is the janitor's sampling period (0 = 250ms).
	MemCheckEvery time.Duration
	// Registry receives the server's metrics (nil = a fresh registry).
	Registry *obs.Registry

	// memBytes overrides the janitor's heap probe in tests.
	memBytes func() uint64
}

// Server is the multi-tenant run daemon: it admits jobs, runs them on a
// bounded worker pool, deduplicates identical specs through one shared
// singleflight cache, and round-trips suspended jobs through the checkpoint
// directory.
type Server struct {
	cfg Config
	reg *obs.Registry

	pool *runner.Pool
	// cache is the shared cross-tenant result cache: one computation and one
	// cached Output per canonical spec hash, however many tenants ask.
	cache *runner.Cache[string, Output]
	// baselines shares the controller-free baseline run across every stack
	// variant of the same scenario.
	baselines *runner.Cache[string, float64]

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu      sync.Mutex
	jobs    map[string]*Job
	leaders map[string]*Job // cache key → job currently computing it
	closed  bool

	janitorDone chan struct{}
	closeOnce   sync.Once

	mSubmitted, mDone, mFailed, mCancelled *obs.Counter
	mDedup, mEvicted, mResumed, mRecovered *obs.Counter
	mJobSeconds                            *obs.Histogram
}

// New builds and starts a server: recovers any jobs found in cfg.Dir (done
// results are served from disk, everything else is requeued, resuming from
// its latest checkpoint) and starts the memory-pressure janitor when the
// watermarks are set.
func New(cfg Config) (*Server, error) {
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 500
	}
	if cfg.CheckpointEvery < 0 {
		cfg.CheckpointEvery = 0
	}
	if cfg.MemCheckEvery == 0 {
		cfg.MemCheckEvery = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s := &Server{
		cfg:        cfg,
		reg:        cfg.Registry,
		pool:       runner.NewPool(ctx, cfg.Workers),
		cache:      &runner.Cache[string, Output]{},
		baselines:  &runner.Cache[string, float64]{},
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		leaders:    make(map[string]*Job),
	}
	s.registerMetrics()
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			s.pool.Close()
			return nil, fmt.Errorf("serve: %w", err)
		}
		if err := s.recover(); err != nil {
			s.pool.Close()
			return nil, err
		}
	}
	if cfg.MemHighBytes > 0 {
		s.janitorDone = make(chan struct{})
		go s.janitor()
	}
	return s, nil
}

func (s *Server) registerMetrics() {
	r := s.reg
	s.mSubmitted = r.Counter("np_serve_jobs_submitted_total")
	s.mDone = r.Counter("np_serve_jobs_done_total")
	s.mFailed = r.Counter("np_serve_jobs_failed_total")
	s.mCancelled = r.Counter("np_serve_jobs_cancelled_total")
	s.mDedup = r.Counter("np_serve_dedup_hits_total")
	s.mEvicted = r.Counter("np_serve_evictions_total")
	s.mResumed = r.Counter("np_serve_resumes_total")
	s.mRecovered = r.Counter("np_serve_jobs_recovered_total")
	s.mJobSeconds = r.Histogram("np_serve_job_seconds", 0.01, 0.1, 1, 10, 60, 300)
	r.GaugeFunc("np_serve_jobs_queued", func() float64 { return float64(s.countStatus(StatusQueued)) })
	r.GaugeFunc("np_serve_jobs_running", func() float64 { return float64(s.countStatus(StatusRunning)) })
	r.GaugeFunc("np_serve_jobs_suspended", func() float64 { return float64(s.countStatus(StatusSuspended)) })
	r.GaugeFunc("np_serve_pool_queue_depth", func() float64 { return float64(s.pool.QueueLen()) })
	r.GaugeFunc("np_serve_pool_running", func() float64 { return float64(s.pool.Running()) })
	r.Gauge("np_serve_pool_workers").Set(float64(s.pool.Workers()))
	r.GaugeFunc("np_serve_cache_entries", func() float64 { return float64(s.cache.Len()) })
}

func (s *Server) countStatus(st Status) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.status == st {
			n++
		}
	}
	return n
}

// Registry exposes the server's metrics registry (for mounting /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Submit admits one job: validates the spec, persists it (when durable),
// and queues it on the pool. The returned view's ID is the handle for every
// later call.
func (s *Server) Submit(spec JobSpec) (View, error) {
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	if spec.FaultPolicy == "propagate" {
		// A re-raised controller panic would unwind through the pool worker
		// and take every tenant's jobs down with the daemon.
		return View{}, errors.New("serve: fault_policy propagate would crash the daemon (use fail or degrade)")
	}
	j := &Job{
		ID:        newJobID(),
		Spec:      spec,
		key:       spec.Key(),
		status:    StatusQueued,
		submitted: time.Now().Unix(),
		total:     spec.Normalized().Ticks,
		done:      make(chan struct{}),
	}
	j.lastAccess.Store(time.Now().UnixNano())

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return View{}, ErrServerClosed
	}
	if s.cfg.Dir != "" {
		j.dir = filepath.Join(s.cfg.Dir, j.ID)
		if err := s.persistSpec(j); err != nil {
			s.mu.Unlock()
			return View{}, err
		}
	}
	s.jobs[j.ID] = j
	err := s.enqueueLocked(j)
	v := s.viewLocked(j)
	s.mu.Unlock()
	if err != nil {
		return View{}, err
	}
	s.mSubmitted.Inc()
	return v, nil
}

// enqueueLocked queues j on the pool; the caller holds s.mu.
func (s *Server) enqueueLocked(j *Job) error {
	if err := s.pool.Submit(func(jctx context.Context) error {
		s.run(jctx, j)
		return nil
	}); err != nil {
		return ErrServerClosed
	}
	return nil
}

// run executes one queued job inside a pool worker.
func (s *Server) run(jctx context.Context, j *Job) {
	s.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled or suspended while waiting in the queue.
		s.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancelCause(jctx)
	j.status = StatusRunning
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel(nil)

	var out Output
	var err error
	dedup := true
	for {
		computed := false
		out, err = s.cache.GetCtx(ctx, j.key, func() (Output, error) {
			computed = true
			s.setLeader(j, true)
			defer s.setLeader(j, false)
			return s.compute(ctx, j)
		})
		if computed {
			dedup = false
		}
		if err == nil || ctx.Err() != nil || computed {
			break
		}
		// We were joined on another tenant's in-flight computation and that
		// leader stopped (suspended, cancelled, or shut down) while we are
		// still live. Retry: we become the new leader, or join a newer one.
		// A real compute failure is deterministic — it would fail for us
		// too — so only cancellations are worth retrying.
		if !isCancellation(err) {
			break
		}
	}
	s.finish(j, out, err, ctx, dedup)
}

// isCancellation reports whether err is some run's cancellation rather than
// a real failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrSuspended) ||
		errors.Is(err, errCancelled) ||
		errors.Is(err, errShutdown)
}

// compute is the cache-miss path: actually run the simulation, resuming
// from the job's latest checkpoint when one exists.
func (s *Server) compute(ctx context.Context, j *Job) (Output, error) {
	o := experiments.Observers{
		Progress: func(done, _ int) { j.progress.Store(int64(done)) },
	}
	if j.dir != "" {
		if path, lerr := checkpoint.Latest(j.dir); lerr == nil && path != "" {
			// An unreadable checkpoint falls back to a from-scratch run —
			// determinism makes that merely slower, never wrong.
			if f, rerr := checkpoint.Read(path); rerr == nil && !f.Meta.MidTick {
				o.Resume = f
			}
		}
		if s.cfg.CheckpointEvery > 0 {
			o.Checkpoint = &checkpoint.Saver{
				Dir:      j.dir,
				Every:    s.cfg.CheckpointEvery,
				Meta:     checkpoint.Meta{Experiment: j.ID, Labels: j.Spec.Labels()},
				Registry: s.reg,
			}
		}
	}
	baseline, err := s.baselines.GetCtx(ctx, baselineKey(j.Spec), func() (float64, error) {
		return experiments.BaselinePower(ctx, j.Spec.Scenario())
	})
	if err != nil {
		return Output{}, err
	}
	res, _, err := j.Spec.Run(ctx, baseline, o)
	return Output{Result: res, BaselineW: baseline}, err
}

// baselineKey keys the shared baseline cache: only the scenario fields
// matter — the controller-free run reads no stack, budget, facility, fault
// or execution setting.
func baselineKey(s JobSpec) string {
	c := s.Normalized()
	c.Stack, c.Policy, c.NoOff, c.Shards = "", "", false, 0
	c.CapGrp, c.CapEnc, c.CapLoc = 0, 0, 0
	c.Facility, c.FacilityFeedW, c.Chaos, c.FaultPolicy = false, 0, "", ""
	return c.Key()
}

// setLeader records (or clears) j as the job computing its cache key, so
// followers' status views can mirror the leader's live progress.
func (s *Server) setLeader(j *Job, on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if on {
		s.leaders[j.key] = j
	} else if s.leaders[j.key] == j {
		delete(s.leaders, j.key)
	}
}

// finish classifies a run's outcome into the job's next state.
func (s *Server) finish(j *Job, out Output, err error, ctx context.Context, dedup bool) {
	// A dead job context is the authoritative outcome, whatever error the
	// cache handed back: the cause distinguishes suspend from cancel from
	// shutdown. (ctx.Err() alone is always context.Canceled.)
	if err != nil && ctx.Err() != nil {
		err = context.Cause(ctx)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.status.terminal() {
		return // Cancel already settled it.
	}
	j.cancel = nil
	switch {
	case err == nil:
		j.status = StatusDone
		j.out = &out
		j.dedup = dedup
		j.finished = time.Now().Unix()
		j.progress.Store(int64(j.total))
		s.persistResult(j)
		close(j.done)
		s.mDone.Inc()
		if dedup {
			s.mDedup.Inc()
		}
		s.mJobSeconds.Observe(float64(j.finished - j.submitted))
	case errors.Is(err, ErrSuspended), errors.Is(err, errShutdown):
		// Checkpoints stay on disk; Resume (or the next daemon boot)
		// requeues the job from the latest one.
		j.status = StatusSuspended
	case errors.Is(err, errCancelled), errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		j.status = StatusCancelled
		j.errMsg = "cancelled"
		j.finished = time.Now().Unix()
		close(j.done)
		s.mCancelled.Inc()
	default:
		j.status = StatusFailed
		j.errMsg = err.Error()
		j.finished = time.Now().Unix()
		s.persistFailure(j)
		close(j.done)
		s.mFailed.Inc()
	}
}

// Job returns the current view of one job.
func (s *Server) Job(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, ErrUnknownJob
	}
	j.lastAccess.Store(time.Now().UnixNano())
	return s.viewLocked(j), nil
}

// Jobs lists every job, oldest submission first.
func (s *Server) Jobs() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.viewLocked(j))
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Submitted != out[b].Submitted {
			return out[a].Submitted < out[b].Submitted
		}
		return out[a].ID < out[b].ID
	})
	return out
}

func (s *Server) viewLocked(j *Job) View {
	progress := j.progress.Load()
	if j.status == StatusRunning {
		// A follower joined on another job's computation mirrors the
		// leader's live progress.
		if l := s.leaders[j.key]; l != nil && l != j {
			progress = l.progress.Load()
		}
	}
	v := View{
		ID:        j.ID,
		Spec:      j.Spec,
		Key:       j.key,
		Status:    j.status,
		Progress:  int(progress),
		Total:     j.total,
		Dedup:     j.dedup,
		Evicted:   j.evicted,
		Restarts:  j.restarts,
		Error:     j.errMsg,
		Output:    j.out,
		Submitted: j.submitted,
		Finished:  j.finished,
	}
	return v
}

// Wait blocks until the job reaches a terminal state or ctx expires, and
// returns the view either way (check Status).
func (s *Server) Wait(ctx context.Context, id string) (View, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return View{}, ErrUnknownJob
	}
	j.lastAccess.Store(time.Now().UnixNano())
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return s.Job(id)
}

// Cancel stops a job for good: a running computation is interrupted, the
// job's directory is removed, and the terminal state is cancelled.
// Cancelling a finished job is a no-op.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if j.status.terminal() {
		s.mu.Unlock()
		return nil
	}
	cancel := j.cancel
	j.cancel = nil
	j.status = StatusCancelled
	j.errMsg = "cancelled"
	j.finished = time.Now().Unix()
	dir := j.dir
	close(j.done)
	s.mu.Unlock()
	s.mCancelled.Inc()
	if cancel != nil {
		cancel(errCancelled)
	}
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
	return nil
}

// Suspend checkpoints a job out of memory: a queued job is parked, a
// running one is stopped at its next tick boundary (its latest periodic
// checkpoint is the resume point). Resume (or a daemon restart) picks it
// back up.
func (s *Server) Suspend(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.suspendLocked(id, false)
}

func (s *Server) suspendLocked(id string, evicted bool) error {
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	switch j.status {
	case StatusQueued:
		j.status = StatusSuspended
		j.evicted = evicted
		return nil
	case StatusRunning:
		j.evicted = evicted
		if j.cancel != nil {
			j.cancel(ErrSuspended)
		}
		return nil
	case StatusSuspended:
		return nil
	default:
		return fmt.Errorf("serve: job %s is %s, not suspendable", id, j.status)
	}
}

// Resume requeues a suspended job; its next run picks up from the latest
// checkpoint (or from tick zero when none was written — determinism makes
// the result identical either way).
func (s *Server) Resume(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return ErrUnknownJob
	}
	if j.status != StatusSuspended {
		return fmt.Errorf("serve: job %s is %s, not suspended", id, j.status)
	}
	return s.requeueLocked(j)
}

func (s *Server) requeueLocked(j *Job) error {
	if s.closed {
		return ErrServerClosed
	}
	j.status = StatusQueued
	j.evicted = false
	j.restarts++
	s.mResumed.Inc()
	return s.enqueueLocked(j)
}

// recover rescans the durable directory on boot: done and failed jobs are
// served from their persisted payloads; everything else — queued, running,
// or suspended when the previous daemon died — is requeued and resumes from
// its latest checkpoint.
func (s *Server) recover() error {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(s.cfg.Dir, e.Name())
		rec, err := readJSON[jobRecord](filepath.Join(dir, specFile))
		if err != nil {
			continue // not a job directory (or torn mid-create); skip
		}
		j := &Job{
			ID:        rec.ID,
			Spec:      rec.Spec,
			key:       rec.Spec.Key(),
			dir:       dir,
			submitted: rec.Submitted,
			total:     rec.Spec.Normalized().Ticks,
			done:      make(chan struct{}),
		}
		j.lastAccess.Store(time.Now().UnixNano())
		if out, err := readJSON[Output](filepath.Join(dir, resultFile)); err == nil {
			j.status = StatusDone
			j.out = &out
			j.progress.Store(int64(j.total))
			close(j.done)
		} else if f, err := readJSON[failureRecord](filepath.Join(dir, failedFile)); err == nil {
			j.status = StatusFailed
			j.errMsg = f.Error
			close(j.done)
		} else {
			j.status = StatusQueued
			j.restarts++
			if err := s.enqueueLocked(j); err != nil {
				return err
			}
		}
		s.mu.Lock()
		s.jobs[j.ID] = j
		s.mu.Unlock()
		s.mRecovered.Inc()
	}
	return nil
}

// janitor samples heap use and round-trips jobs through their checkpoints
// to keep the daemon under its memory watermarks: above high, the
// least-recently-accessed running job is evicted (suspended to disk); back
// under low, evicted jobs are resumed.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	probe := s.cfg.memBytes
	if probe == nil {
		probe = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	t := time.NewTicker(s.cfg.MemCheckEvery)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
		}
		heap := probe()
		if heap > s.cfg.MemHighBytes {
			s.evictOne()
		} else if heap < s.cfg.MemLowBytes {
			s.resumeEvicted()
		}
	}
}

// evictOne suspends the least-recently-accessed running job.
func (s *Server) evictOne() {
	s.mu.Lock()
	defer s.mu.Unlock()
	var victim *Job
	for _, j := range s.jobs {
		if j.status != StatusRunning || j.cancel == nil {
			continue
		}
		if victim == nil || j.lastAccess.Load() < victim.lastAccess.Load() {
			victim = j
		}
	}
	if victim == nil {
		return
	}
	s.mEvicted.Inc()
	_ = s.suspendLocked(victim.ID, true)
}

// resumeEvicted requeues every janitor-evicted job (tenant-suspended jobs
// stay parked until their tenant asks).
func (s *Server) resumeEvicted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.jobs {
		if j.status == StatusSuspended && j.evicted {
			_ = s.requeueLocked(j)
		}
	}
}

// Close shuts the server down gracefully: running jobs stop at their next
// tick boundary (their checkpoints make them resumable by the next boot),
// queued jobs stay durable on disk, and Close returns once every worker has
// drained. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.baseCancel(errShutdown)
		s.pool.Close()
		if s.janitorDone != nil {
			<-s.janitorDone
		}
	})
	return nil
}

// Durable on-disk filenames inside each job directory.
const (
	specFile   = "job.json"
	resultFile = "result.json"
	failedFile = "failed.json"
)

// jobRecord is the durable submission record.
type jobRecord struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Submitted int64   `json:"submitted_unix"`
}

// failureRecord is the durable terminal-failure record.
type failureRecord struct {
	Error string `json:"error"`
}

func (s *Server) persistSpec(j *Job) error {
	if err := os.MkdirAll(j.dir, 0o755); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	rec := jobRecord{ID: j.ID, Spec: j.Spec, Submitted: j.submitted}
	return writeJSON(filepath.Join(j.dir, specFile), rec)
}

// persistResult and persistFailure are best-effort: a write failure leaves
// the job re-runnable after a restart (determinism makes the rerun cheap
// and identical), so it must not fail the finished job.
func (s *Server) persistResult(j *Job) {
	if j.dir == "" {
		return
	}
	_ = writeJSON(filepath.Join(j.dir, resultFile), j.out)
}

func (s *Server) persistFailure(j *Job) {
	if j.dir == "" {
		return
	}
	_ = writeJSON(filepath.Join(j.dir, failedFile), failureRecord{Error: j.errMsg})
}

// writeJSON writes via temp-file-and-rename so a crash mid-write never
// leaves a torn file where recovery expects a record.
func writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

func readJSON[T any](path string) (T, error) {
	var v T
	data, err := os.ReadFile(path)
	if err != nil {
		return v, err
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, fmt.Errorf("serve: %s: %w", path, err)
	}
	return v, nil
}
