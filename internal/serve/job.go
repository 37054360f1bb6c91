// Package serve is the multi-tenant simulation-as-a-service layer: a
// long-running job server that accepts simulation specs over a small
// JSON API, multiplexes hundreds of concurrent runs over one
// internal/runner pool, deduplicates identical submissions through a
// shared singleflight result cache, and uses the checkpoint subsystem
// for job suspend/resume, eviction of idle jobs under memory pressure,
// and crash-safe daemon restarts. cmd/npserved is the HTTP front end.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"sync/atomic"

	"nopower/internal/experiments"
	"nopower/internal/metrics"
)

// JobSpec is the wire form of one simulation job: the run spec every
// surface shares. Its canonical Key is the shared result cache's key.
type JobSpec = experiments.RunSpec

// Output is a finished job's payload: the run summary against its
// no-management baseline.
type Output struct {
	Result    metrics.Result `json:"result"`
	BaselineW float64        `json:"baseline_w"`
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: admitted, waiting for a pool worker (also the state of
	// a resumed job between Resume and its next worker).
	StatusQueued Status = "queued"
	// StatusRunning: inside a pool worker (computing or joined on an
	// identical in-flight computation).
	StatusRunning Status = "running"
	// StatusSuspended: evicted to its checkpoint directory — no engine in
	// memory; Resume requeues it from the latest snapshot.
	StatusSuspended Status = "suspended"
	// StatusDone: finished with a result.
	StatusDone Status = "done"
	// StatusFailed: finished with an error.
	StatusFailed Status = "failed"
	// StatusCancelled: stopped at a tenant's request; never restarted.
	StatusCancelled Status = "cancelled"
)

// terminal reports whether a status can never change again.
func (st Status) terminal() bool {
	return st == StatusDone || st == StatusFailed || st == StatusCancelled
}

// Job is the server-side record of one submitted simulation.
type Job struct {
	ID   string  `json:"id"`
	Spec JobSpec `json:"spec"`

	// key is the shared-result-cache key (Spec.Key(), precomputed).
	key string
	// dir is the job's durable directory ("" when the server has none).
	dir string

	// Mutable state below is guarded by the server mutex, except the two
	// atomics the run loop writes from worker goroutines.
	status    Status
	out       *Output
	errMsg    string
	evicted   bool // suspended by the memory-pressure janitor, not a tenant
	dedup     bool // result came from the shared cache / a joined flight
	restarts  int  // times this job was (re)queued: resume + boot recovery
	submitted int64
	finished  int64

	// progress is ticks completed (absolute, survives resume); total is the
	// scenario tick count. lastAccess is the unix-nano of the last API
	// touch — the idleness signal the pressure janitor evicts by.
	progress   atomic.Int64
	total      int
	lastAccess atomic.Int64

	// done closes when the job reaches a terminal status.
	done chan struct{}
	// cancel stops the in-flight run with a cause (set while running).
	cancel func(error)
}

// View is the JSON rendering of a job's current state.
type View struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Key       string  `json:"key"`
	Status    Status  `json:"status"`
	Progress  int     `json:"progress_ticks"`
	Total     int     `json:"total_ticks"`
	Dedup     bool    `json:"dedup,omitempty"`
	Evicted   bool    `json:"evicted,omitempty"`
	Restarts  int     `json:"restarts,omitempty"`
	Error     string  `json:"error,omitempty"`
	Output    *Output `json:"output,omitempty"`
	Submitted int64   `json:"submitted_unix,omitempty"`
	Finished  int64   `json:"finished_unix,omitempty"`
}

// newJobID returns a fresh 96-bit random hex ID — unique across daemon
// restarts without any persisted counter.
func newJobID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("serve: job id entropy: " + err.Error())
	}
	return "j" + hex.EncodeToString(b[:])
}
