package sim

import (
	"fmt"
	"sort"

	"nopower/internal/cluster"
	"nopower/internal/state"
)

// Event is a scheduled perturbation of the running system — the dynamism
// §3.2 claims the architecture accommodates: "changes to workload behavior,
// changes to system models, changes in controller policies, changes in time
// constants". Events fire before the controllers of their tick, so the stack
// reacts to the new reality the same way it reacts to workload change.
type Event struct {
	// At is the tick the event fires on.
	At int
	// Name labels the event for logs.
	Name string
	// Apply mutates the cluster (or controller state captured by closure).
	Apply func(cl *cluster.Cluster)
}

// EventInjector is a Controller that fires scheduled events. Register it
// first in the stack so the tick's controllers see the perturbed state.
type EventInjector struct {
	events []Event
	next   int
	fired  []string
}

// NewEventInjector sorts and wraps a schedule.
func NewEventInjector(events ...Event) *EventInjector {
	sorted := append([]Event(nil), events...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].At < sorted[b].At })
	return &EventInjector{events: sorted}
}

// Name implements Controller.
func (e *EventInjector) Name() string { return "events" }

// Tick fires every event scheduled at or before k that has not fired yet.
func (e *EventInjector) Tick(k int, cl *cluster.Cluster) {
	for e.next < len(e.events) && e.events[e.next].At <= k {
		ev := e.events[e.next]
		if ev.Apply != nil {
			ev.Apply(cl)
		}
		e.fired = append(e.fired, fmt.Sprintf("%d:%s", ev.At, ev.Name))
		e.next++
	}
}

// Fired lists the events applied so far, as "tick:name" strings.
func (e *EventInjector) Fired() []string { return append([]string(nil), e.fired...) }

// injectorState is the injector's serializable cursor. The schedule itself
// is configuration (rebuilt by the scenario); only progress is state.
type injectorState struct {
	Next  int
	Fired []string
}

// Number the state type for gob now, not at the first snapshot; see package state.
func init() { _, _ = state.Marshal(injectorState{}) }

// State implements Snapshotter: the schedule cursor and fired log.
func (e *EventInjector) State() ([]byte, error) {
	return state.Marshal(injectorState{Next: e.next, Fired: append([]string(nil), e.fired...)})
}

// Restore implements Snapshotter. The injector must have been rebuilt with
// the same schedule; a cursor past the schedule end is rejected.
func (e *EventInjector) Restore(data []byte) error {
	var st injectorState
	if err := state.Unmarshal(data, &st); err != nil {
		return err
	}
	if st.Next < 0 || st.Next > len(e.events) {
		return fmt.Errorf("sim: events cursor %d outside schedule of %d", st.Next, len(e.events))
	}
	e.next = st.Next
	e.fired = append([]string(nil), st.Fired...)
	return nil
}

// FailServer returns an event that hard-fails a server: it goes dark
// (power off) and its VMs are stranded until a consolidator re-places them.
// Unlike cluster.PowerOff, a failure does not wait for evacuation — that is
// the point.
func FailServer(at, server int) Event {
	return Event{At: at, Name: fmt.Sprintf("fail-server-%d", server), Apply: func(cl *cluster.Cluster) {
		if server < 0 || server >= cl.NumServers() {
			return
		}
		// Evict the VMs to the least-loaded powered server (emergency
		// restart elsewhere), then cut power. This models the failover an
		// HA layer would perform underneath the power stack.
		for len(cl.ServerVMs(server)) > 0 {
			vmID := cl.ServerVMs(server)[0]
			target := emergencyTarget(cl, server)
			if target < 0 {
				break // nowhere to go; VM stays and will read as lost work
			}
			if err := cl.Move(vmID, target, at); err != nil {
				break
			}
			if rest := cl.ServerVMs(server); len(rest) > 0 && rest[0] == vmID {
				// Progress guard: Move returned success but the head VM is
				// still here (e.g. bookkeeping already inconsistent). Without
				// this the loop would re-read the same head forever.
				break
			}
		}
		// ForceOff handles both outcomes: a clean shutdown when evacuation
		// succeeded, and a hard failure with stranded VMs (lost work) when
		// it did not.
		cl.ForceOff(server)
	}}
}

// emergencyTarget picks the powered-on server (other than the failed one)
// with the lowest measured demand.
func emergencyTarget(cl *cluster.Cluster, exclude int) int {
	best, bestLoad := -1, 0.0
	for i, n := 0, cl.NumServers(); i < n; i++ {
		if i == exclude || !cl.On(i) {
			continue
		}
		if d := cl.DemandSum(i); best < 0 || d < bestLoad {
			best, bestLoad = i, d
		}
	}
	return best
}

// RestoreServer returns an event that brings a failed machine back online.
func RestoreServer(at, server int) Event {
	return Event{At: at, Name: fmt.Sprintf("restore-server-%d", server), Apply: func(cl *cluster.Cluster) {
		if server >= 0 && server < cl.NumServers() {
			cl.PowerOn(server)
		}
	}}
}

// ScaleDemand returns an event that multiplies every workload's remaining
// demand by factor — a fleet-wide surge (or trough) such as a flash crowd.
func ScaleDemand(at int, factor float64) Event {
	return Event{At: at, Name: fmt.Sprintf("demand-x%.2f", factor), Apply: func(cl *cluster.Cluster) {
		if factor <= 0 {
			return
		}
		cl.ScaleDemand(factor)
	}}
}
