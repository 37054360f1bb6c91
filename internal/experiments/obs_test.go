package experiments

import (
	"context"
	"testing"

	"nopower/internal/core"
	"nopower/internal/obs"
	"nopower/internal/tracegen"
)

// fig7Scenario is the stressed Fig. 7 configuration (BladeA, 60HH) at a
// reduced tick count that still spans one VMC epoch.
func fig7Scenario() Scenario {
	return Scenario{Model: "BladeA", Mix: tracegen.Mix60HH, Budgets: Base201510(),
		Ticks: 800, Seed: 42}
}

// TestUncoordinatedStackConflictsCoordinatedClean is the acceptance oracle
// for the paper's headline claim, observed rather than inferred: running
// the uncoordinated fig7 variant produces actuator conflicts (the EC and
// the commercial-style SM capper both writing the P-state knob in one
// tick), while the coordinated stack — where the SM actuates r_ref instead
// — produces exactly zero.
func TestUncoordinatedStackConflictsCoordinatedClean(t *testing.T) {
	sc := fig7Scenario().normalized()
	run := func(spec core.Spec) *obs.ConflictDetector {
		t.Helper()
		det := obs.NewConflictDetector()
		if _, _, err := execute(context.Background(), sc, spec, ChaosCase{}, 0,
			Observers{Tracer: det}, sc.Ticks); err != nil {
			t.Fatal(err)
		}
		return det
	}

	unco := run(core.Uncoordinated())
	if unco.Count() < 1 {
		t.Errorf("uncoordinated stack: %d conflicts, want >= 1 (the power struggle)", unco.Count())
	}
	for _, c := range unco.Conflicts() {
		if c.Actuator != obs.ActPState {
			t.Errorf("unexpected conflict actuator %q: %+v", c.Actuator, c)
			break
		}
	}

	coord := run(core.Coordinated())
	if coord.Count() != 0 {
		t.Errorf("coordinated stack: %d conflicts, want 0; first: %+v",
			coord.Count(), coord.Conflicts()[0])
	}
}

// TestRunObservedAttachments checks the run path wires both observers into
// one run: the ring recorder sees events, the registry sees ticks, and the
// result matches the plain RunVsBaseline path.
func TestRunObservedAttachments(t *testing.T) {
	sc := fig7Scenario().normalized()
	sc.Ticks = 300
	rec := obs.NewRingRecorder(0)
	reg := obs.NewRegistry()
	_, res, err := execute(context.Background(), sc, core.Coordinated(), ChaosCase{}, 0,
		Observers{Tracer: rec, Metrics: reg}, sc.Ticks)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Valid(); err != nil {
		t.Error(err)
	}
	if rec.Len() == 0 {
		t.Error("no actuation events recorded")
	}
	if got := reg.Counter("np_sim_ticks_total").Value(); got != 300 {
		t.Errorf("np_sim_ticks_total = %d, want 300", got)
	}
	if got := reg.Counter(`np_controller_ticks_total{controller="EC"}`).Value(); got != 300 {
		t.Errorf("EC ticks = %d, want 300", got)
	}

	// Determinism: the same scenario without observers finalizes identically
	// — observability must not perturb the simulation.
	plain, err := RunVsBaseline(context.Background(), sc, core.Coordinated(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if plain != res {
		t.Errorf("observed run diverged from plain run:\n  plain    %+v\n  observed %+v", plain, res)
	}
}
