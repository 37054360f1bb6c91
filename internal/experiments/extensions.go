package experiments

import (
	"context"
	"fmt"

	"nopower/internal/cluster"
	"nopower/internal/core"
	"nopower/internal/model"
	"nopower/internal/platform"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/sim"
	"nopower/internal/tracegen"
)

// extensionStudies renders E13's tables after its first (extensionsSweep,
// which runs in its batch's sweep): the heterogeneous fleet (§6.1
// extension 5), the MIMO component/platform coordination (1, 3) and the
// rack of MIMO platforms. They run one after another: the rack study fans
// out over a pool of opts.Parallelism workers, and a pool around the
// studies would put up to twice that many simulations in flight.
func extensionStudies(ctx context.Context, opts Options) ([]*report.Table, error) {
	opts = opts.normalized()
	hetero, err := extensionHeterogeneous(ctx, opts)
	if err != nil {
		return nil, err
	}
	mimo, err := extensionMIMO()
	if err != nil {
		return nil, err
	}
	rack, err := extensionRack(ctx, opts)
	if err != nil {
		return nil, err
	}
	return []*report.Table{hetero, mimo, rack}, nil
}

// extensionRack nests the MIMO platform cappers under a rack manager — the
// §6.1(1) component↔platform↔rack analogue of GM→EM→SM — and sweeps the
// rack budget headroom.
func extensionRack(ctx context.Context, opts Options) (*report.Table, error) {
	t := &report.Table{
		Title:  "§6.1 extension 1 — rack of MIMO platforms (8 machines, mixed classes, nested budgets)",
		Note:   "Rack manager re-provisions platform budgets by proportional share + min rule; each platform co-selects CPU/mem/disk states.",
		Header: []string{"Rack headroom", "Avg power (W)", "Served (%)", "Rack viol (%)", "Local viol (%)"},
	}
	ticks := opts.Ticks
	if ticks > 1500 {
		ticks = 1500 // the rack simulation is per-tick exhaustive-optimize
	}
	headrooms := []float64{0.10, 0.25, 0.40}
	rows, err := runner.Map(ctx, opts.Parallelism, headrooms, func(ctx context.Context, offRack float64) ([]string, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := platform.NewRack(8, ticks, opts.Seed, 1.8, offRack, 0.05)
		if err != nil {
			return nil, err
		}
		res, err := r.Run(ticks, 25)
		if err != nil {
			return nil, err
		}
		return []string{fmt.Sprintf("%.0f%%", offRack*100), report.Watts(res.AvgPower),
			report.Pct(res.AvgServed), report.Pct(res.RackViolations), report.Pct(res.LocalViolations)}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t, nil
}

// extensionsSweep is E13's first table: the base coordinated stack against
// the VM-level EC wiring, the energy-delay objective, the added electrical
// capper and the performance manager on the standard BladeA/180 scenario.
// Its base row is fig7's BladeA/180 coordinated run, so a batch holding
// both runs it once.
var extensionsSweep = tableSweep{
	name: "extensions",
	runs: func(opts Options) []sweepRun {
		vmLevel := core.Coordinated()
		vmLevel.VMLevelEC = true
		energyDelay := core.Coordinated()
		energyDelay.DelayWeight = 300
		capped := core.Coordinated()
		capped.ElectricalCap = 0.95 * model.BladeA().MaxPower()
		slo := core.Coordinated()
		slo.EnablePM = true
		return perStack(baseScenario("BladeA", tracegen.Mix180, opts), []stack{
			{"Coordinated (base)", core.Coordinated()},
			{"VM-level EC", vmLevel},
			{"Energy-delay objective", energyDelay},
			{"Base + electrical CAP", capped},
			{"Perf-SLO manager (§7)", slo},
		})
	},
	render: perRun(report.Table{
		Title:  "§6.1 extensions — alternative wirings on BladeA/180 (coordinated base, %)",
		Note:   "VM-level EC = per-VM loops + sum arbitration (ext. 4); energy-delay = packing objective with a delay term (ext. 6); +CAP = electrical capper (ext. 2); Perf-SLO = §7 performance manager feeding the packing-headroom buffer.",
		Header: []string{"Variant"},
	}, pwrSave, perfLoss, violSM, violGM),
}

// extensionHeterogeneous runs the coordinated stack over a half-BladeA,
// half-ServerB fleet (§6.1 extension 5): "easily addressed by including a
// range of different models in the controllers".
func extensionHeterogeneous(ctx context.Context, opts Options) (*report.Table, error) {
	sc := baseScenario("BladeA", tracegen.Mix180, opts)
	// The mixed cluster: blades stay BladeA, standalone become ServerB. The
	// managed run and its baseline each get one, over the group's one set.
	// No Scenario field says "standalone servers are ServerB", so this row
	// builds its engines here instead of through execute, the package's run
	// path, and runs them serial and unprofiled.
	mixed := func() (*cluster.Cluster, error) {
		cl, err := sc.buildCluster(ctx)
		if err != nil {
			return nil, err
		}
		for _, sid := range cl.StandaloneServers() {
			if err := cl.SetModel(sid, model.ServerB()); err != nil {
				return nil, err
			}
		}
		return cl, nil
	}
	bcl, err := mixed()
	if err != nil {
		return nil, err
	}
	bcol, err := sim.New(bcl).RunContext(ctx, opts.Ticks)
	if err != nil {
		return nil, err
	}
	baseline := bcol.Finalize(0).AvgPower

	cl, err := mixed()
	if err != nil {
		return nil, err
	}
	eng, _, err := core.Build(cl, core.Coordinated())
	if err != nil {
		return nil, err
	}
	col, err := eng.RunContext(ctx, opts.Ticks)
	if err != nil {
		return nil, err
	}
	res := col.Finalize(baseline)
	if err := res.Valid(); err != nil {
		return nil, err
	}

	bladesOn, serversOn := 0, 0
	for i, n := 0, cl.NumServers(); i < n; i++ {
		if !cl.On(i) {
			continue
		}
		if cl.ServerModel(i).Name == "BladeA" {
			bladesOn++
		} else {
			serversOn++
		}
	}
	t := &report.Table{
		Title:  "§6.1 extension 5 — heterogeneous fleet: 120 BladeA blades + 60 ServerB standalone, 180 mix",
		Note:   "One coordinated stack over mixed hardware; per-server models flow through every controller.",
		Header: []string{"Pwr-save", "Perf-loss", "Viol(SM)", "BladeA on", "ServerB on"},
	}
	t.AddRow(report.Pct(res.PowerSavings), report.Pct(res.PerfLoss), report.Pct(res.ViolSM),
		fmt.Sprintf("%d/120", bladesOn), fmt.Sprintf("%d/60", serversOn))
	return t, nil
}

// extensionMIMO sweeps the platform budget of the Standard three-component
// platform and reports the MIMO controller's served fraction and chosen
// state vector — the component/platform coordination of §6.1(1,3).
func extensionMIMO() (*report.Table, error) {
	p := platform.Standard()
	d := platform.Demand{0.6, 0.4, 0.3}
	t := &report.Table{
		Title:  "§6.1 extensions 1+3 — MIMO component/platform capping (CPU+mem+disk, demand 0.6/0.4/0.3)",
		Note:   "Joint state selection under a platform budget; the bottleneck law couples the knobs.",
		Header: []string{"Budget (W)", "Served (%)", "Power (W)", "States (cpu/mem/disk)"},
	}
	for _, frac := range []float64{1.0, 0.85, 0.7, 0.55, 0.4} {
		budget := frac * p.MaxPower()
		states, served, power, ok, err := p.Optimize(d, budget)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("P%d/P%d/P%d", states[0], states[1], states[2])
		if !ok {
			label += " (budget infeasible: max throttle)"
		}
		t.AddRow(report.Watts(budget), report.Pct(served), report.Watts(power), label)
	}
	return t, nil
}
