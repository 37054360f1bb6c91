package experiments

import (
	"context"
	"fmt"

	"nopower/internal/cooling"
	"nopower/internal/core"
	"nopower/internal/report"
	"nopower/internal/runner"
	"nopower/internal/tracegen"
)

// CoolingRow is one CRAC-policy outcome over the coordinated IT stack.
type CoolingRow struct {
	Policy     string
	ITPowerW   float64
	CoolPowerW float64
	PUE        float64
	MaxTempC   float64
	Trips      int
}

// CoolingData runs the §7 future-work cooling coordination study: the same
// coordinated IT stack (BladeA/180) under three CRAC policies — a fixed cold
// setpoint (the overcooling status quo), an adaptive setpoint without budget
// coordination, and the fully coordinated zone manager that also exports a
// cooling-derived group budget.
func CoolingData(ctx context.Context, opts Options) ([]CoolingRow, error) {
	opts = opts.normalized()
	sc := Scenario{Model: "BladeA", Mix: tracegen.Mix180, Budgets: Base201510(),
		Ticks: opts.Ticks, Seed: opts.Seed}.normalized()
	type cracPolicy struct {
		name        string
		adaptive    bool
		coordinated bool
		rth         float64 // 0 = the default thermal resistance
	}
	policies := []cracPolicy{
		{"fixed cold (15 °C)", false, false, 0},
		{"adaptive setpoint", true, false, 0},
		{"adaptive + budget export", true, true, 0},
		// Degraded airflow (a failing fan wall, +55 % thermal resistance):
		// cooling capacity now binds. Without the budget export the zone
		// overheats; with it the GM throttles the IT load under the
		// cooling-derived cap and the zone stays safe.
		{"degraded airflow, no export", true, false, 0.70},
		{"degraded airflow + export", true, true, 0.70},
	}
	return runner.Map(ctx, opts.Parallelism, policies, func(ctx context.Context, policy cracPolicy) (CoolingRow, error) {
		spec := core.Coordinated() // the IT stack stays coordinated throughout
		spec.EnableCooling = true
		var zone *cooling.Manager
		setPolicy := func(h *core.Handles) {
			zone = h.Cooling
			zone.Coordinated = policy.coordinated
			if !policy.adaptive {
				zone.CRAC.MaxSupplyC = zone.CRAC.MinSupplyC + 0.001
			}
			if policy.rth > 0 {
				zone.Thermal.RthCPerW = policy.rth
			}
		}
		_, res, err := execute(ctx, sc, spec, ChaosCase{}, nil, Observers{OnBuild: setPolicy}, sc.Ticks)
		if err != nil {
			return CoolingRow{}, fmt.Errorf("cooling %q: %w", policy.name, err)
		}
		coolW, maxTemp, trips := zone.Stats()
		row := CoolingRow{
			Policy:     policy.name,
			ITPowerW:   res.AvgPower,
			CoolPowerW: coolW,
			MaxTempC:   maxTemp,
			Trips:      trips,
		}
		if res.AvgPower > 0 {
			row.PUE = (res.AvgPower + coolW) / res.AvgPower
		}
		return row, nil
	})
}

// Cooling renders the §7 cooling-coordination study.
func Cooling(ctx context.Context, opts Options) ([]*report.Table, error) {
	rows, err := CoolingData(ctx, opts)
	if err != nil {
		return nil, err
	}
	t := &report.Table{
		Title:  "§7 future work — cooling-domain coordination (BladeA/180, coordinated IT stack)",
		Note:   "CRAC COP improves with warmer supply air; the zone manager trades setpoint against thermal headroom and (coordinated) exports a cooling-derived group budget.",
		Header: []string{"CRAC policy", "IT power (W)", "Cooling (W)", "PUE*", "Max temp (°C)", "Thermal trips"},
	}
	for _, r := range rows {
		t.AddRow(r.Policy, report.Watts(r.ITPowerW), report.Watts(r.CoolPowerW),
			fmt.Sprintf("%.3f", r.PUE), report.F(r.MaxTempC), fmt.Sprintf("%d", r.Trips))
	}
	t.Note += " *PUE counts only CRAC overhead (no distribution losses)."
	return []*report.Table{t}, nil
}
