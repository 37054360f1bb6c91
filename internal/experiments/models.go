package experiments

import (
	"context"
	"fmt"

	"nopower/internal/controllers/ec"
	"nopower/internal/core"
	"nopower/internal/model"
	"nopower/internal/report"
)

// Models reproduces the content of the paper's Fig. 5 (the design-parameter
// table and the power/performance model curves) as tables: the two system
// calibrations at every P-state, with the derived quantities the evaluation
// leans on — each system's relative power range and idle-power fraction.
func Models(_ context.Context, opts Options) ([]*report.Table, error) {
	var tables []*report.Table
	for _, m := range []*model.Model{model.BladeA(), model.ServerB()} {
		if err := m.Validate(); err != nil {
			return nil, err
		}
		t := &report.Table{
			Title: fmt.Sprintf("Fig. 5 — power/performance model of %s", m.Name),
			Note: fmt.Sprintf("pow = c·r + d per P-state; perf slope a = f/f0. Range %.0f%% of max draw is dynamic; idle is %.0f%% of max.",
				100*(1-m.MinActivePower()/m.MaxPower()), 100*m.PStates[0].D/m.MaxPower()),
			Header: []string{"P-state", "Freq (MHz)", "Idle d (W)", "Slope c (W)", "Max (W)", "Perf slope a"},
		}
		for p, ps := range m.PStates {
			t.AddRow(fmt.Sprintf("P%d", p),
				fmt.Sprintf("%.0f", ps.FreqMHz),
				report.F(ps.D), report.F(ps.C), report.F(ps.Max()),
				fmt.Sprintf("%.3f", m.RelFreq(p)))
		}
		tables = append(tables, t)
	}

	// The base-parameter summary (the right-hand column of Fig. 5), read
	// from the constants and defaults the stack runs with.
	b, sc, d := Base201510(), Scenario{}.normalized(), core.DefaultPeriods()
	p := &report.Table{
		Title:  "Fig. 5 — base design parameters",
		Header: []string{"Parameter", "Base value"},
	}
	for _, row := range [][2]string{
		{"static local budget CAP_LOC", fmt.Sprintf("%.0f%% off server max", 100*b.Loc)},
		{"static enclosure budget CAP_ENC", fmt.Sprintf("%.0f%% off enclosure max", 100*b.Enc)},
		{"static group budget CAP_GRP", fmt.Sprintf("%.0f%% off group max", 100*b.Grp)},
		{"utilization target r_ref floor", fmt.Sprint(ec.DefaultRRef)},
		{"virtualization overhead α_V", fmt.Sprintf("%.0f%% of VM utilization", 100*sc.AlphaV)},
		{"migration overhead α_M", fmt.Sprintf("%.0f%% during migration window", 100*sc.AlphaM)},
		{"workloads / servers", "180 traces on 180 servers (6x20 blades + 60)"},
		{"control interval EC/SM/EM/GM/VMC", fmt.Sprintf("%d / %d / %d / %d / %d ticks", d.EC, d.SM, d.EM, d.GM, d.VMC)},
		{"EC gain λ", fmt.Sprintf("%v (< 1/r_ref bound)", ec.DefaultLambda)},
		{"SM gain β_loc", "auto: half the 2/c_max bound per model"},
	} {
		p.AddRow(row[0], row[1])
	}
	tables = append(tables, p)

	// The host-profile library: every registered calibration a scenario can
	// name (Scenario.Model) or mix into a heterogeneous fleet
	// (Scenario.Profiles). BladeA/ServerB are the paper's Fig. 5 pair above;
	// the rest span the idle-fraction and control-range spectrum.
	lib := &report.Table{
		Title: "Host-profile registry — the fleet library beyond Fig. 5",
		Note: "model.Lookup resolves these names (case-insensitive, plus hyphenated " +
			"aliases); Scenario.Profiles mixes them, e.g. \"arm-microblade:3,serverb:1\". " +
			"Idle fraction and dynamic range are the §5.1 'range of power control' axis.",
		Header: []string{"Profile", "Cores", "P-states", "Freq (MHz)", "Max (W)",
			"Idle (W)", "Idle frac", "Off (W)"},
	}
	for _, name := range model.Names() {
		m, err := model.Lookup(name)
		if err != nil {
			return nil, err
		}
		n := m.NumPStates()
		lib.AddRow(m.Name, fmt.Sprintf("%d", m.Cores), fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f–%.0f", m.PStates[n-1].FreqMHz, m.PStates[0].FreqMHz),
			report.F(m.MaxPower()), report.F(m.PStates[0].D),
			fmt.Sprintf("%.0f%%", 100*m.PStates[0].D/m.MaxPower()),
			report.F(m.OffWatts))
	}
	tables = append(tables, lib)
	return tables, nil
}
