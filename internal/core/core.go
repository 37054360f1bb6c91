// Package core assembles the paper's coordinated multi-level power
// management architecture (Fig. 2) — and its deliberately broken variants —
// from the five individual controllers.
//
// A Spec describes which controllers participate and how they are wired;
// Build turns a Spec plus a cluster into a runnable simulation engine. The
// presets reproduce the configurations of the evaluation:
//
//   - Coordinated():     the paper's design — SM actuates the EC's r_ref, EM/GM
//     compose budgets with the min rule, the VMC uses real
//     utilization, budget constraints, and violation feedback.
//   - Uncoordinated():   five independent products — SM and EC fight over the
//     P-state, EM/GM overwrite budgets last-writer-wins, the
//     VMC consolidates on apparent utilization with no
//     budget awareness (§2.3 "power struggles").
//   - The Fig. 9 ablations: each coordination interface disabled one at a
//     time (ApparentUtil / NoFeedback / NoBudgetLimits), plus the
//     minimal-P-state variants of §5.3.
package core

import (
	"fmt"
	"math/rand"

	"nopower/internal/cluster"
	"nopower/internal/controllers/budget"
	"nopower/internal/controllers/ec"
	"nopower/internal/controllers/fm"
	"nopower/internal/controllers/pm"
	"nopower/internal/controllers/sm"
	"nopower/internal/controllers/vmc"
	"nopower/internal/controllers/vmec"
	"nopower/internal/cooling"
	"nopower/internal/facility"
	"nopower/internal/policy"
	"nopower/internal/rng"
	"nopower/internal/sim"
	"nopower/internal/thermal"
)

// Periods holds the control intervals T_ec/T_sm/T_em/T_grp/T_vmc plus the
// facility manager's T_fm, in ticks.
type Periods struct {
	EC, SM, EM, GM, VMC, FM int
}

// DefaultPeriods returns the paper's base time constants 1/5/25/50/500
// (Fig. 5) plus the facility interval 100 (chiller plants and weather move
// slower than the group manager).
func DefaultPeriods() Periods {
	return Periods{EC: 1, SM: 5, EM: 25, GM: 50, VMC: 500, FM: 100}
}

// Effective returns the periods Build runs with: the paper's defaults for
// the zero value, and the default facility interval when FM is unset.
func (p Periods) Effective() Periods {
	if p == (Periods{}) {
		return DefaultPeriods()
	}
	if p.FM <= 0 {
		p.FM = DefaultPeriods().FM
	}
	return p
}

// Spec selects and wires a controller stack.
type Spec struct {
	// EnableEC/SM/EM/GM/VMC include the respective controller.
	EnableEC, EnableSM, EnableEM, EnableGM, EnableVMC bool
	// VMLevelEC replaces the platform efficiency controller with per-VM
	// utilization loops plus sum-arbitration (§6.1 extension 4). Requires
	// EnableEC.
	VMLevelEC bool
	// Coordinated selects the paper's wiring (r_ref channel, min rule);
	// false reproduces the independent-products deployment.
	Coordinated bool
	// VMCRealUtil/VMCBudgets/VMCFeedback override the VMC coordination
	// interfaces; nil follows Coordinated. Used for the Fig. 9 ablations.
	VMCRealUtil, VMCBudgets, VMCFeedback *bool
	// AllowOff permits the VMC to power emptied machines down (§5.4).
	AllowOff bool
	// Periods are the five control intervals.
	Periods Periods
	// Policy names the EM/GM budget-division policy ("" = proportional).
	Policy string
	// ElectricalCap adds the optional per-server CAP block at this budget
	// in Watts (0 = absent).
	ElectricalCap float64
	// DelayWeight switches the VMC toward an energy-delay objective (§6.1
	// extension 6); 0 keeps the paper's pure-power objective.
	DelayWeight float64
	// EnableCooling adds the §7 future-work zone manager: a CRAC whose
	// setpoint adapts to the thermal headroom, exporting a cooling-derived
	// group budget when Coordinated.
	EnableCooling bool
	// EnableFacility adds the facility co-simulation (DESIGN.md §15): a
	// facility model (UPS/PDU losses, weather-derated chiller, PUE) and the
	// FM controller above the GM deriving the group's IT budget from the
	// utility feed and cooling capacity. Coordinated exports through the
	// min-rule facility register; uncoordinated stomps CAP_GRP directly.
	EnableFacility bool
	// FacilityFeedW overrides the utility feed capacity in Watts; 0 sizes
	// the feed to carry the operator's CAP_GRP on an average day.
	FacilityFeedW float64
	// EnablePM adds the §7 future-work performance manager: SLO telemetry
	// that (when Coordinated) feeds the VMC's packing-headroom buffer.
	EnablePM bool
	// Seed drives any stochastic policy (e.g. random division).
	Seed int64
	// Shards bounds the goroutines used per tick for the plant advance and
	// the per-server controller epochs (sim.Engine.Shards). 0/1 = serial.
	// Pure execution knob: results are bitwise identical at every value.
	Shards int
}

// Coordinated returns the paper's base coordinated stack.
func Coordinated() Spec {
	return Spec{
		EnableEC: true, EnableSM: true, EnableEM: true, EnableGM: true, EnableVMC: true,
		Coordinated: true,
		AllowOff:    true,
		Periods:     DefaultPeriods(),
	}
}

// Uncoordinated returns the five-independent-products deployment of §2.3.
func Uncoordinated() Spec {
	s := Coordinated()
	s.Coordinated = false
	return s
}

// boolPtr helps build ablation specs.
func boolPtr(b bool) *bool { return &b }

// CoordinatedApparentUtil disables only the real-utilization correction
// (Fig. 9 row "Coordinated, appr util").
func CoordinatedApparentUtil() Spec {
	s := Coordinated()
	s.VMCRealUtil = boolPtr(false)
	return s
}

// CoordinatedNoFeedback disables only the violation-feedback buffers
// (Fig. 9 row "Coordinated, no feedback").
func CoordinatedNoFeedback() Spec {
	s := Coordinated()
	s.VMCFeedback = boolPtr(false)
	return s
}

// CoordinatedNoBudgetLimits disables only the budget constraints in the
// packer (Fig. 9 row "Coordinated, no budget limits").
func CoordinatedNoBudgetLimits() Spec {
	s := Coordinated()
	s.VMCBudgets = boolPtr(false)
	return s
}

// NoVMC is the coordinated stack with consolidation off (Fig. 8).
func NoVMC() Spec {
	s := Coordinated()
	s.EnableVMC = false
	return s
}

// VMCOnly is consolidation alone: no local/enclosure/group power control
// (Fig. 8).
func VMCOnly() Spec {
	s := Coordinated()
	s.EnableEC, s.EnableSM, s.EnableEM, s.EnableGM = false, false, false, false
	return s
}

// SpecByName resolves a stack preset by its CLI name. Known names:
// coordinated, uncoordinated, novmc, vmconly, apprutil, nofeedback,
// nobudgets, vmlevel, energydelay, slo, facility, none.
func SpecByName(name string) (Spec, error) {
	switch name {
	case "coordinated":
		return Coordinated(), nil
	case "uncoordinated":
		return Uncoordinated(), nil
	case "novmc":
		return NoVMC(), nil
	case "vmconly":
		return VMCOnly(), nil
	case "apprutil":
		return CoordinatedApparentUtil(), nil
	case "nofeedback":
		return CoordinatedNoFeedback(), nil
	case "nobudgets":
		return CoordinatedNoBudgetLimits(), nil
	case "vmlevel":
		s := Coordinated()
		s.VMLevelEC = true
		return s, nil
	case "energydelay":
		s := Coordinated()
		s.DelayWeight = 300
		return s, nil
	case "slo":
		s := Coordinated()
		s.EnablePM = true
		return s, nil
	case "facility":
		s := Coordinated()
		s.EnableFacility, s.EnableCooling = true, true
		return s, nil
	case "none":
		s := Coordinated()
		s.EnableEC, s.EnableSM, s.EnableEM, s.EnableGM, s.EnableVMC = false, false, false, false, false
		return s, nil
	}
	return Spec{}, fmt.Errorf("core: unknown stack %q", name)
}

// StackNames lists the presets SpecByName accepts.
func StackNames() []string {
	return []string{"coordinated", "uncoordinated", "novmc", "vmconly",
		"apprutil", "nofeedback", "nobudgets", "vmlevel", "energydelay", "slo", "facility", "none"}
}

// Handles exposes the built controllers for telemetry and tests. Fields are
// nil when the Spec disabled the controller.
type Handles struct {
	EC      *ec.Controller
	VMEC    *vmec.Controller
	SM      *sm.Controller
	EM      *budget.Controller
	GM      *budget.Controller
	VMC     *vmc.Controller
	CAP     *sm.ElectricalCapper
	Cooling *cooling.Manager
	FM      *fm.Controller
	PM      *pm.Controller
	// RNG is the stack's deterministic random source (serializable; feeds
	// any stochastic policy). Registered with the engine as aux snapshot
	// state under the name "rng".
	RNG *rng.Source
}

// Build wires the stack onto a cluster and returns a runnable engine.
// Controllers are registered coarsest-first (VMC, GM, EM, SM, EC, CAP) so
// budget recommendations flow down within a tick; in the uncoordinated
// deployment the same order reproduces the EC-overwrites-SM race the paper
// describes, because the EC acts last on the shared P-state knob.
func Build(cl *cluster.Cluster, spec Spec) (*sim.Engine, *Handles, error) {
	spec.Periods = spec.Periods.Effective()

	// A serializable SplitMix64 source instead of math/rand's default: its
	// state is 8 bytes, so a checkpoint captures and restores the exact
	// position of any stochastic policy's stream.
	src := rng.New(spec.Seed)
	pol, err := policy.ByName(spec.Policy, rand.New(src))
	if err != nil {
		return nil, nil, err
	}

	h := &Handles{RNG: src}
	var stack []sim.Controller

	if spec.EnableFacility {
		// The facility manager runs first — the coarsest domain of all: its
		// IT budget lands before the cooling manager and the GM act on it
		// within the same tick.
		mode := fm.Uncoordinated
		if spec.Coordinated {
			mode = fm.Coordinated
		}
		fmodel := facility.DefaultModel(cl.MaxGroupPower(), spec.Seed)
		h.FM, err = fm.New(fmodel, mode, spec.Periods.FM)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		h.FM.FeedW = spec.FacilityFeedW
		stack = append(stack, h.FM)
	}
	if spec.EnableCooling {
		// The zone manager runs first (coarsest domain): its budget export
		// lands before the GM divides the group budget this tick.
		h.Cooling, err = cooling.NewManager(nil, thermal.Default(), spec.Periods.GM, spec.Coordinated)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.Cooling)
	}
	if spec.EnableVMC {
		// The coordinated VMC leaves control headroom and packs on the mean
		// demand estimate plus a variability margin; the naive one packs the
		// raw mean to the hilt — part of what makes it dangerous (§2.3).
		packFraction, headroom := 1.0, 0.0
		if spec.Coordinated {
			packFraction, headroom = 0.85, 0.5
		}
		cfg := vmc.Config{
			Period:       spec.Periods.VMC,
			UseRealUtil:  orDefault(spec.VMCRealUtil, spec.Coordinated),
			UseBudgets:   orDefault(spec.VMCBudgets, spec.Coordinated),
			UseFeedback:  orDefault(spec.VMCFeedback, spec.Coordinated),
			AllowOff:     spec.AllowOff,
			PackFraction: packFraction,
			AssumeEC:     spec.EnableEC && spec.Coordinated,
			DelayWeight:  spec.DelayWeight,
			Headroom:     headroom,
		}
		h.VMC, err = vmc.New(cl, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.VMC)
	}
	budgetMode := budget.Uncoordinated
	if spec.Coordinated {
		budgetMode = budget.Coordinated
	}
	if spec.EnableGM {
		h.GM, err = budget.New(budget.GM, budgetMode, pol, spec.Periods.GM)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.GM)
	}
	if spec.EnableEM {
		h.EM, err = budget.New(budget.EM, budgetMode, pol, spec.Periods.EM)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.EM)
	}

	var ecCtrl sim.Controller
	var ecSetter sm.RRefSetter
	if spec.EnableEC {
		if spec.VMLevelEC {
			h.VMEC, err = vmec.New(cl, ec.DefaultLambda, ec.DefaultRRef, spec.Periods.EC)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %w", err)
			}
			ecCtrl, ecSetter = h.VMEC, h.VMEC
		} else {
			h.EC, err = ec.New(cl, ec.DefaultLambda, ec.DefaultRRef, spec.Periods.EC)
			if err != nil {
				return nil, nil, fmt.Errorf("core: %w", err)
			}
			ecCtrl, ecSetter = h.EC, h.EC
		}
	}
	if spec.EnableSM {
		mode := sm.Uncoordinated
		var ecIface sm.RRefSetter
		if spec.Coordinated {
			if ecSetter == nil {
				return nil, nil, fmt.Errorf("core: coordinated SM requires the EC")
			}
			mode = sm.Coordinated
			ecIface = ecSetter
		}
		// β = 0 asks for sm.New's default: half each model's Appendix-A
		// bound.
		h.SM, err = sm.New(cl, ecIface, mode, 0, spec.Periods.SM)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
	}
	// Coordinated: SM runs before the EC (it only moves r_ref; the EC then
	// actuates). Uncoordinated: the EC runs first and the SM clamps after it
	// — each writer alternately wins the shared P-state knob, so the cap
	// holds for one tick per SM epoch and is overwritten for the rest, the
	// interleaving the paper's §2.3 first example describes.
	if spec.Coordinated {
		if h.SM != nil {
			stack = append(stack, h.SM)
		}
		if ecCtrl != nil {
			stack = append(stack, ecCtrl)
		}
	} else {
		if ecCtrl != nil {
			stack = append(stack, ecCtrl)
		}
		if h.SM != nil {
			stack = append(stack, h.SM)
		}
	}
	if spec.EnablePM {
		h.PM, err = pm.New(pm.DefaultSLO, spec.Periods.SM)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.PM)
	}
	if spec.ElectricalCap > 0 {
		h.CAP, err = sm.NewElectricalCapper(spec.ElectricalCap)
		if err != nil {
			return nil, nil, fmt.Errorf("core: %w", err)
		}
		stack = append(stack, h.CAP)
	}

	// Wire the violation telemetry into the VMC only in the coordinated
	// design (Fig. 4's "expose power budget violations to VMC").
	if h.VMC != nil && spec.Coordinated {
		var smSrc, emSrc, gmSrc vmc.ViolationSource
		if h.SM != nil {
			smSrc = h.SM
		}
		if h.EM != nil {
			emSrc = h.EM
		}
		if h.GM != nil {
			gmSrc = h.GM
		}
		h.VMC.AttachViolationSources(smSrc, emSrc, gmSrc)
		if h.PM != nil {
			h.VMC.AttachPerfSource(h.PM)
		}
	}

	eng := sim.New(cl, stack...)
	eng.Shards = spec.Shards
	eng.RegisterAux("rng", src)
	return eng, h, nil
}

func orDefault(v *bool, def bool) bool {
	if v != nil {
		return *v
	}
	return def
}
