package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"

	"nopower/internal/core"
	"nopower/internal/metrics"
	"nopower/internal/model"
	"nopower/internal/policy"
	"nopower/internal/sim"
	"nopower/internal/trace"
	"nopower/internal/tracegen"
)

// RunSpec is the one description of a single simulation run: which scenario
// to simulate under which controller stack, with which faults. npsim parses
// its flags into it, npserved accepts it as a job, and its canonical
// encoding is both the dedup key (Key) and the checkpoint labels (Labels).
// The zero value of every field selects npsim's default, so {"mix":"60L"} is
// a valid job.
type RunSpec struct {
	// Model names the hardware profile (model.Names(); "" = BladeA). Alias
	// spellings canonicalize to the registry name.
	Model string `json:"model,omitempty"`
	// Profiles, when set, runs a heterogeneous fleet instead of Model: a
	// model.Distribution spec like "bladea:3,rack-2u-32:1" expanded
	// deterministically over the fleet. Mutually exclusive with Model.
	Profiles string `json:"profiles,omitempty"`
	// Mix names the workload mix (180, 60L, 60M, 60H, 60HH, 60HHH, aiburst,
	// hetero, scaleN, ...).
	Mix string `json:"mix,omitempty"`
	// Stack names the controller stack preset (core.StackNames).
	Stack string `json:"stack,omitempty"`
	// Ticks is the simulation length (0 = 3000).
	Ticks int `json:"ticks,omitempty"`
	// Seed drives trace generation and any stochastic policy (0 = 42).
	Seed int64 `json:"seed,omitempty"`
	// CapGrp/CapEnc/CapLoc are the budget headrooms off max power, each in
	// [0, 1); all three zero selects the paper's base 20-15-10.
	CapGrp float64 `json:"cap_grp,omitempty"`
	CapEnc float64 `json:"cap_enc,omitempty"`
	CapLoc float64 `json:"cap_loc,omitempty"`
	// Policy names the EM/GM budget-division policy ("" = proportional).
	Policy string `json:"policy,omitempty"`
	// NoOff forbids powering idle machines down.
	NoOff bool `json:"no_off,omitempty"`
	// MigrationTicks is the migration penalty window (0 = 10).
	MigrationTicks int `json:"migration_ticks,omitempty"`
	// AlphaV and AlphaM are the virtualization and migration overheads, each
	// in [0, 1] (0 = 0.10 each).
	AlphaV float64 `json:"alpha_v,omitempty"`
	AlphaM float64 `json:"alpha_m,omitempty"`
	// Shards bounds the per-tick goroutines inside the run. Results are
	// bitwise identical at every value, so Key and Labels leave it out.
	Shards int `json:"shards,omitempty"`
	// Facility adds the facility co-simulation (UPS/PDU losses, cooling,
	// PUE) with the FM above the GM, and the cooling zone manager.
	Facility bool `json:"facility,omitempty"`
	// FacilityFeedW overrides the utility feed capacity in W (0 = sized to
	// carry the operator budget on an average day).
	FacilityFeedW float64 `json:"facility_feed_w,omitempty"`
	// Chaos names a fault-injection case (ChaosCaseNames; "" = none).
	Chaos string `json:"chaos,omitempty"`
	// FaultPolicy names the reaction to a controller panic: fail (the
	// default), degrade or propagate.
	FaultPolicy string `json:"fault_policy,omitempty"`
	// Traces, when set, replaces the generated Mix (npsim's -traces). It
	// never travels on the wire; Labels covers it by a digest of its values.
	Traces *trace.Set `json:"-"`
}

// Normalized fills npsim's defaults and canonicalizes spellings, returning
// the form Key, Labels and the run are all derived from: two specs that
// differ only in spelled-out defaults or aliases describe one run. Invalid
// names pass through untouched for Validate to reject.
func (s RunSpec) Normalized() RunSpec {
	if s.Model == "" && s.Profiles == "" {
		s.Model = "BladeA"
	}
	if m, err := model.Lookup(s.Model); err == nil {
		s.Model = m.Name
	}
	if s.Profiles != "" {
		if d, err := model.ParseDistribution(s.Profiles); err == nil {
			s.Profiles = d.String()
		}
	}
	if s.Mix == "" {
		s.Mix = string(tracegen.Mix180)
	}
	if s.Stack == "" {
		s.Stack = "coordinated"
	}
	// The scenario's own defaults, so the two cannot drift apart.
	d := Scenario{Ticks: s.Ticks, Seed: s.Seed, MigrationTicks: s.MigrationTicks, AlphaV: s.AlphaV, AlphaM: s.AlphaM}.normalized()
	s.Ticks, s.Seed, s.MigrationTicks, s.AlphaV, s.AlphaM = d.Ticks, d.Seed, d.MigrationTicks, d.AlphaV, d.AlphaM
	if s.CapGrp == 0 && s.CapEnc == 0 && s.CapLoc == 0 {
		b := Base201510()
		s.CapGrp, s.CapEnc, s.CapLoc = b.Grp, b.Enc, b.Loc
	}
	if s.Policy == "" {
		s.Policy = "proportional"
	}
	if s.Chaos == "fault-free" {
		s.Chaos = ""
	}
	if s.FaultPolicy == "fail" {
		s.FaultPolicy = ""
	}
	// -0 reads as the default it equals; make it spell the same too.
	for _, f := range []*float64{&s.CapGrp, &s.CapEnc, &s.CapLoc, &s.FacilityFeedW} {
		if *f == 0 {
			*f = 0
		}
	}
	return s
}

// Validate rejects specs that could never run or would run meaningless
// numbers, so npserved answers 400 at submit instead of parking a doomed
// job in the queue, and npsim exits 2 before simulating anything.
func (s RunSpec) Validate() error {
	s = s.Normalized()
	budget := func(v float64) bool { return v >= 0 && v < 1 }
	overhead := func(v float64) bool { return v >= 0 && v <= 1 }
	count := func(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }
	for _, f := range []struct {
		name string
		v    float64
		ok   func(float64) bool // false for NaN: every comparison fails
	}{
		{"cap_grp", s.CapGrp, budget}, {"cap_enc", s.CapEnc, budget}, {"cap_loc", s.CapLoc, budget},
		{"alpha_v", s.AlphaV, overhead}, {"alpha_m", s.AlphaM, overhead},
		{"facility_feed_w", s.FacilityFeedW, count}, {"ticks", float64(s.Ticks), count},
		{"migration_ticks", float64(s.MigrationTicks), count}, {"shards", float64(s.Shards), count},
	} {
		if !f.ok(f.v) {
			return fmt.Errorf("experiments: %s %v out of range (budgets lie in [0, 1), overheads in [0, 1], "+
				"the rest are finite and non-negative)", f.name, f.v)
		}
	}
	if s.Profiles != "" {
		if s.Model != "" {
			return fmt.Errorf("experiments: model %q and profiles %q are mutually exclusive", s.Model, s.Profiles)
		}
		if _, err := model.ParseDistribution(s.Profiles); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	} else if _, err := model.Lookup(s.Model); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if _, err := core.SpecByName(s.Stack); err != nil {
		return fmt.Errorf("experiments: %w (stacks: %s)", err, strings.Join(core.StackNames(), ", "))
	}
	if !slices.Contains(policy.Names(), s.Policy) {
		return fmt.Errorf("experiments: unknown policy %q (policies: %s)", s.Policy, strings.Join(policy.Names(), ", "))
	}
	if _, err := s.ChaosCase(); err != nil {
		return err
	}
	if _, err := s.Fault(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if !tracegen.Mix(s.Mix).Known() {
		return fmt.Errorf("experiments: unknown mix %q", s.Mix)
	}
	return nil
}

// Key returns the canonical spec hash that keys npserved's shared result
// cache: the SHA-256 of the canonical JSON, the normalized spec without its
// shard count. Two tenants submitting the same simulation — however
// differently spelled — share one computation and one cached result.
// Traces is not part of the JSON; the wire cannot set it.
func (s RunSpec) Key() string {
	c := s.Normalized()
	c.Shards = 0
	data, err := json.Marshal(c)
	if err != nil {
		// Only a non-finite float fails to marshal, and Validate rejects it.
		panic("experiments: marshal canonical spec: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// Labels renders the run's identity for checkpoint metadata: every field of
// the canonical JSON under its JSON name, defaults included, plus a
// "traces" digest of the trace values when Traces is set.
func (s RunSpec) Labels() map[string]string {
	v := reflect.ValueOf(s.Normalized())
	labels := make(map[string]string, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		if name != "-" && name != "shards" {
			labels[name] = fmt.Sprint(v.Field(i).Interface())
		}
	}
	if s.Traces != nil {
		labels["traces"] = traceDigest(s.Traces)
	}
	return labels
}

// traceDigest hashes a trace set's values: every trace's length and demand
// samples, bit for bit.
func traceDigest(set *trace.Set) string {
	h := sha256.New()
	for _, tr := range set.Traces {
		// Writes to a hash never fail.
		_ = binary.Write(h, binary.LittleEndian, int64(len(tr.Demand)))
		_ = binary.Write(h, binary.LittleEndian, tr.Demand)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Scenario maps the spec onto the scenario it simulates.
func (s RunSpec) Scenario() Scenario {
	s = s.Normalized()
	return Scenario{
		Model:          s.Model,
		Profiles:       s.Profiles,
		Mix:            tracegen.Mix(s.Mix),
		Budgets:        Budgets{Grp: s.CapGrp, Enc: s.CapEnc, Loc: s.CapLoc},
		Ticks:          s.Ticks,
		Seed:           s.Seed,
		MigrationTicks: s.MigrationTicks,
		AlphaV:         s.AlphaV,
		AlphaM:         s.AlphaM,
		Traces:         s.Traces,
		Shards:         s.Shards,
	}
}

// CoreSpec maps the spec onto the controller stack it runs.
func (s RunSpec) CoreSpec() (core.Spec, error) {
	s = s.Normalized()
	spec, err := core.SpecByName(s.Stack)
	if err != nil {
		return core.Spec{}, err
	}
	spec.Policy = s.Policy
	spec.AllowOff = spec.AllowOff && !s.NoOff
	spec.Shards = s.Shards
	if s.Facility {
		spec.EnableFacility, spec.EnableCooling = true, true
	}
	if s.FacilityFeedW != 0 {
		spec.FacilityFeedW = s.FacilityFeedW
	}
	return spec, nil
}

// ChaosCase resolves the spec's fault-injection case; no case is the zero
// (fault-free) one.
func (s RunSpec) ChaosCase() (ChaosCase, error) {
	if s.Chaos == "" {
		return ChaosCase{}, nil
	}
	return ChaosCaseByName(s.Chaos)
}

// Fault resolves the spec's FaultPolicy name ("" = fail).
func (s RunSpec) Fault() (sim.FaultPolicy, error) {
	if s.FaultPolicy == "" {
		return sim.FaultFail, nil
	}
	return sim.FaultPolicyByName(s.FaultPolicy)
}

// Run executes the spec against baseline — the no-management average power
// of its scenario (BaselinePower of s.Scenario()) — with o attached, under
// the spec's fault policy (which replaces o.FaultPolicy). It returns the
// finalized result and the number of controllers the degrade policy
// disabled. Callers validate the spec first.
func (s RunSpec) Run(ctx context.Context, baseline float64, o Observers) (res metrics.Result, disabled int, err error) {
	spec, err := s.CoreSpec()
	cse, cerr := s.ChaosCase()
	policy, ferr := s.Fault()
	if err = errors.Join(err, cerr, ferr); err != nil {
		return metrics.Result{}, 0, err
	}
	o.FaultPolicy = policy
	sc := s.Scenario().normalized()
	eng, res, err := execute(ctx, sc, spec, cse, baseline, o, sc.Ticks)
	if err != nil {
		return metrics.Result{}, 0, err
	}
	return res, len(eng.Disabled()), nil
}
