// Package platform models a server as multiple power-manageable components
// — CPU, memory, disk — each with its own service states, and provides the
// multi-input-multi-output (MIMO) controller the paper sketches for
// component/platform coordination (§6.1 extensions 1 and 3: "multiple
// actuators at a given level (e.g., CPU, memory, and disk power controllers
// interacting at the platform level): this may be addressed with the use of
// multi-input-multi-output controllers").
//
// The performance model is the bottleneck law: a workload exercises every
// component with a per-component intensity, and the delivered fraction of
// its demand is limited by the most constrained component. The MIMO
// controller therefore has to co-select states — slowing the CPU below the
// disk's effective ceiling wastes nothing, slowing it further loses
// performance — which is exactly the cross-actuator interaction single-knob
// controllers cannot see.
package platform

import (
	"fmt"
	"math"
)

// State is one service level of a component: a relative capacity and a
// linear power model in component utilization (pow = C·u + D).
type State struct {
	// Capacity is the component's throughput at this state, 1.0 = full.
	Capacity float64
	// C is Watts per unit utilization.
	C float64
	// D is the idle draw at this state, Watts.
	D float64
}

// Power returns the draw at component utilization u (clamped to [0,1]).
func (s State) Power(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return float64(s.C*u) + s.D
}

// Component is one power-manageable platform part.
type Component struct {
	// Name labels the component ("cpu", "mem", "disk").
	Name string
	// States are the service levels, fastest first.
	States []State
}

// Validate checks ordering and positivity.
func (c Component) Validate() error {
	if len(c.States) == 0 {
		return fmt.Errorf("platform: component %s has no states", c.Name)
	}
	for i, s := range c.States {
		if s.Capacity <= 0 || s.C < 0 || s.D < 0 {
			return fmt.Errorf("platform: component %s state %d invalid: %+v", c.Name, i, s)
		}
		if i > 0 {
			prev := c.States[i-1]
			if s.Capacity >= prev.Capacity {
				return fmt.Errorf("platform: component %s state %d capacity not decreasing", c.Name, i)
			}
			if s.Power(1) > prev.Power(1) || s.D > prev.D {
				return fmt.Errorf("platform: component %s state %d power not decreasing", c.Name, i)
			}
		}
	}
	return nil
}

// Platform is a multi-component server.
type Platform struct {
	Components []Component
	// state holds the current state index per component.
	state []int
}

// New builds a platform at full speed.
func New(components ...Component) (*Platform, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("platform: no components")
	}
	for _, c := range components {
		if err := c.Validate(); err != nil {
			return nil, err
		}
	}
	return &Platform{Components: components, state: make([]int, len(components))}, nil
}

// Standard returns the reference three-component calibration: a 5-state CPU
// (the dominant, widest-range consumer), a 3-state memory subsystem
// (DVFS-able channels), and a 2-state disk (active / spun-down-ish).
func Standard() *Platform {
	p, err := New(
		Component{Name: "cpu", States: []State{
			{Capacity: 1.00, C: 40, D: 30},
			{Capacity: 0.83, C: 33, D: 26},
			{Capacity: 0.70, C: 27, D: 23},
			{Capacity: 0.60, C: 22, D: 21},
			{Capacity: 0.53, C: 18, D: 19},
		}},
		Component{Name: "mem", States: []State{
			{Capacity: 1.00, C: 12, D: 18},
			{Capacity: 0.75, C: 9, D: 15},
			{Capacity: 0.50, C: 6, D: 12},
		}},
		Component{Name: "disk", States: []State{
			{Capacity: 1.00, C: 6, D: 10},
			{Capacity: 0.40, C: 3, D: 4},
		}},
	)
	if err != nil {
		// The built-in calibration is validated by tests; this is unreachable.
		panic(err)
	}
	return p
}

// States returns a copy of the current per-component state indices.
func (p *Platform) States() []int { return append([]int(nil), p.state...) }

// SetStates installs a state vector (validated).
func (p *Platform) SetStates(states []int) error {
	if len(states) != len(p.Components) {
		return fmt.Errorf("platform: %d states for %d components", len(states), len(p.Components))
	}
	for i, s := range states {
		if s < 0 || s >= len(p.Components[i].States) {
			return fmt.Errorf("platform: component %d state %d out of range", i, s)
		}
	}
	copy(p.state, states)
	return nil
}

// Demand is a per-component demand vector: the fraction of each full-speed
// component the workload would consume if nothing throttled.
type Demand []float64

// Evaluate computes the outcome of serving a demand at a given state vector:
// the served fraction (bottleneck law — the slowest relative component
// limits the whole workload) and the resulting total power.
func (p *Platform) Evaluate(states []int, d Demand) (served, power float64, err error) {
	if len(d) != len(p.Components) {
		return 0, 0, fmt.Errorf("platform: demand has %d entries for %d components", len(d), len(p.Components))
	}
	served = 1.0
	for i, c := range p.Components {
		if states[i] < 0 || states[i] >= len(c.States) {
			return 0, 0, fmt.Errorf("platform: component %d state %d out of range", i, states[i])
		}
		if d[i] <= 0 {
			continue
		}
		ratio := c.States[states[i]].Capacity / d[i]
		if ratio < served {
			served = ratio
		}
	}
	if served > 1 {
		served = 1
	}
	for i, c := range p.Components {
		st := c.States[states[i]]
		u := 0.0
		if st.Capacity > 0 && len(d) > i {
			u = served * d[i] / st.Capacity
		}
		power += st.Power(u)
	}
	return served, power, nil
}

// MaxPower returns the draw with every component at full state, fully busy.
func (p *Platform) MaxPower() float64 {
	pow := 0.0
	for _, c := range p.Components {
		pow += c.States[0].Power(1)
	}
	return pow
}

// MinPower returns the draw with every component at its deepest state, idle.
func (p *Platform) MinPower() float64 {
	pow := 0.0
	for _, c := range p.Components {
		pow += c.States[len(c.States)-1].Power(0)
	}
	return pow
}

// Optimize returns the state vector that maximizes served fraction subject
// to total power <= budget, breaking ties toward lower power. If even the
// all-deepest vector exceeds the budget it returns that vector (maximum
// throttle) with ok=false. The search is exhaustive over the state product
// space — platforms have a handful of states per component, so the space is
// tiny (30 combinations for the Standard calibration).
func (p *Platform) Optimize(d Demand, budget float64) (states []int, served, power float64, ok bool, err error) {
	if len(d) != len(p.Components) {
		return nil, 0, 0, false, fmt.Errorf("platform: demand has %d entries for %d components", len(d), len(p.Components))
	}
	bestServed, bestPower := -1.0, math.Inf(1)
	var best []int
	cur := make([]int, len(p.Components))
	var walk func(idx int) error
	walk = func(idx int) error {
		if idx == len(p.Components) {
			s, pw, evalErr := p.Evaluate(cur, d)
			if evalErr != nil {
				return evalErr
			}
			if pw > budget {
				return nil
			}
			if s > bestServed+1e-12 || (math.Abs(s-bestServed) <= 1e-12 && pw < bestPower) {
				bestServed, bestPower = s, pw
				best = append([]int(nil), cur...)
			}
			return nil
		}
		for st := range p.Components[idx].States {
			cur[idx] = st
			if err := walk(idx + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0); err != nil {
		return nil, 0, 0, false, err
	}
	if best == nil {
		// Budget infeasible even at maximum throttle: return the deepest
		// vector so a capper still does its best.
		deepest := make([]int, len(p.Components))
		for i, c := range p.Components {
			deepest[i] = len(c.States) - 1
		}
		s, pw, evalErr := p.Evaluate(deepest, d)
		if evalErr != nil {
			return nil, 0, 0, false, evalErr
		}
		return deepest, s, pw, false, nil
	}
	return best, bestServed, bestPower, true, nil
}

// Controller is the MIMO platform capper: each epoch it re-optimizes the
// joint state vector for the observed demand under the platform budget.
// It is the component-level analogue of the SM+EC pair, collapsed into one
// multivariable decision, as §6.1(3) suggests.
type Controller struct {
	// Budget is the platform power budget in Watts.
	Budget float64
	// Platform is the controlled hardware.
	Platform *Platform

	// Telemetry.
	steps      int
	infeasible int
}

// NewController validates and wires a MIMO capper.
func NewController(p *Platform, budget float64) (*Controller, error) {
	if p == nil {
		return nil, fmt.Errorf("platform: nil platform")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("platform: budget %v", budget)
	}
	return &Controller{Budget: budget, Platform: p}, nil
}

// Step observes a demand vector, re-optimizes, installs the state vector,
// and returns the projected (served, power).
func (c *Controller) Step(d Demand) (served, power float64, err error) {
	states, served, power, ok, err := c.Platform.Optimize(d, c.Budget)
	if err != nil {
		return 0, 0, err
	}
	if !ok {
		c.infeasible++
	}
	if err := c.Platform.SetStates(states); err != nil {
		return 0, 0, err
	}
	c.steps++
	return served, power, nil
}

// Stats reports (steps, infeasible-budget epochs).
func (c *Controller) Stats() (steps, infeasible int) { return c.steps, c.infeasible }
