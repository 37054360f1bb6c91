package budget

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nopower/internal/cluster"
	"nopower/internal/obs"
	"nopower/internal/policy"
	"nopower/internal/testutil"
	"nopower/internal/trace"
)

// periods are the paper's T_em and T_grp.
var periods = map[Level]int{EM: 25, GM: 50}

func TestNewValidation(t *testing.T) {
	for _, level := range []Level{EM, GM} {
		t.Run(string(level), func(t *testing.T) {
			if _, err := New(level, Coordinated, nil, 0); err == nil {
				t.Error("zero period accepted")
			}
			c, err := New(level, Coordinated, nil, periods[level])
			if err != nil {
				t.Fatal(err)
			}
			if c.Policy.Name() != "proportional" {
				t.Errorf("default policy = %q", c.Policy.Name())
			}
			if c.Name() != string(level) {
				t.Errorf("name = %q, want %q", c.Name(), level)
			}
		})
	}
	if _, err := New("PDU", Coordinated, nil, 10); err == nil {
		t.Error("unknown level accepted")
	}
}

// advanced builds an enclosure cluster and produces its power readings.
func advanced(t *testing.T, enclosures, blades, standalone int, level float64) *cluster.Cluster {
	cl := testutil.EnclosureCluster(t, enclosures, blades, standalone, 100, level)
	cl.Advance(0)
	return cl
}

// controllerCase builds its cluster, runs a controller of its level, mode
// and policy (proportional when nil) on it, one epoch at tick 0 when run is
// nil, and checks what the controller wrote.
type controllerCase struct {
	name  string
	level Level
	mode  Mode
	pol   policy.Division
	setup func(t *testing.T) *cluster.Cluster
	run   func(c *Controller, cl *cluster.Cluster)
	check func(t *testing.T, c *Controller, cl *cluster.Cluster)
}

// TestController runs every EM and GM behaviour as one table.
func TestController(t *testing.T) {
	cases := []controllerCase{{
		// Per-blade dynamic caps are min(static, share) and their sum never
		// exceeds the enclosure's effective budget.
		name: "CoordinatedAllocation", level: EM,
		setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 1, 4, 0, 0.5) },
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			sum := 0.0
			for i := 0; i < cl.NumServers(); i++ {
				if cl.DynCap(i) > cl.StaticCap(i) {
					t.Errorf("server %d dyn cap %.1f above static %.1f", i, cl.DynCap(i), cl.StaticCap(i))
				}
				sum += cl.DynCap(i)
			}
			if sum > cl.Enclosures[0].StaticCap+1e-9 {
				t.Errorf("allocated %.1f W above enclosure budget %.1f W", sum, cl.Enclosures[0].StaticCap)
			}
		},
	}, {
		// The GM's recommendation (enclosure DynCap) tightens the pie the EM
		// splits.
		name: "CoordinatedUsesGMRecommendation", level: EM,
		setup: func(t *testing.T) *cluster.Cluster {
			cl := advanced(t, 1, 4, 0, 0.5)
			cl.Enclosures[0].DynCap = 100 // much tighter than static (~340)
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			if sum := dynSum(cl); sum > 100+1e-9 {
				t.Errorf("allocated %.1f W above the GM's 100 W recommendation", sum)
			}
		},
	}, {
		// Uncoordinated mode ignores the GM recommendation and the
		// per-server min.
		name: "UncoordinatedIgnoresMinRule", level: EM, mode: Uncoordinated, pol: policy.FairShare{},
		setup: func(t *testing.T) *cluster.Cluster {
			cl := advanced(t, 1, 2, 0, 0.5)
			cl.Enclosures[0].DynCap = 50 // GM said 50; uncoordinated EM ignores it
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			// Fair share of the full static budget: 0.85*200/2 = 85 each.
			for i := 0; i < cl.NumServers(); i++ {
				if math.Abs(cl.DynCap(i)-85) > 1e-9 {
					t.Errorf("server %d dyn cap %.1f, want raw 85", i, cl.DynCap(i))
				}
			}
		},
	}, {
		// Uncoordinated shares can exceed the blade's static cap — the
		// under-throttle conflict the min rule prevents.
		name: "UncoordinatedCanExceedStaticCap", level: EM, mode: Uncoordinated,
		setup: func(t *testing.T) *cluster.Cluster {
			cl := advanced(t, 1, 2, 0, 0.5)
			// Skew power so proportional share gives one blade nearly everything.
			cl.SetSensorReadings(0, cl.Util(0), cl.RealUtil(0), 100)
			cl.SetSensorReadings(1, cl.Util(1), cl.RealUtil(1), 1)
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			if cl.DynCap(0) <= cl.StaticCap(0) {
				t.Errorf("expected raw share %.1f above static cap %.1f", cl.DynCap(0), cl.StaticCap(0))
			}
		},
	}, {
		name: "PeriodGatingAndTelemetry", level: EM,
		setup: func(t *testing.T) *cluster.Cluster {
			return testutil.EnclosureCluster(t, 2, 2, 0, 100, 1.1) // saturating: enclosures violate
		},
		run: tickAdvance(100),
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			// 4 epochs (k=0,25,50,75) x 2 enclosures; k=0 sees zero power
			// (no violation), later epochs see saturated enclosures over budget.
			checkDrain(t, c, 6, 8)
			checkDrain(t, c, 0, 0)
		},
	}, {
		name: "NoEnclosuresIsNoop", level: EM,
		setup: func(t *testing.T) *cluster.Cluster {
			cl := testutil.StandaloneCluster(t, 3, 100, 0.5)
			cl.Advance(0)
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			for i := 0; i < cl.NumServers(); i++ {
				if cl.DynCap(i) != cl.StaticCap(i) {
					t.Errorf("EM touched standalone server %d", i)
				}
			}
		},
	}, {
		// Both child kinds: enclosures get DynCap <= their static cap,
		// standalone servers likewise, and the total allocation never
		// exceeds the group budget.
		name: "CoordinatedAllocation", level: GM,
		setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 2, 3, 4, 0.5) },
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			total := 0.0
			for _, e := range cl.Enclosures {
				if e.DynCap > e.StaticCap+1e-9 {
					t.Errorf("enclosure %d dyn cap %.1f above static %.1f", e.ID, e.DynCap, e.StaticCap)
				}
				total += e.DynCap
			}
			for _, sid := range cl.StandaloneServers() {
				if cl.DynCap(sid) > cl.StaticCap(sid)+1e-9 {
					t.Errorf("standalone %d dyn cap %.1f above static %.1f", sid, cl.DynCap(sid), cl.StaticCap(sid))
				}
				total += cl.DynCap(sid)
			}
			if total > cl.StaticCapGrp+1e-9 {
				t.Errorf("allocated %.1f W above group budget %.1f W", total, cl.StaticCapGrp)
			}
		},
	}, {
		// Proportional share: a hotter enclosure receives a larger
		// recommendation.
		name: "ProportionalFavorsHotChildren", level: GM,
		setup: func(t *testing.T) *cluster.Cluster {
			cl := advanced(t, 2, 3, 0, 0.5)
			cl.Enclosures[0].Power = 250
			cl.Enclosures[1].Power = 50
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			if cl.Enclosures[0].DynCap <= cl.Enclosures[1].DynCap {
				t.Errorf("hot enclosure got %.1f W, cold got %.1f W", cl.Enclosures[0].DynCap, cl.Enclosures[1].DynCap)
			}
		},
	}, {
		// Uncoordinated mode writes raw shares without the min rule.
		name: "UncoordinatedSkipsMinRule", level: GM, mode: Uncoordinated,
		setup: func(t *testing.T) *cluster.Cluster {
			cl := advanced(t, 1, 2, 1, 0.5)
			// Make the standalone server dominate measured power so its raw
			// share exceeds its static cap.
			cl.SetSensorReadings(2, cl.Util(2), cl.RealUtil(2), 500)
			cl.Enclosures[0].Power = 10
			return cl
		},
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			if cl.DynCap(2) <= cl.StaticCap(2) {
				t.Errorf("raw share %.1f should exceed the 90 W static cap", cl.DynCap(2))
			}
		},
	}, {
		name: "PeriodGating", level: GM,
		setup: func(t *testing.T) *cluster.Cluster { return testutil.EnclosureCluster(t, 1, 2, 0, 100, 0.5) },
		run:   tickAdvance(150),
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			if _, e := c.DrainViolations(); e != 3 {
				t.Errorf("epochs = %d, want 3 (k=0,50,100)", e)
			}
		},
	}, {
		name: "ViolationTelemetry", level: GM,
		// Saturating: the group at full power, 200 W > 160 W budget.
		setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 1, 2, 0, 1.2) },
		run:   func(c *Controller, cl *cluster.Cluster) { c.Tick(50, cl) },
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) { checkDrain(t, c, 1, 1) },
	}, {
		// FIFO ordering across the mixed child list must be deterministic:
		// the standalone IDs are offset past the enclosure IDs.
		name: "FIFOChildOrdering", level: GM, pol: policy.FIFO{},
		setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 1, 2, 2, 0.5) },
		check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
			// Group budget 0.8*400 = 320: the enclosure (max 200) is filled
			// first, then the standalone servers in ID order get the remainder.
			if cl.Enclosures[0].DynCap != cl.Enclosures[0].StaticCap {
				t.Errorf("enclosure got %.1f, want its full static cap %.1f", cl.Enclosures[0].DynCap, cl.Enclosures[0].StaticCap)
			}
			if cl.DynCap(2) < cl.DynCap(3) {
				t.Errorf("FIFO order violated: server 2 got %.1f < server 3's %.1f", cl.DynCap(2), cl.DynCap(3))
			}
		},
	}}
	// Every level also falls back to its static budgets and traces each
	// write to the register it targets.
	for _, level := range []Level{EM, GM} {
		var events []obs.Event
		cases = append(cases, controllerCase{
			name: "FailSafe", level: level,
			setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 2, 3, 4, 0.5) },
			run: func(c *Controller, cl *cluster.Cluster) {
				c.Tick(0, cl)
				c.FailSafe(1, cl)
			},
			check: func(t *testing.T, c *Controller, cl *cluster.Cluster) {
				for _, e := range cl.Enclosures {
					if e.DynCap != e.StaticCap {
						t.Errorf("enclosure %d dyn cap %.1f, want static %.1f", e.ID, e.DynCap, e.StaticCap)
					}
				}
				for i := 0; i < cl.NumServers(); i++ {
					if cl.DynCap(i) != cl.StaticCap(i) {
						t.Errorf("server %d dyn cap %.1f, want static %.1f", i, cl.DynCap(i), cl.StaticCap(i))
					}
				}
			},
		}, controllerCase{
			name: "Tracing", level: level, mode: Uncoordinated,
			setup: func(t *testing.T) *cluster.Cluster { return advanced(t, 2, 3, 4, 0.5) },
			run: func(c *Controller, cl *cluster.Cluster) {
				rec := obs.NewRingRecorder(0)
				c.SetTracer(rec)
				c.Tick(0, cl)
				events = rec.Events()
			},
			check: func(t *testing.T, c *Controller, cl *cluster.Cluster) { checkTrace(t, c, cl, events) },
		})
	}
	for _, tc := range cases {
		t.Run(string(tc.level)+"/"+tc.name, func(t *testing.T) {
			cl := tc.setup(t)
			pol := tc.pol
			if pol == nil {
				pol = policy.Proportional{}
			}
			c, err := New(tc.level, tc.mode, pol, periods[tc.level])
			if err != nil {
				t.Fatal(err)
			}
			if tc.run == nil {
				c.Tick(0, cl)
			} else {
				tc.run(c, cl)
			}
			tc.check(t, c, cl)
		})
	}
}

// checkTrace wants one event per written register, in child order: the
// EM's blades enclosure by enclosure, or the GM's enclosures and then its
// standalone servers, each under its own actuator and unoffset ID.
func checkTrace(t *testing.T, c *Controller, cl *cluster.Cluster, events []obs.Event) {
	t.Helper()
	type write struct {
		act    string
		target int
		now    float64
	}
	var want []write
	if c.Name() == "GM" {
		for _, e := range cl.Enclosures {
			want = append(want, write{obs.ActEnclosureCap, e.ID, e.DynCap})
		}
		for _, sid := range cl.StandaloneServers() {
			want = append(want, write{obs.ActServerCap, sid, cl.DynCap(sid)})
		}
	} else {
		for _, e := range cl.Enclosures {
			for _, sid := range e.Servers {
				want = append(want, write{obs.ActServerCap, sid, cl.DynCap(sid)})
			}
		}
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d", len(events), len(want))
	}
	for i, ev := range events {
		w := want[i]
		if ev.Controller != c.Name() || ev.Actuator != w.act || ev.Target != w.target || ev.New != w.now || ev.Reason != "raw-share" {
			t.Errorf("event %d = %+v, want %s %s target %d new %v raw-share", i, ev, c.Name(), w.act, w.target, w.now)
		}
	}
}

// tickAdvance ticks the controller and then the plant for ticks ticks.
func tickAdvance(ticks int) func(c *Controller, cl *cluster.Cluster) {
	return func(c *Controller, cl *cluster.Cluster) {
		for k := 0; k < ticks; k++ {
			c.Tick(k, cl)
			cl.Advance(k)
		}
	}
}

func checkDrain(t *testing.T, c *Controller, violations, epochs int) {
	t.Helper()
	if v, e := c.DrainViolations(); v != violations || e != epochs {
		t.Errorf("drain = %d/%d, want %d/%d", v, e, violations, epochs)
	}
}

func dynSum(cl *cluster.Cluster) float64 {
	sum := 0.0
	for i := 0; i < cl.NumServers(); i++ {
		sum += cl.DynCap(i)
	}
	return sum
}

// recorder is a division policy that keeps what each Divide was handed and
// returned. It forwards the caller's buffer, so the wrapped policy divides
// into the controller's reused shares as it does in production.
type recorder struct {
	policy.Division
	totals []float64
	shares [][]float64
}

func (r *recorder) Divide(dst []float64, total float64, children []policy.Child) []float64 {
	s := r.Division.Divide(dst, total, children)
	r.totals = append(r.totals, total)
	r.shares = append(r.shares, append([]float64(nil), s...))
	return s
}

// TestDivisionContract checks the paper's coordination contract at unit
// scale for every policy, level and mode. Conservation: each share is
// non-negative and a division's shares sum to at most the parent's
// effective budget, which is what the policy was handed. The min rule: in
// coordinated mode every child's dynamic budget stays at or below its
// static one. The cluster mixes enclosures and standalone servers at
// uneven demand, with one enclosure under a GM recommendation below
// CAP_ENC and the group under a facility budget below CAP_GRP.
func TestDivisionContract(t *testing.T) {
	set := &trace.Set{Name: "uneven"}
	for i := 0; i < 10; i++ {
		set.Traces = append(set.Traces, testutil.Flat("w", 100, 0.1+0.25*float64(i%5)))
	}
	for _, name := range policy.Names() {
		for _, level := range []Level{EM, GM} {
			for _, mode := range []Mode{Coordinated, Uncoordinated} {
				pol, err := policy.ByName(name, rand.New(rand.NewSource(1)))
				if err != nil {
					t.Fatal(err)
				}
				rec := &recorder{Division: pol}
				c, err := New(level, mode, rec, 1)
				if err != nil {
					t.Fatal(err)
				}
				cl := testutil.Cluster(t, testutil.Config(2, 3, 4), set)
				cl.Enclosures[0].DynCap = 0.5 * cl.Enclosures[0].StaticCap
				cl.FacilityCapGrp = 0.9 * cl.StaticCapGrp
				for k := 0; k < 4; k++ {
					cl.Advance(k)
					rec.totals, rec.shares = nil, nil
					c.Tick(k, cl)
					checkContract(t, fmt.Sprintf("%s/%s/mode %d/tick %d", name, level, mode, k), c, cl, rec)
				}
			}
		}
	}
}

func checkContract(t *testing.T, at string, c *Controller, cl *cluster.Cluster, rec *recorder) {
	t.Helper()
	var budgets []float64
	if c.Name() == "GM" {
		budgets = []float64{cl.CapGrp()}
	} else {
		for _, e := range cl.Enclosures {
			b := e.StaticCap
			if c.Mode == Coordinated {
				b = math.Min(b, e.DynCap)
			}
			budgets = append(budgets, b)
		}
	}
	if len(rec.totals) != len(budgets) {
		t.Fatalf("%s: %d divisions, want %d", at, len(rec.totals), len(budgets))
	}
	for d, budget := range budgets {
		if rec.totals[d] != budget {
			t.Errorf("%s: division %d handed %v W, want the effective budget %v W", at, d, rec.totals[d], budget)
		}
		sum := 0.0
		for i, s := range rec.shares[d] {
			if s < 0 {
				t.Errorf("%s: division %d share %d = %v < 0", at, d, i, s)
			}
			sum += s
		}
		if sum > budget+1e-9 {
			t.Errorf("%s: division %d shares sum to %v W above its budget %v W", at, d, sum, budget)
		}
	}
	if c.Mode != Coordinated {
		return
	}
	for _, e := range cl.Enclosures {
		if e.DynCap > e.StaticCap {
			t.Errorf("%s: enclosure %d dyn cap %v above static %v", at, e.ID, e.DynCap, e.StaticCap)
		}
	}
	for i := 0; i < cl.NumServers(); i++ {
		if cl.DynCap(i) > cl.StaticCap(i) {
			t.Errorf("%s: server %d dyn cap %v above static %v", at, i, cl.DynCap(i), cl.StaticCap(i))
		}
	}
}

// An EM epoch divides once per enclosure into the controller's own buffers,
// so what it allocates does not grow with the enclosure count.
func TestEMEpochAllocationsFlat(t *testing.T) {
	allocs := func(enclosures int) float64 {
		cl := advanced(t, enclosures, 6, 0, 0.4)
		c, err := New(EM, Coordinated, nil, periods[EM])
		if err != nil {
			t.Fatal(err)
		}
		c.Tick(0, cl) // sizes the buffers
		return testing.AllocsPerRun(20, func() { c.Tick(0, cl) })
	}
	if small, large := allocs(2), allocs(40); large > small {
		t.Errorf("an EM epoch makes %v allocations at 2 enclosures and %v at 40", small, large)
	}
}
