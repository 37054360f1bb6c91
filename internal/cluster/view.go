package cluster

// FleetView is a read-only window onto the per-server columns, for an
// observer that must never mutate the plant; the performance-SLO manager
// (internal/controllers/pm) reads served load through it. It is a value (two
// words) — pass it around freely. A FleetView exposes no setters and hands
// out no slices, so holding one cannot alias or corrupt a column (DESIGN.md
// §12).
type FleetView struct {
	c *Cluster
}

// View returns a read-only view of the fleet's per-server state.
func (c *Cluster) View() FleetView { return FleetView{c: c} }

// NumServers returns the fleet size.
func (v FleetView) NumServers() int { return v.c.NumServers() }

// On reports whether server i is powered.
func (v FleetView) On(i int) bool { return v.c.On(i) }

// RealUtil returns f_C, server i's served load in full-speed units.
func (v FleetView) RealUtil(i int) float64 { return v.c.RealUtil(i) }

// DemandSum returns f_D, server i's summed VM demand with overhead.
func (v FleetView) DemandSum(i int) float64 { return v.c.DemandSum(i) }
