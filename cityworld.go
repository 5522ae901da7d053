package mmv2v

import (
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// GridWorld is a city-grid mobility + link-table drive without a radio
// protocol: a road-graph fleet and its world, advanced one 5 ms tick at a
// time. It exists for scale studies — CLIs time Tick around this
// deterministic core to report wall-clock per refresh at 10k+ vehicles —
// and for smoke tests that only need the geometry/link layers.
type GridWorld struct {
	network *traffic.Network
	world   *world.World
	dt      float64
}

// NewGridWorld builds the grid fleet and its world. The first link table is
// computed before returning, so the world is immediately queryable.
func NewGridWorld(grid GridConfig, seed uint64) (*GridWorld, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	nw, err := traffic.NewNetwork(grid.Network(), xrand.New(seed))
	if err != nil {
		return nil, err
	}
	w, err := world.New(world.DefaultConfig(), nw)
	if err != nil {
		return nil, err
	}
	return &GridWorld{
		network: nw,
		world:   w,
		dt:      phy.DefaultTiming().PositionUpdate.Seconds(),
	}, nil
}

// Tick advances traffic by one 5 ms position update and refreshes the link
// table — the same per-tick work a protocol run performs below the radio.
func (g *GridWorld) Tick() {
	g.network.Step(g.dt)
	g.world.Refresh()
}

// StepTraffic advances traffic by one 5 ms position update without
// refreshing the link table. Scale drives step mobility at full fidelity
// but may refresh the (much more expensive) link table at a coarser
// cadence: with no radio protocol on top there is no beam-coherence
// constraint tying the table to the 5 ms clock.
func (g *GridWorld) StepTraffic() { g.network.Step(g.dt) }

// RefreshLinks recomputes the link table for the current vehicle poses.
func (g *GridWorld) RefreshLinks() { g.world.Refresh() }

// TickSeconds returns the simulated seconds one Tick advances (5 ms).
func (g *GridWorld) TickSeconds() float64 { return g.dt }

// NumVehicles returns the fleet size.
func (g *GridWorld) NumVehicles() int { return g.world.NumVehicles() }

// TotalLinks returns the directed link-table entry count of the current
// snapshot.
func (g *GridWorld) TotalLinks() int { return g.world.TotalLinks() }

// AvgNeighbors returns the current mean LOS neighbor count.
func (g *GridWorld) AvgNeighbors() float64 { return g.world.AvgNeighborCount() }
