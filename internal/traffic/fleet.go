package traffic

import (
	"mmv2v/internal/geom"
	"mmv2v/internal/units"
)

// Fleet is the kinematic substrate the world layer binds to: any mobility
// model that can advance vehicles in time and report each vehicle's pose and
// body footprint. The straight ring road (Road) is the trivial special case
// — one road expressed as two closed directed segments — and Network is the
// general road-graph implementation. The world layer consumes only this
// interface, so channel, medium and protocol code is agnostic to whether
// vehicles drive a 1 km segment or a city grid.
type Fleet interface {
	// Step advances the mobility model by dt seconds.
	Step(dt float64)
	// NumVehicles returns the vehicle count (constant over a run).
	NumVehicles() int
	// Elapsed returns total simulated seconds.
	Elapsed() float64
	// Pose returns vehicle i's world-frame position, compass heading of
	// travel and speed.
	Pose(i int) (pos geom.Vec, heading geom.Bearing, speed units.MeterPerSec)
	// BodyDims returns vehicle i's body length and width in meters.
	BodyDims(i int) (length, width float64)
	// Bounds returns a static axis-aligned box containing every vehicle
	// center for the whole run (the world layer sizes its spatial-hash grid
	// from it).
	Bounds() (min, max geom.Vec)
}

// Pose returns the world-frame pose of vehicle i. It is the Fleet view of
// Config.Position/Config.Heading, so the straight road produces exactly the
// same coordinates through the interface as it did before the road-graph
// abstraction existed.
func (r *Road) Pose(i int) (geom.Vec, geom.Bearing, units.MeterPerSec) {
	v := r.vehicles[i]
	return r.cfg.Position(v), r.cfg.Heading(v), units.MeterPerSec(v.V)
}

// BodyDims returns the body dimensions of vehicle i by class.
func (r *Road) BodyDims(i int) (length, width float64) {
	return r.cfg.Dimensions(r.vehicles[i])
}

// Bounds returns the fixed extent of the ring road: x spans the segment,
// y spans the two lane decks around the median.
func (r *Road) Bounds() (min, max geom.Vec) {
	halfWidth := r.cfg.MedianGap/2 + float64(r.cfg.LanesPerDir)*r.cfg.LaneWidth
	return geom.Vec{X: 0, Y: -halfWidth}, geom.Vec{X: r.cfg.Length, Y: halfWidth}
}
