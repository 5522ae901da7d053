package traffic

import (
	"fmt"
	"math"

	"mmv2v/internal/geom"
)

// GridConfig describes a Manhattan-grid road network: Rows × Cols
// intersections spaced BlockM apart, every adjacent pair joined by one
// directed segment each way with Lanes lanes — the city-scale scenario the
// ROADMAP's urban road-graph item calls for.
type GridConfig struct {
	// Rows and Cols are intersection counts per side (≥ 2 each).
	Rows, Cols int
	// BlockM is the block edge length in meters.
	BlockM float64
	// Lanes per directed segment.
	Lanes int
	// LaneWidth in meters.
	LaneWidth float64
	// HalfGap is the centerline-to-innermost-lane-edge distance (m).
	HalfGap float64
	// Vehicles is the total vehicle count placed on the grid.
	Vehicles int
	// SpeedBands gives the desired-speed band per lane index.
	SpeedBands []SpeedBand
	// VehicleLength and VehicleWidth are car body dimensions in meters.
	VehicleLength float64
	VehicleWidth  float64
	IDM           IDMParams
}

// DefaultGridConfig returns an urban grid sized for the given vehicle
// count: 12×12 intersections, 500 m blocks, two lanes each way at 30–60
// km/h. The 264 km of directed roadway put 10k vehicles at ≈19 vehicles
// per lane-km — inside the paper's 15–30 vpl evaluation band, so per-street
// local density (which drives link-table and blockage cost) matches the
// straight-road scenarios while the fleet is ~28× larger.
func DefaultGridConfig(vehicles int) GridConfig {
	return GridConfig{
		Rows:      12,
		Cols:      12,
		BlockM:    500,
		Lanes:     2,
		LaneWidth: 3.5,
		HalfGap:   0.5,
		Vehicles:  vehicles,
		SpeedBands: []SpeedBand{
			{KmhToMs(30), KmhToMs(50)},
			{KmhToMs(40), KmhToMs(60)},
		},
		VehicleLength: 4.6,
		VehicleWidth:  1.8,
		IDM:           DefaultIDM(),
	}
}

// MaxGridSide bounds Rows and Cols. Network allocates Rows×Cols nodes, so
// the bound is checked before any expansion; 256 intersections per side is
// a 127 km square at the default 500 m blocks, far beyond any city study.
const MaxGridSide = 256

// Validate reports configuration errors.
func (c GridConfig) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("traffic: grid needs at least 2x2 intersections, got %dx%d", c.Rows, c.Cols)
	}
	if c.Rows > MaxGridSide || c.Cols > MaxGridSide {
		return fmt.Errorf("traffic: grid %dx%d exceeds %d intersections per side", c.Rows, c.Cols, MaxGridSide)
	}
	if math.IsNaN(c.BlockM) || math.IsInf(c.BlockM, 0) || c.BlockM <= 0 {
		return fmt.Errorf("traffic: block length %v is not finite and positive", c.BlockM)
	}
	return c.Network().Validate()
}

// Network expands the grid into an explicit NetworkConfig: node (r, c) sits
// at (c·BlockM, r·BlockM) and every horizontal and vertical edge carries
// one directed segment per travel direction.
func (c GridConfig) Network() NetworkConfig {
	nodes := make([]geom.Vec, 0, c.Rows*c.Cols)
	for r := 0; r < c.Rows; r++ {
		for col := 0; col < c.Cols; col++ {
			nodes = append(nodes, geom.Vec{X: float64(col) * c.BlockM, Y: float64(r) * c.BlockM})
		}
	}
	id := func(r, col int) int { return r*c.Cols + col }
	var segs []SegSpec
	for r := 0; r < c.Rows; r++ {
		for col := 0; col < c.Cols; col++ {
			if col+1 < c.Cols {
				segs = append(segs,
					SegSpec{From: id(r, col), To: id(r, col+1), Lanes: c.Lanes},
					SegSpec{From: id(r, col+1), To: id(r, col), Lanes: c.Lanes})
			}
			if r+1 < c.Rows {
				segs = append(segs,
					SegSpec{From: id(r, col), To: id(r+1, col), Lanes: c.Lanes},
					SegSpec{From: id(r+1, col), To: id(r, col), Lanes: c.Lanes})
			}
		}
	}
	return NetworkConfig{
		Nodes:         nodes,
		Segs:          segs,
		LaneWidth:     c.LaneWidth,
		HalfGap:       c.HalfGap,
		SpeedBands:    c.SpeedBands,
		Vehicles:      c.Vehicles,
		VehicleLength: c.VehicleLength,
		VehicleWidth:  c.VehicleWidth,
		IDM:           c.IDM,
	}
}

// RoadNetwork expresses the legacy straight road as the trivial network:
// two opposing Wrap segments over one roadbed, same lane geometry, same
// speed bands — the special case the road-graph abstraction generalizes.
// (The optimized Road implementation remains the substrate legacy scenarios
// run on; this builder exists so the equivalence is a tested fact, not a
// comment.)
func RoadNetwork(cfg Config, vehicles int) NetworkConfig {
	return NetworkConfig{
		Nodes: []geom.Vec{{X: 0, Y: 0}, {X: cfg.Length, Y: 0}},
		Segs: []SegSpec{
			{From: 0, To: 1, Lanes: cfg.LanesPerDir, Wrap: true}, // eastbound deck
			{From: 1, To: 0, Lanes: cfg.LanesPerDir, Wrap: true}, // westbound deck
		},
		LaneWidth:     cfg.LaneWidth,
		HalfGap:       cfg.MedianGap / 2,
		SpeedBands:    cfg.SpeedBands,
		Vehicles:      vehicles,
		VehicleLength: cfg.VehicleLength,
		VehicleWidth:  cfg.VehicleWidth,
		IDM:           cfg.IDM,
	}
}
