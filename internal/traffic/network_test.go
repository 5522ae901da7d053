package traffic

import (
	"math"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/xrand"
)

func testNetConfig() NetworkConfig {
	g := DefaultGridConfig(120)
	g.Rows, g.Cols = 3, 3
	g.BlockM = 200
	return g.Network()
}

func TestNetworkConfigValidate(t *testing.T) {
	base := testNetConfig()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid grid config rejected: %v", err)
	}

	cases := []struct {
		name string
		mut  func(*NetworkConfig)
	}{
		{"no nodes", func(c *NetworkConfig) { c.Nodes = nil }},
		{"no segments", func(c *NetworkConfig) { c.Segs = nil }},
		{"self loop", func(c *NetworkConfig) { c.Segs[0].To = c.Segs[0].From }},
		{"missing node", func(c *NetworkConfig) { c.Segs[0].To = len(c.Nodes) }},
		{"zero lanes", func(c *NetworkConfig) { c.Segs[0].Lanes = 0 }},
		{"lanes exceed bands", func(c *NetworkConfig) { c.Segs[0].Lanes = len(c.SpeedBands) + 1 }},
		{"zero length", func(c *NetworkConfig) { c.Nodes[c.Segs[0].To] = c.Nodes[c.Segs[0].From] }},
		{"dead end", func(c *NetworkConfig) {
			// A node reachable by segment 0 but with every outgoing segment
			// removed strands vehicles.
			to := c.Segs[0].To
			kept := c.Segs[:0]
			for _, s := range c.Segs {
				if s.From != to {
					kept = append(kept, s)
				}
			}
			c.Segs = kept
		}},
		{"negative vehicles", func(c *NetworkConfig) { c.Vehicles = -1 }},
		{"bad lane width", func(c *NetworkConfig) { c.LaneWidth = 0 }},
	}
	for _, tc := range cases {
		c := testNetConfig()
		// Deep-copy the mutable slices so mutations stay local.
		c.Nodes = append([]geom.Vec(nil), c.Nodes...)
		c.Segs = append([]SegSpec(nil), c.Segs...)
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected validation error, got nil", tc.name)
		}
	}
}

// TestGridConfigValidate pins that an oversized grid is rejected before
// Network expands it (Rows×Cols nodes are allocated up front, so a
// 2^31-per-side grid must fail with an error, not a makeslice panic), and
// that a non-finite block length, which every ordered comparison lets
// through, is rejected too.
func TestGridConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*GridConfig)
	}{
		{"rows over bound", func(g *GridConfig) { g.Rows = MaxGridSide + 1 }},
		{"cols over bound", func(g *GridConfig) { g.Cols = MaxGridSide + 1 }},
		{"2^31 per side", func(g *GridConfig) { g.Rows, g.Cols = 1<<31, 1<<31 }},
		{"NaN block", func(g *GridConfig) { g.BlockM = math.NaN() }},
		{"infinite block", func(g *GridConfig) { g.BlockM = math.Inf(1) }},
	}
	for _, tc := range cases {
		g := DefaultGridConfig(240)
		tc.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: want validation error", tc.name)
		}
	}
	g := DefaultGridConfig(240)
	g.Rows, g.Cols = MaxGridSide, 2
	if err := g.Validate(); err != nil {
		t.Errorf("%dx%d grid rejected: %v", g.Rows, g.Cols, err)
	}
}

// TestRoadNetworkPoseEquivalence pins the claim that the legacy straight
// road is the trivial two-wrap-segment network: for every (direction, lane,
// arc position), the network's segment-frame pose reproduces the ring
// road's world coordinates and heading bit-for-bit.
func TestRoadNetworkPoseEquivalence(t *testing.T) {
	roadCfg := DefaultConfig(15)
	nc := RoadNetwork(roadCfg, 0)
	nw, err := NewNetwork(nc, xrand.New(1))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for seg, dir := range []Direction{Eastbound, Westbound} {
		for lane := 0; lane < roadCfg.LanesPerDir; lane++ {
			for _, s := range []float64{0, 1.25, 499.5, 999.75} {
				rv := &Vehicle{Dir: dir, Lane: lane, S: s}
				wantPos := roadCfg.Position(rv)
				wantHead := roadCfg.Heading(rv)

				id := nw.Add(&Vehicle{Seg: seg, Lane: lane, S: s})
				gotPos, gotHead, _ := nw.Pose(id)
				if gotPos != wantPos || gotHead != wantHead {
					t.Fatalf("seg %d (%v) lane %d s %v: network pose (%v, %v) != road pose (%v, %v)",
						seg, dir, lane, s, gotPos, gotHead, wantPos, wantHead)
				}
			}
		}
	}
}

func TestNetworkStepDeterministic(t *testing.T) {
	build := func() *Network {
		nw, err := NewNetwork(testNetConfig(), xrand.New(42))
		if err != nil {
			t.Fatalf("NewNetwork: %v", err)
		}
		return nw
	}
	a, b := build(), build()
	for tick := 0; tick < 400; tick++ {
		a.Step(0.05)
		b.Step(0.05)
	}
	for i := range a.Vehicles() {
		va, vb := a.Vehicles()[i], b.Vehicles()[i]
		if *va != *vb {
			t.Fatalf("vehicle %d diverged after identical steps: %+v vs %+v", i, va, vb)
		}
	}
}

// TestNetworkStepInvariants drives the small grid long enough for many
// intersection handoffs and checks the kinematic contract: arc positions
// stay inside their segment, speeds stay non-negative, poses stay inside
// Bounds, and handoffs accumulate in Hops.
func TestNetworkStepInvariants(t *testing.T) {
	nw, err := NewNetwork(testNetConfig(), xrand.New(7))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	min, max := nw.Bounds()
	for tick := 0; tick < 2000; tick++ {
		nw.Step(0.05)
	}
	hops := 0
	for i, v := range nw.Vehicles() {
		if v.Seg < 0 || v.Seg >= nw.NumSegments() {
			t.Fatalf("vehicle %d on missing segment %d", i, v.Seg)
		}
		if v.S < 0 || v.S >= nw.SegLength(v.Seg).M() {
			t.Fatalf("vehicle %d arc position %v outside segment [0, %v)", i, v.S, nw.SegLength(v.Seg))
		}
		if v.V < 0 {
			t.Fatalf("vehicle %d has negative speed %v", i, v.V)
		}
		pos, _, _ := nw.Pose(i)
		if pos.X < min.X || pos.X > max.X || pos.Y < min.Y || pos.Y > max.Y {
			t.Fatalf("vehicle %d pose %v escaped bounds [%v, %v]", i, pos, min, max)
		}
		hops += v.Hops
	}
	if hops == 0 {
		t.Fatalf("no vehicle crossed an intersection in 100 simulated seconds")
	}
}

// TestNetworkHandoffContinuity checks that crossing a node never teleports
// a vehicle: per-tick displacement stays bounded by speed.
func TestNetworkHandoffContinuity(t *testing.T) {
	nw, err := NewNetwork(testNetConfig(), xrand.New(3))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	n := nw.NumVehicles()
	prev := make([]geom.Vec, n)
	prevSeg := make([]int, n)
	for i := 0; i < n; i++ {
		prev[i], _, _ = nw.Pose(i)
		prevSeg[i] = nw.Vehicles()[i].Seg
	}
	const dt = 0.05
	topV := 0.0
	for _, b := range nw.cfg.SpeedBands {
		topV = math.Max(topV, b.High)
	}
	// One tick advances at most topV·dt along the road (IDM never exceeds
	// the lane's desired-speed band for long, and handoffs carry overshoot
	// rather than re-seeding S).
	arcLimit := topV*dt*1.25 + 1e-9
	for tick := 0; tick < 1000; tick++ {
		nw.Step(dt)
		for i := 0; i < n; i++ {
			pos, _, _ := nw.Pose(i)
			seg := nw.Vehicles()[i].Seg
			limit := arcLimit
			if seg != prevSeg[i] {
				// Across a handoff the vehicle may also swing laterally into
				// the new segment's lane frame, but never further than one
				// full roadbed span.
				limit += 2 * (nw.cfg.HalfGap + float64(nw.segs[seg].spec.Lanes)*nw.cfg.LaneWidth)
			}
			if stepM := pos.Dist(prev[i]).M(); stepM > limit {
				t.Fatalf("tick %d vehicle %d moved %.3f m in one %.0f ms tick (limit %.3f)",
					tick, i, stepM, dt*1000, limit)
			}
			prev[i], prevSeg[i] = pos, seg
		}
	}
}

// TestNetworkRoutingAvoidsUTurn checks the hash router never picks the
// opposing segment of the one just finished when another exit exists.
func TestNetworkRoutingAvoidsUTurn(t *testing.T) {
	nw, err := NewNetwork(testNetConfig(), xrand.New(11))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	for s := range nw.segs {
		if nw.segs[s].spec.Wrap {
			continue
		}
		rev := nw.segs[s].rev
		if rev < 0 || len(nw.outs[nw.segs[s].spec.To]) < 2 {
			continue
		}
		v := &Vehicle{ID: 917}
		for hops := 0; hops < 64; hops++ {
			v.Hops = hops
			if nw.nextSeg(s, v) == rev {
				t.Fatalf("segment %d: route hash picked U-turn onto %d at hops %d", s, rev, hops)
			}
		}
	}
}

// TestGridNetworkGeometry sanity-checks the grid expansion: node count,
// both-way segments per edge, and orthogonal headings.
func TestGridNetworkGeometry(t *testing.T) {
	g := DefaultGridConfig(0)
	g.Rows, g.Cols = 4, 5
	nc := g.Network()
	if len(nc.Nodes) != 20 {
		t.Fatalf("expected 20 nodes, got %d", len(nc.Nodes))
	}
	// Edges: horizontal 4*(5-1)=16, vertical 5*(4-1)=15, two directed segs each.
	if want := 2 * (16 + 15); len(nc.Segs) != want {
		t.Fatalf("expected %d segments, got %d", want, len(nc.Segs))
	}
	nw, err := NewNetwork(nc, xrand.New(5))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	quarter := math.Pi / 2
	for s := 0; s < nw.NumSegments(); s++ {
		h := float64(nw.segs[s].heading)
		k := math.Round(h / quarter)
		if math.Abs(h-k*quarter) > 1e-12 {
			t.Fatalf("segment %d heading %v is not axis-aligned", s, h)
		}
	}
}

func TestNetworkPlacementSpreads(t *testing.T) {
	nc := testNetConfig()
	nc.Vehicles = 240
	nw, err := NewNetwork(nc, xrand.New(9))
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	if nw.NumVehicles() != 240 {
		t.Fatalf("expected 240 vehicles, got %d", nw.NumVehicles())
	}
	occupied := make(map[int]int)
	for _, v := range nw.Vehicles() {
		occupied[nw.segs[v.Seg].laneBase+v.Lane]++
	}
	if len(occupied) != len(nw.groups) {
		t.Fatalf("round-robin placement left %d of %d segment-lanes empty",
			len(nw.groups)-len(occupied), len(nw.groups))
	}
}
