// Road-graph mobility: a Network of directed road segments joined at
// intersection nodes, with IDM car-following per (segment, lane) and
// deterministic multi-segment routing. This generalizes the single ring
// Road to city-scale topologies (grids, merges, arbitrary graphs) while
// keeping every update a pure function of (config, seed, time): route
// choices at intersections are hashes of (route seed, vehicle, hop count),
// never draws from a shared stream, so vehicle trajectories are independent
// of processing order and identical across worker counts.
//
// Segment frames: a directed segment runs from node From to node To; a
// vehicle's arc position S grows along the travel direction and its lane
// offset is measured to the right of travel (right-hand traffic), lane 0
// outermost. A Wrap segment closes on itself (a ring), which is how the
// legacy straight road is expressed as a trivial network: two opposing
// closed segments sharing one roadbed.
package traffic

import (
	"fmt"
	"math"

	"mmv2v/internal/geom"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// SegSpec declares one directed road segment of a network.
type SegSpec struct {
	// From and To index NetworkConfig.Nodes.
	From, To int
	// Lanes is the lane count of this directed segment.
	Lanes int
	// Wrap closes the segment on itself: vehicles leaving the end re-enter
	// the start, holding density constant (the ring-road boundary trick).
	// A Wrap segment ignores node routing.
	Wrap bool
}

// NetworkConfig describes a road-graph scenario.
type NetworkConfig struct {
	// Nodes are intersection (or endpoint) positions in world meters.
	Nodes []geom.Vec
	// Segs are the directed segments joining them.
	Segs []SegSpec
	// LaneWidth is the lane width in meters.
	LaneWidth float64
	// HalfGap is the distance from a segment's centerline to the innermost
	// lane edge (half the median on a two-way roadbed).
	HalfGap float64
	// SpeedBands gives the desired-speed band per lane index, lane 0
	// outermost; must cover the widest segment.
	SpeedBands []SpeedBand
	// Vehicles is the total vehicle count placed by NewNetwork, spread
	// round-robin over (segment, lane) pairs with jittered even spacing.
	Vehicles int
	// VehicleLength and VehicleWidth are car body dimensions in meters.
	VehicleLength float64
	VehicleWidth  float64
	IDM           IDMParams
}

// Validate reports configuration errors.
func (c NetworkConfig) Validate() error {
	switch {
	case len(c.Nodes) == 0:
		return fmt.Errorf("traffic: network has no nodes")
	case len(c.Segs) == 0:
		return fmt.Errorf("traffic: network has no segments")
	case c.LaneWidth <= 0:
		return fmt.Errorf("traffic: non-positive lane width %v", c.LaneWidth)
	case c.HalfGap < 0:
		return fmt.Errorf("traffic: negative half gap %v", c.HalfGap)
	case c.Vehicles < 0:
		return fmt.Errorf("traffic: negative vehicle count %d", c.Vehicles)
	case c.VehicleLength <= 0 || c.VehicleWidth <= 0:
		return fmt.Errorf("traffic: non-positive vehicle dimensions %vx%v", c.VehicleLength, c.VehicleWidth)
	}
	for i, b := range c.SpeedBands {
		if b.Low <= 0 || b.High < b.Low {
			return fmt.Errorf("traffic: invalid speed band %d: [%v, %v]", i, b.Low, b.High)
		}
	}
	hasOut := make([]bool, len(c.Nodes))
	for _, s := range c.Segs {
		if s.From >= 0 && s.From < len(c.Nodes) {
			hasOut[s.From] = true
		}
	}
	for i, s := range c.Segs {
		switch {
		case s.From < 0 || s.From >= len(c.Nodes) || s.To < 0 || s.To >= len(c.Nodes):
			return fmt.Errorf("traffic: segment %d references missing node (%d -> %d)", i, s.From, s.To)
		case s.From == s.To:
			return fmt.Errorf("traffic: segment %d is a self-loop at node %d", i, s.From)
		case s.Lanes <= 0:
			return fmt.Errorf("traffic: segment %d has %d lanes", i, s.Lanes)
		case s.Lanes > len(c.SpeedBands):
			return fmt.Errorf("traffic: segment %d has %d lanes but only %d speed bands", i, s.Lanes, len(c.SpeedBands))
		case c.Nodes[s.From] == c.Nodes[s.To]:
			return fmt.Errorf("traffic: segment %d has zero length", i)
		case !s.Wrap && !hasOut[s.To]:
			return fmt.Errorf("traffic: segment %d ends at node %d with no outgoing segment", i, s.To)
		}
	}
	return nil
}

// segGeom is the precomputed frame of one directed segment.
type segGeom struct {
	spec    SegSpec
	start   geom.Vec
	u       geom.Vec // unit vector along travel
	n       geom.Vec // unit right-normal of travel (lane offsets grow this way)
	length  float64
	heading geom.Bearing
	// laneBase indexes this segment's lane 0 in the flat group table.
	laneBase int
	// rev is the index of the opposing segment on the same roadbed (-1 if
	// none); routing avoids immediate U-turns onto it when possible.
	rev int
}

// Network is a running road-graph traffic simulation. Create with
// NewNetwork; not safe for concurrent use. It implements Fleet.
type Network struct {
	cfg  NetworkConfig
	segs []segGeom
	// outs holds outgoing segment indices per node, ascending.
	outs     [][]int
	vehicles []*Vehicle
	rng      *xrand.Source
	// routeSeed drives the pure-hash route choice at intersections.
	routeSeed uint64
	elapsed   float64
	// groups[laneBase+lane] holds the segment-lane's vehicles sorted by S;
	// rebuilt each step from persistent scratch slices.
	groups [][]*Vehicle
}

// NewNetwork builds a network and populates it with cfg.Vehicles vehicles
// spread round-robin over (segment, lane) pairs at jittered even spacing,
// with desired speeds drawn from the lane's band — the same placement
// discipline as the ring road's density fill.
func NewNetwork(cfg NetworkConfig, rng *xrand.Source) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nw := &Network{cfg: cfg, rng: rng.Child("network")}
	nw.routeSeed = xrand.Mix(nw.rng.Seed(), xrand.HashString("routes"))
	nw.outs = make([][]int, len(cfg.Nodes))
	lanes := 0
	for i, s := range cfg.Segs {
		a, b := cfg.Nodes[s.From], cfg.Nodes[s.To]
		d := b.Sub(a)
		length := d.Norm().M()
		u := d.Scale(1 / length)
		sg := segGeom{
			spec:     s,
			start:    a,
			u:        u,
			n:        geom.Vec{X: u.Y, Y: -u.X},
			length:   length,
			heading:  a.BearingTo(b),
			laneBase: lanes,
			rev:      -1,
		}
		lanes += s.Lanes
		nw.segs = append(nw.segs, sg)
		nw.outs[s.From] = append(nw.outs[s.From], i)
	}
	// Segments were appended in index order, so outs lists are ascending.
	for i := range nw.segs {
		for j := range nw.segs {
			if nw.segs[j].spec.From == nw.segs[i].spec.To && nw.segs[j].spec.To == nw.segs[i].spec.From {
				nw.segs[i].rev = j
				break
			}
		}
	}
	nw.groups = make([][]*Vehicle, lanes)
	nw.place(cfg.Vehicles)
	return nw, nil
}

// place fills the network with n vehicles: vehicle i goes to (segment, lane)
// pair i mod pairs at slot i div pairs, with per-vehicle child RNG streams
// for jitter, aggressiveness quantile and initial speed.
func (nw *Network) place(n int) {
	pairs := len(nw.groups)
	perPair := (n + pairs - 1) / max(pairs, 1)
	for id := 0; id < n; id++ {
		p := id % pairs
		seg, lane := nw.segLaneOf(p)
		sg := &nw.segs[seg]
		slot := id / pairs
		spacing := sg.length / float64(max(perPair, 1))
		vrng := nw.rng.Child("veh", uint64(id))
		q := vrng.Float64()
		jitter := vrng.UniformRange(-0.3, 0.3) * spacing
		band := nw.cfg.SpeedBands[lane]
		v := &Vehicle{
			ID:       id,
			Class:    ClassCar,
			Seg:      seg,
			Lane:     lane,
			S:        wrap(float64(slot)*spacing+jitter, sg.length),
			Quantile: q,
		}
		v.DesiredV = band.Low + q*(band.High-band.Low)
		v.V = v.DesiredV * vrng.UniformRange(0.85, 1.0)
		nw.vehicles = append(nw.vehicles, v)
	}
}

// segLaneOf inverts the flat (segment, lane) pair index.
func (nw *Network) segLaneOf(p int) (seg, lane int) {
	for i := range nw.segs {
		if p < nw.segs[i].laneBase+nw.segs[i].spec.Lanes {
			return i, p - nw.segs[i].laneBase
		}
	}
	last := len(nw.segs) - 1
	return last, nw.segs[last].spec.Lanes - 1
}

// Config returns the network configuration.
func (nw *Network) Config() NetworkConfig { return nw.cfg }

// NumSegments returns the directed segment count.
func (nw *Network) NumSegments() int { return len(nw.segs) }

// SegLength returns the length of segment s in meters.
func (nw *Network) SegLength(s int) units.Meter { return units.Meter(nw.segs[s].length) }

// Add appends a hand-constructed vehicle (for deterministic scenarios and
// tests) and returns its index. The caller sets Seg, Lane, S, V and
// DesiredV; the ID is overwritten with the assigned index.
func (nw *Network) Add(v *Vehicle) int {
	v.ID = len(nw.vehicles)
	nw.vehicles = append(nw.vehicles, v)
	return v.ID
}

// Vehicles returns the live vehicle slice. Callers must not mutate it.
func (nw *Network) Vehicles() []*Vehicle { return nw.vehicles }

// NumVehicles returns the vehicle count.
func (nw *Network) NumVehicles() int { return len(nw.vehicles) }

// Elapsed returns total simulated seconds.
func (nw *Network) Elapsed() float64 { return nw.elapsed }

// Pose returns the world-frame pose of vehicle i from its segment frame:
// start + S·u + offset·n, heading along the segment.
func (nw *Network) Pose(i int) (geom.Vec, geom.Bearing, units.MeterPerSec) {
	v := nw.vehicles[i]
	sg := &nw.segs[v.Seg]
	off := nw.laneOffset(sg, v.Lane)
	pos := geom.Vec{
		X: sg.start.X + sg.u.X*v.S + sg.n.X*off,
		Y: sg.start.Y + sg.u.Y*v.S + sg.n.Y*off,
	}
	return pos, sg.heading, units.MeterPerSec(v.V)
}

// laneOffset is the rightward offset of a lane center from the segment
// centerline; lane 0 is outermost, mirroring the ring road's lane geometry.
func (nw *Network) laneOffset(sg *segGeom, lane int) float64 {
	return nw.cfg.HalfGap + (float64(sg.spec.Lanes-1-lane)+0.5)*nw.cfg.LaneWidth
}

// BodyDims returns the body dimensions of vehicle i.
func (nw *Network) BodyDims(i int) (length, width float64) {
	return nw.cfg.VehicleLength, nw.cfg.VehicleWidth
}

// Bounds returns the static extent of the network: the node bounding box
// padded by the widest possible lane offset plus one body length.
func (nw *Network) Bounds() (min, max geom.Vec) {
	min, max = nw.cfg.Nodes[0], nw.cfg.Nodes[0]
	maxLanes := 0
	for _, s := range nw.cfg.Segs {
		if s.Lanes > maxLanes {
			maxLanes = s.Lanes
		}
	}
	for _, p := range nw.cfg.Nodes {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	pad := nw.cfg.HalfGap + float64(maxLanes)*nw.cfg.LaneWidth + nw.cfg.VehicleLength
	return geom.Vec{X: min.X - pad, Y: min.Y - pad}, geom.Vec{X: max.X + pad, Y: max.Y + pad}
}

// nextSeg returns the segment vehicle v continues onto when it reaches the
// end of segment s — a pure hash of (route seed, vehicle, hop count) over
// the node's outgoing segments, skipping the immediate U-turn when any
// other choice exists. Determinism does not depend on call order, so the
// leader-peek during the acceleration pass and the actual handoff always
// agree.
func (nw *Network) nextSeg(s int, v *Vehicle) int {
	sg := &nw.segs[s]
	if sg.spec.Wrap {
		return s
	}
	outs := nw.outs[sg.spec.To]
	if len(outs) == 1 {
		return outs[0]
	}
	n := len(outs)
	skip := -1
	if sg.rev >= 0 {
		for k, o := range outs {
			if o == sg.rev {
				skip, n = k, n-1
				break
			}
		}
	}
	pick := int(xrand.Mix(nw.routeSeed, uint64(v.ID), uint64(v.Hops)) % uint64(n))
	if skip >= 0 && pick >= skip {
		pick++
	}
	return outs[pick]
}

// rebuildGroups sorts vehicles into per-(segment, lane) groups ordered by
// arc position (ties by ID, so the order is total and deterministic).
func (nw *Network) rebuildGroups() {
	for i := range nw.groups {
		nw.groups[i] = nw.groups[i][:0]
	}
	for _, v := range nw.vehicles {
		g := nw.segs[v.Seg].laneBase + v.Lane
		//mmv2v:alloc amortized: group slices grow to steady-state lane occupancy and are reused afterwards
		nw.groups[g] = append(nw.groups[g], v)
	}
	for i := range nw.groups {
		sortVehiclesBySID(nw.groups[i])
	}
}

// leadGap returns the bumper-to-bumper gap and leader speed for the vehicle
// at index k of group g on segment s. The last vehicle of a wrap segment
// sees the first vehicle one lap ahead; on an open segment it peeks into
// its route's next segment (same lane, clamped), so platoons follow through
// intersections instead of teleport-braking.
func (nw *Network) leadGap(s int, vs []*Vehicle, k int) (gap, leaderV float64) {
	v := vs[k]
	sg := &nw.segs[s]
	if k+1 < len(vs) {
		return vs[k+1].S - v.S - nw.cfg.VehicleLength, vs[k+1].V
	}
	if sg.spec.Wrap {
		if len(vs) > 1 {
			return sg.length - v.S + vs[0].S - nw.cfg.VehicleLength, vs[0].V
		}
		return 1e9, v.DesiredV
	}
	ns := nw.nextSeg(s, v)
	nsg := &nw.segs[ns]
	lane := v.Lane
	if lane >= nsg.spec.Lanes {
		lane = nsg.spec.Lanes - 1
	}
	ahead := nw.groups[nsg.laneBase+lane]
	if len(ahead) == 0 {
		return 1e9, v.DesiredV
	}
	return sg.length - v.S + ahead[0].S - nw.cfg.VehicleLength, ahead[0].V
}

// Step advances the network by dt seconds: one IDM acceleration update per
// vehicle against its in-lane (or across-intersection) leader, semi-implicit
// Euler integration, and deterministic segment handoff at ends.
//
//mmv2v:hotpath the 5 ms city-grid mobility tick; pinned by BenchmarkStepGrid10k
func (nw *Network) Step(dt float64) {
	if dt <= 0 {
		return
	}
	nw.rebuildGroups()
	for s := range nw.segs {
		sg := &nw.segs[s]
		for lane := 0; lane < sg.spec.Lanes; lane++ {
			vs := nw.groups[sg.laneBase+lane]
			for k, v := range vs {
				gap, leaderV := nw.leadGap(s, vs, k)
				v.A = idmAccel(nw.cfg.IDM, v.V, v.DesiredV, gap, leaderV)
			}
		}
	}
	for _, v := range nw.vehicles {
		newV := v.V + v.A*dt
		if newV < 0 {
			newV = 0
		}
		v.S += (v.V + newV) / 2 * dt
		v.V = newV
		nw.handoff(v)
	}
	nw.elapsed += dt
}

// handoff moves a vehicle past segment ends: wrap segments fold S back into
// [0, length); open segments advance onto the hash-routed next segment,
// carrying the overshoot so arc progress is continuous through the node.
func (nw *Network) handoff(v *Vehicle) {
	for {
		sg := &nw.segs[v.Seg]
		if v.S < sg.length {
			return
		}
		if sg.spec.Wrap {
			v.S = wrap(v.S, sg.length)
			return
		}
		next := nw.nextSeg(v.Seg, v)
		v.S -= sg.length
		v.Seg = next
		v.Hops++
		if nsg := &nw.segs[next]; v.Lane >= nsg.spec.Lanes {
			v.Lane = nsg.spec.Lanes - 1
		}
		band := nw.cfg.SpeedBands[v.Lane]
		v.DesiredV = band.Low + v.Quantile*(band.High-band.Low)
	}
}
