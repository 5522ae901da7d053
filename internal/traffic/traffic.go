// Package traffic is the microscopic road-traffic substrate replacing the
// paper's closed-source VENUS simulator. It models a multi-lane road segment
// with per-lane speed bands, the Intelligent Driver Model (IDM) for
// car-following and a MOBIL-style incentive/safety model for lane changing,
// exactly the two model classes the paper attributes to VENUS ("a
// car-following model and a lane-changing model").
//
// The road is a ring: vehicles leaving one end re-enter the other, which
// keeps the configured density (vehicles per lane per km, "vpl") constant —
// the steady-state equivalent of open-boundary spawning on the paper's 1 km
// segment. Density is what the paper sweeps (15–30 vpl), so holding it
// constant is the property that matters.
package traffic

import (
	"fmt"
	"math"

	"mmv2v/internal/geom"
	"mmv2v/internal/xrand"
)

// KmhToMs converts km/h to m/s.
func KmhToMs(kmh float64) float64 { return kmh / 3.6 }

// MsToKmh converts m/s to km/h.
func MsToKmh(ms float64) float64 { return ms * 3.6 }

// Direction is the travel direction of a vehicle along the road axis.
type Direction int

// Travel directions. The road runs along the x axis; Eastbound vehicles
// move toward +x, Westbound toward -x.
const (
	Eastbound Direction = 1
	Westbound Direction = -1
)

func (d Direction) String() string {
	if d == Eastbound {
		return "east"
	}
	return "west"
}

// SpeedBand is a [low, high) desired-speed interval in m/s for one lane.
type SpeedBand struct {
	Low  float64
	High float64
}

// IDMParams are the Intelligent Driver Model parameters.
type IDMParams struct {
	// MaxAccel is the maximum acceleration a (m/s²).
	MaxAccel float64
	// ComfortDecel is the comfortable braking deceleration b (m/s², positive).
	ComfortDecel float64
	// Headway is the desired time headway T (s).
	Headway float64
	// MinGap is the jam distance s0 (m).
	MinGap float64
	// Delta is the acceleration exponent δ.
	Delta float64
}

// DefaultIDM returns IDM parameters typical for surface-road traffic in the
// paper's 40–80 km/h regime.
func DefaultIDM() IDMParams {
	return IDMParams{
		MaxAccel:     1.5,
		ComfortDecel: 2.0,
		Headway:      1.2,
		MinGap:       2.0,
		Delta:        4,
	}
}

// MOBILParams are the lane-change model parameters.
type MOBILParams struct {
	// Politeness weights the accelerations imposed on others.
	Politeness float64
	// Threshold is the net incentive (m/s²) required to change lanes.
	Threshold float64
	// SafeBraking is the maximum deceleration (m/s², positive) a lane change
	// may impose on the new follower.
	SafeBraking float64
	// Cooldown is the minimum time (s) between lane changes of one vehicle.
	Cooldown float64
}

// DefaultMOBIL returns standard MOBIL parameters.
func DefaultMOBIL() MOBILParams {
	return MOBILParams{
		Politeness:  0.3,
		Threshold:   0.2,
		SafeBraking: 3.0,
		Cooldown:    4.0,
	}
}

// Config describes a road scenario.
type Config struct {
	// Length is the road segment length in meters (paper: 1000 m).
	Length float64
	// LanesPerDir is the number of lanes in each direction (paper: 3).
	LanesPerDir int
	// LaneWidth in meters (paper: 5 m).
	LaneWidth float64
	// MedianGap is the gap between the two innermost opposing lanes (m).
	MedianGap float64
	// DensityVPL is vehicles per lane per km (the paper's density unit).
	DensityVPL float64
	// SpeedBands gives the desired-speed band per lane index; lane 0 is the
	// outermost (slow) lane. Paper: 40–60, 50–70, 60–80 km/h.
	SpeedBands []SpeedBand
	// VehicleLength and VehicleWidth are car body dimensions in meters.
	VehicleLength float64
	VehicleWidth  float64
	// TruckFraction is the share of vehicles generated as trucks (larger
	// bodies: TruckLength × TruckWidth, capped desired speed). Trucks are
	// the dominant mmWave blockers on real roads; the paper's evaluation
	// has cars only, so the default is 0.
	TruckFraction float64
	// TruckLength and TruckWidth are truck body dimensions in meters.
	TruckLength float64
	TruckWidth  float64
	// TruckMaxSpeed caps a truck's desired speed (m/s).
	TruckMaxSpeed float64
	IDM           IDMParams
	MOBIL         MOBILParams
	// LaneChangeCheckEvery is how often (s) each vehicle considers a lane
	// change. Zero disables lane changing.
	LaneChangeCheckEvery float64
}

// DefaultConfig returns the paper's road scenario at the given density.
func DefaultConfig(densityVPL float64) Config {
	return Config{
		Length:      1000,
		LanesPerDir: 3,
		LaneWidth:   5,
		MedianGap:   1,
		DensityVPL:  densityVPL,
		SpeedBands: []SpeedBand{
			{KmhToMs(40), KmhToMs(60)},
			{KmhToMs(50), KmhToMs(70)},
			{KmhToMs(60), KmhToMs(80)},
		},
		VehicleLength:        4.6,
		VehicleWidth:         1.8,
		TruckFraction:        0,
		TruckLength:          16,
		TruckWidth:           2.5,
		TruckMaxSpeed:        KmhToMs(80),
		IDM:                  DefaultIDM(),
		MOBIL:                DefaultMOBIL(),
		LaneChangeCheckEvery: 1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Length <= 0:
		return fmt.Errorf("traffic: non-positive road length %v", c.Length)
	case c.LanesPerDir <= 0:
		return fmt.Errorf("traffic: non-positive lanes per direction %d", c.LanesPerDir)
	case len(c.SpeedBands) < c.LanesPerDir:
		return fmt.Errorf("traffic: %d speed bands for %d lanes", len(c.SpeedBands), c.LanesPerDir)
	case math.IsNaN(c.DensityVPL) || math.IsInf(c.DensityVPL, 0) || c.DensityVPL < 0:
		return fmt.Errorf("traffic: density %v is not a finite non-negative value", c.DensityVPL)
	case c.VehicleLength <= 0 || c.VehicleWidth <= 0:
		return fmt.Errorf("traffic: non-positive vehicle dimensions %vx%v", c.VehicleLength, c.VehicleWidth)
	case c.TruckFraction < 0 || c.TruckFraction > 1:
		return fmt.Errorf("traffic: truck fraction %v outside [0,1]", c.TruckFraction)
	case c.TruckFraction > 0 && (c.TruckLength <= 0 || c.TruckWidth <= 0 || c.TruckMaxSpeed <= 0):
		return fmt.Errorf("traffic: invalid truck parameters")
	}
	for i, b := range c.SpeedBands {
		if b.Low <= 0 || b.High < b.Low {
			return fmt.Errorf("traffic: invalid speed band %d: [%v, %v]", i, b.Low, b.High)
		}
	}
	return nil
}

// Class distinguishes vehicle body types (cars vs trucks), which matters
// for mmWave blockage: truck bodies are much larger obstacles.
type Class int

// Vehicle classes.
const (
	ClassCar Class = iota + 1
	ClassTruck
)

func (c Class) String() string {
	if c == ClassTruck {
		return "truck"
	}
	return "car"
}

// Vehicle is the kinematic state of one vehicle. S is the arc position along
// its own direction of travel in [0, Length); V is speed (m/s, ≥0).
type Vehicle struct {
	ID    int
	Class Class
	Dir   Direction
	Lane  int
	S     float64
	V     float64
	A     float64
	// Seg is the directed road-graph segment the vehicle occupies; unused
	// (always 0) on the single ring Road. Hops counts completed segment
	// traversals and feeds the deterministic route hash at intersections.
	Seg  int
	Hops int
	// Quantile in [0,1) fixes the vehicle's aggressiveness: its desired
	// speed in lane l is Low_l + Quantile·(High_l − Low_l), so a vehicle
	// keeps its relative aggressiveness when it changes lanes.
	Quantile float64
	// DesiredV is the current desired speed, derived from Quantile and Lane.
	DesiredV float64
	// sinceLaneChange accumulates seconds since the last lane change.
	sinceLaneChange float64
}

// Road is a running traffic simulation. Create with New; not safe for
// concurrent use.
type Road struct {
	cfg      Config
	vehicles []*Vehicle
	rng      *xrand.Source
	// groups[0] (westbound) and groups[1] (eastbound) hold the per-direction
	// vehicle lists sorted by S for leader lookups. They are scratch, rebuilt
	// from vehicles at the top of every Step; the backing arrays are reused
	// so the steady-state mobility tick allocates nothing.
	groups  [2][]*Vehicle
	elapsed float64
}

// New creates a road populated at the configured density. Vehicles are
// placed with jittered even spacing per lane and speeds drawn from the
// lane's band.
func New(cfg Config, rng *xrand.Source) (*Road, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Road{cfg: cfg, rng: rng.Child("traffic")}
	perLane := int(math.Round(cfg.DensityVPL * cfg.Length / 1000))
	id := 0
	for _, dir := range []Direction{Eastbound, Westbound} {
		for lane := 0; lane < cfg.LanesPerDir; lane++ {
			spacing := cfg.Length / float64(max(perLane, 1))
			offset := r.rng.Child("laneoffset", uint64(dir+2), uint64(lane)).UniformRange(0, cfg.Length)
			for k := 0; k < perLane; k++ {
				vrng := r.rng.Child("veh", uint64(id))
				q := vrng.Float64()
				band := cfg.SpeedBands[lane]
				jitter := vrng.UniformRange(-0.3, 0.3) * spacing
				v := &Vehicle{
					ID:       id,
					Class:    ClassCar,
					Dir:      dir,
					Lane:     lane,
					S:        wrap(offset+float64(k)*spacing+jitter, cfg.Length),
					Quantile: q,
				}
				// Trucks keep to the slower half of the lanes ("keep right
				// except to pass"); the probability is scaled so the overall
				// share matches TruckFraction.
				truckLanes := (cfg.LanesPerDir + 1) / 2
				if cfg.TruckFraction > 0 && lane < truckLanes &&
					vrng.Bool(cfg.TruckFraction*float64(cfg.LanesPerDir)/float64(truckLanes)) {
					v.Class = ClassTruck
				}
				v.DesiredV = band.Low + q*(band.High-band.Low)
				if v.Class == ClassTruck && v.DesiredV > cfg.TruckMaxSpeed {
					v.DesiredV = cfg.TruckMaxSpeed
				}
				v.V = v.DesiredV * vrng.UniformRange(0.85, 1.0)
				r.vehicles = append(r.vehicles, v)
				id++
			}
		}
	}
	return r, nil
}

// Config returns the road configuration.
func (r *Road) Config() Config { return r.cfg }

// Add appends a hand-constructed vehicle (for deterministic scenarios and
// tests) and returns its index. The caller must set Dir, Lane, S, V and
// DesiredV; the ID is overwritten with the assigned index.
func (r *Road) Add(v *Vehicle) int {
	v.ID = len(r.vehicles)
	r.vehicles = append(r.vehicles, v)
	return v.ID
}

// Vehicles returns the live vehicle slice. Callers must not mutate it.
func (r *Road) Vehicles() []*Vehicle { return r.vehicles }

// NumVehicles returns the vehicle count.
func (r *Road) NumVehicles() int { return len(r.vehicles) }

// Elapsed returns total simulated seconds.
func (r *Road) Elapsed() float64 { return r.elapsed }

func wrap(s, length float64) float64 {
	s = math.Mod(s, length)
	if s < 0 {
		s += length
	}
	return s
}

// gapAhead returns the bumper-to-bumper gap (m) and speed of the nearest
// leader of v in the given lane, searching the ring. If the lane is empty
// apart from v, it returns an effectively infinite gap.
func (r *Road) gapAhead(v *Vehicle, lane int, sorted []*Vehicle) (gap float64, leaderV float64) {
	best := math.MaxFloat64
	leaderV = v.DesiredV
	for _, o := range sorted {
		if o == v || o.Lane != lane {
			continue
		}
		d := wrap(o.S-v.S, r.cfg.Length)
		//mmv2v:exact wrap returns exactly 0 only for identical ring positions (co-located sentinel)
		if d == 0 {
			d = r.cfg.Length // co-located treated as full lap ahead
		}
		if d < best {
			best = d
			leaderV = o.V
		}
	}
	//mmv2v:exact MaxFloat64 is an untouched initialization sentinel meaning "no leader found"
	if best == math.MaxFloat64 {
		return 1e9, leaderV
	}
	return best - r.cfg.VehicleLength, leaderV
}

// gapBehind returns the gap and the follower vehicle behind position s in a
// lane (nil if none).
func (r *Road) gapBehind(s float64, lane int, exclude *Vehicle, dirVehicles []*Vehicle) (gap float64, follower *Vehicle) {
	best := math.MaxFloat64
	for _, o := range dirVehicles {
		if o == exclude || o.Lane != lane {
			continue
		}
		d := wrap(s-o.S, r.cfg.Length)
		//mmv2v:exact wrap returns exactly 0 only for identical ring positions (self/co-located sentinel)
		if d == 0 {
			continue
		}
		if d < best {
			best = d
			follower = o
		}
	}
	if follower == nil {
		return 1e9, nil
	}
	return best - r.cfg.VehicleLength, follower
}

// idmAccel computes the IDM acceleration for speed v, desired speed v0, gap
// to leader and leader speed. The same kernel drives the ring road and the
// road-graph Network, so car-following dynamics are identical on both.
func (r *Road) idmAccel(v, v0, gap, leaderV float64) float64 {
	return idmAccel(r.cfg.IDM, v, v0, gap, leaderV)
}

func idmAccel(p IDMParams, v, v0, gap, leaderV float64) float64 {
	if gap < 0.1 {
		gap = 0.1
	}
	dv := v - leaderV
	sStar := p.MinGap + v*p.Headway + v*dv/(2*math.Sqrt(p.MaxAccel*p.ComfortDecel))
	if sStar < p.MinGap {
		sStar = p.MinGap
	}
	acc := p.MaxAccel * (1 - math.Pow(v/math.Max(v0, 0.1), p.Delta) - (sStar/gap)*(sStar/gap))
	// Bound braking at a physical emergency limit.
	const emergencyBrake = 8.0
	if acc < -emergencyBrake {
		acc = -emergencyBrake
	}
	return acc
}

// Step advances the simulation by dt seconds: one IDM acceleration update
// and integration for every vehicle, plus periodic MOBIL lane-change checks.
//
//mmv2v:hotpath the 5 ms mobility tick; pinned by BenchmarkStep*vpl
func (r *Road) Step(dt float64) {
	if dt <= 0 {
		return
	}
	// Rebuild the per-direction groups into reusable scratch slices:
	// westbound (index 0) before eastbound (index 1), the same order the old
	// per-direction map keys sorted into, so the update sequence is unchanged
	// and never depends on Go's randomized map iteration.
	for i := range r.groups {
		r.groups[i] = r.groups[i][:0]
	}
	for _, v := range r.vehicles {
		g := 0
		if v.Dir == Eastbound {
			g = 1
		}
		//mmv2v:alloc amortized: the scratch slice grows to fleet size on the first step and is reused afterwards
		r.groups[g] = append(r.groups[g], v)
	}
	for _, vs := range r.groups {
		sortVehiclesBySID(vs)
	}

	// Lane-change pass (MOBIL), evaluated at the configured cadence.
	if r.cfg.LaneChangeCheckEvery > 0 {
		for _, vs := range r.groups {
			for _, v := range vs {
				v.sinceLaneChange += dt
				due := math.Mod(r.elapsed+v.Quantile*r.cfg.LaneChangeCheckEvery, r.cfg.LaneChangeCheckEvery)
				if due < dt && v.sinceLaneChange >= r.cfg.MOBIL.Cooldown {
					r.maybeChangeLane(v, vs)
				}
			}
		}
	}

	// Acceleration pass.
	for _, vs := range r.groups {
		for _, v := range vs {
			gap, leaderV := r.gapAhead(v, v.Lane, vs)
			v.A = r.idmAccel(v.V, v.DesiredV, gap, leaderV)
		}
	}
	// Integration pass (semi-implicit Euler, speed clamped at 0).
	for _, v := range r.vehicles {
		newV := v.V + v.A*dt
		if newV < 0 {
			newV = 0
		}
		v.S = wrap(v.S+(v.V+newV)/2*dt, r.cfg.Length)
		v.V = newV
	}
	r.elapsed += dt
}

// maybeChangeLane applies the MOBIL incentive and safety criteria for moving
// v to an adjacent lane (same direction only).
func (r *Road) maybeChangeLane(v *Vehicle, dirVehicles []*Vehicle) {
	if v.Class == ClassTruck {
		return // trucks hold their lane
	}
	bestLane := v.Lane
	bestGainTotal := 0.0
	curGap, curLeaderV := r.gapAhead(v, v.Lane, dirVehicles)
	aCur := r.idmAccel(v.V, v.DesiredV, curGap, curLeaderV)
	for target := v.Lane - 1; target <= v.Lane+1; target += 2 {
		if target < 0 || target >= r.cfg.LanesPerDir {
			continue
		}
		band := r.cfg.SpeedBands[target]
		targetDesired := band.Low + v.Quantile*(band.High-band.Low)
		// Safety: new follower must not brake harder than SafeBraking.
		backGap, follower := r.gapBehind(v.S, target, v, dirVehicles)
		if backGap < r.cfg.IDM.MinGap {
			continue
		}
		if follower != nil {
			aFollower := r.idmAccel(follower.V, follower.DesiredV, backGap, v.V)
			if aFollower < -r.cfg.MOBIL.SafeBraking {
				continue
			}
		}
		newGap, newLeaderV := r.gapAhead(v, target, dirVehicles)
		if newGap < r.cfg.IDM.MinGap {
			continue
		}
		aNew := r.idmAccel(v.V, targetDesired, newGap, newLeaderV)
		// Incentive: own gain plus politeness-weighted effect on the new
		// follower, minus the switching threshold.
		gain := aNew - aCur
		if follower != nil {
			fGapBefore, _ := r.gapAhead(follower, target, dirVehicles)
			aFolBefore := r.idmAccel(follower.V, follower.DesiredV, fGapBefore, follower.V)
			backGapAfter := backGap
			aFolAfter := r.idmAccel(follower.V, follower.DesiredV, backGapAfter, v.V)
			gain += r.cfg.MOBIL.Politeness * (aFolAfter - aFolBefore)
		}
		if gain > r.cfg.MOBIL.Threshold && gain > bestGainTotal {
			bestGainTotal = gain
			bestLane = target
		}
	}
	if bestLane != v.Lane {
		v.Lane = bestLane
		band := r.cfg.SpeedBands[bestLane]
		v.DesiredV = band.Low + v.Quantile*(band.High-band.Low)
		v.sinceLaneChange = 0
	}
}

// vehicleLess orders vehicles by ascending position S, breaking exact ties
// by ID. The ID tiebreak makes the order total, so every sort of the same
// vehicle set yields the same permutation regardless of input order or sort
// algorithm — the property both the ring road's per-direction groups and the
// Network's per-lane groups rely on for determinism.
func vehicleLess(a, b *Vehicle) bool {
	if a.S < b.S {
		return true
	}
	if a.S > b.S {
		return false
	}
	return a.ID < b.ID
}

// sortVehiclesBySID sorts a vehicle slice by (S, ID) without allocating:
// sort.Slice would heap-allocate its closure and box the slice into an
// interface on every call, which the 5 ms mobility tick cannot afford.
// Short slices insertion-sort; longer ones go through a median-of-three
// quicksort with recursion on the smaller half, mirroring
// world.sortLinksByRank.
func sortVehiclesBySID(vs []*Vehicle) {
	for len(vs) > 24 {
		p := partitionVehicles(vs)
		// Recurse into the smaller half; loop on the larger to bound stack depth.
		if p < len(vs)-p-1 {
			sortVehiclesBySID(vs[:p])
			vs = vs[p+1:]
		} else {
			sortVehiclesBySID(vs[p+1:])
			vs = vs[:p]
		}
	}
	for i := 1; i < len(vs); i++ {
		v := vs[i]
		j := i - 1
		for j >= 0 && vehicleLess(v, vs[j]) {
			vs[j+1] = vs[j]
			j--
		}
		vs[j+1] = v
	}
}

// partitionVehicles Lomuto-partitions vs around a median-of-three pivot and
// returns the pivot's final index.
func partitionVehicles(vs []*Vehicle) int {
	hi := len(vs) - 1
	m := hi / 2
	v0, vm, vh := vs[0], vs[m], vs[hi]
	var pi int
	switch {
	case vehicleLess(vm, v0) != vehicleLess(vh, v0):
		pi = 0
	case vehicleLess(vm, v0) != vehicleLess(vm, vh):
		pi = m
	default:
		pi = hi
	}
	vs[pi], vs[hi] = vs[hi], vs[pi]
	p := vs[hi]
	i := 0
	for j := 0; j < hi; j++ {
		if vehicleLess(vs[j], p) {
			vs[i], vs[j] = vs[j], vs[i]
			i++
		}
	}
	vs[i], vs[hi] = vs[hi], vs[i]
	return i
}

// laneCenterY returns the lateral (y) coordinate of a lane center.
// Eastbound lanes sit at negative y (right-hand traffic heading +x),
// westbound at positive y; lane 0 is outermost.
func (c Config) laneCenterY(dir Direction, lane int) float64 {
	// Innermost lane edge is MedianGap/2 from the road center line.
	inner := c.MedianGap / 2
	offset := inner + (float64(c.LanesPerDir-1-lane)+0.5)*c.LaneWidth
	if dir == Eastbound {
		return -offset
	}
	return offset
}

// Position returns the world-frame position of the vehicle center.
func (c Config) Position(v *Vehicle) geom.Vec {
	x := v.S
	if v.Dir == Westbound {
		x = c.Length - v.S
	}
	return geom.Vec{X: x, Y: c.laneCenterY(v.Dir, v.Lane)}
}

// Heading returns the compass bearing of travel: east is π/2, west is 3π/2.
func (c Config) Heading(v *Vehicle) geom.Bearing {
	if v.Dir == Eastbound {
		return geom.Bearing(math.Pi / 2)
	}
	return geom.Bearing(3 * math.Pi / 2)
}

// Dimensions returns the body length and width of a vehicle by class.
func (c Config) Dimensions(v *Vehicle) (length, width float64) {
	if v.Class == ClassTruck {
		return c.TruckLength, c.TruckWidth
	}
	return c.VehicleLength, c.VehicleWidth
}

// Body returns the oriented body rectangle of the vehicle for blockage tests.
func (c Config) Body(v *Vehicle) geom.Rect {
	l, wd := c.Dimensions(v)
	return geom.Rect{
		Center:  c.Position(v),
		Heading: c.Heading(v),
		HalfLen: l / 2,
		HalfWid: wd / 2,
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
