package traffic

import (
	"math"
	"testing"
	"testing/quick"

	"mmv2v/internal/geom"
	"mmv2v/internal/xrand"
)

func newRoad(t *testing.T, density float64, seed uint64) *Road {
	t.Helper()
	r, err := New(DefaultConfig(density), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSpeedConversions(t *testing.T) {
	if got := KmhToMs(72); got != 20 {
		t.Errorf("KmhToMs(72) = %v", got)
	}
	if got := MsToKmh(20); got != 72 {
		t.Errorf("MsToKmh(20) = %v", got)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative length", func(c *Config) { c.Length = -1 }},
		{"zero lanes", func(c *Config) { c.LanesPerDir = 0 }},
		{"missing bands", func(c *Config) { c.SpeedBands = c.SpeedBands[:1] }},
		{"negative density", func(c *Config) { c.DensityVPL = -5 }},
		{"NaN density", func(c *Config) { c.DensityVPL = math.NaN() }},
		{"zero vehicle length", func(c *Config) { c.VehicleLength = 0 }},
		{"inverted band", func(c *Config) { c.SpeedBands[0] = SpeedBand{20, 10} }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(15)
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("want validation error")
			}
		})
	}
	if err := DefaultConfig(15).Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestPopulationMatchesDensity(t *testing.T) {
	for _, density := range []float64{10, 15, 20, 30} {
		r := newRoad(t, density, 1)
		want := int(density) * 3 * 2 // vpl × lanes × directions on a 1 km road
		if got := r.NumVehicles(); got != want {
			t.Errorf("density %v: %d vehicles, want %d", density, got, want)
		}
	}
}

func TestInitialSpeedsWithinLaneBands(t *testing.T) {
	r := newRoad(t, 20, 2)
	cfg := r.Config()
	for _, v := range r.Vehicles() {
		band := cfg.SpeedBands[v.Lane]
		if v.DesiredV < band.Low || v.DesiredV > band.High {
			t.Errorf("vehicle %d desired speed %v outside lane %d band [%v,%v]",
				v.ID, v.DesiredV, v.Lane, band.Low, band.High)
		}
		if v.V <= 0 || v.V > band.High {
			t.Errorf("vehicle %d speed %v implausible", v.ID, v.V)
		}
	}
}

func TestDeterminism(t *testing.T) {
	r1 := newRoad(t, 15, 7)
	r2 := newRoad(t, 15, 7)
	for i := 0; i < 200; i++ {
		r1.Step(0.005)
		r2.Step(0.005)
	}
	v1, v2 := r1.Vehicles(), r2.Vehicles()
	for i := range v1 {
		if v1[i].S != v2[i].S || v1[i].V != v2[i].V || v1[i].Lane != v2[i].Lane {
			t.Fatalf("vehicle %d diverged: %+v vs %+v", i, v1[i], v2[i])
		}
	}
}

func TestStepAdvancesPositions(t *testing.T) {
	r := newRoad(t, 10, 3)
	before := make([]float64, r.NumVehicles())
	for i, v := range r.Vehicles() {
		before[i] = v.S
	}
	for i := 0; i < 100; i++ {
		r.Step(0.005) // 0.5 s total
	}
	moved := 0
	for i, v := range r.Vehicles() {
		if v.S != before[i] {
			moved++
		}
	}
	if moved != r.NumVehicles() {
		t.Errorf("only %d/%d vehicles moved", moved, r.NumVehicles())
	}
	if got := r.Elapsed(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Elapsed = %v", got)
	}
}

func TestNoCollisionsLongRun(t *testing.T) {
	// At the paper's highest density, simulate 30 s and verify no two
	// same-lane vehicles ever overlap (bumper-to-bumper gap > 0).
	r := newRoad(t, 30, 4)
	cfg := r.Config()
	for step := 0; step < 6000; step++ {
		r.Step(0.005)
		if step%200 != 0 {
			continue
		}
		for _, v := range r.Vehicles() {
			for _, o := range r.Vehicles() {
				if v == o || v.Dir != o.Dir || v.Lane != o.Lane {
					continue
				}
				d := math.Abs(v.S - o.S)
				d = math.Min(d, cfg.Length-d)
				if d < cfg.VehicleLength*0.9 {
					t.Fatalf("step %d: vehicles %d and %d overlap (d=%.2f m)", step, v.ID, o.ID, d)
				}
			}
		}
	}
}

func TestSpeedsStayNonNegativeAndBounded(t *testing.T) {
	r := newRoad(t, 30, 5)
	maxBand := r.Config().SpeedBands[2].High
	for step := 0; step < 4000; step++ {
		r.Step(0.005)
		for _, v := range r.Vehicles() {
			if v.V < 0 {
				t.Fatalf("negative speed %v", v.V)
			}
			if v.V > maxBand*1.2 {
				t.Fatalf("speed %v exceeds plausible max %v", v.V, maxBand*1.2)
			}
		}
	}
}

func TestIDMFreeRoadApproachesDesiredSpeed(t *testing.T) {
	cfg := DefaultConfig(0) // empty road
	cfg.LaneChangeCheckEvery = 0
	r, err := New(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	v := &Vehicle{ID: 0, Dir: Eastbound, Lane: 1, S: 0, V: 5, Quantile: 0.5, DesiredV: 18}
	r.vehicles = append(r.vehicles, v)
	for i := 0; i < 12000; i++ { // 60 s
		r.Step(0.005)
	}
	if math.Abs(v.V-18) > 0.5 {
		t.Errorf("free-road speed %v, want ≈18", v.V)
	}
}

func TestIDMFollowerKeepsSafeGap(t *testing.T) {
	cfg := DefaultConfig(0)
	cfg.LaneChangeCheckEvery = 0
	r, err := New(cfg, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	leader := &Vehicle{ID: 0, Dir: Eastbound, Lane: 1, S: 50, V: 10, Quantile: 0.5, DesiredV: 10}
	follower := &Vehicle{ID: 1, Dir: Eastbound, Lane: 1, S: 0, V: 20, Quantile: 0.5, DesiredV: 25}
	r.vehicles = append(r.vehicles, leader, follower)
	for i := 0; i < 20000; i++ { // 100 s
		r.Step(0.005)
		gap := wrap(leader.S-follower.S, cfg.Length) - cfg.VehicleLength
		if gap < 0.5 {
			t.Fatalf("follower collided: gap %.2f at step %d", gap, i)
		}
	}
	// Follower should have adapted toward leader speed.
	if math.Abs(follower.V-leader.V) > 1.0 {
		t.Errorf("follower speed %v, leader %v", follower.V, leader.V)
	}
}

func TestLaneChangesHappenUnderPressure(t *testing.T) {
	// A slow platoon in lane 0 with a fast vehicle behind should trigger at
	// least one lane change somewhere in a dense scenario.
	r := newRoad(t, 25, 11)
	changes := 0
	lanes := map[int]int{}
	for _, v := range r.Vehicles() {
		lanes[v.ID] = v.Lane
	}
	for i := 0; i < 10000; i++ { // 50 s
		r.Step(0.005)
	}
	for _, v := range r.Vehicles() {
		if lanes[v.ID] != v.Lane {
			changes++
		}
	}
	if changes == 0 {
		t.Error("no lane changes in 50 s of dense traffic")
	}
}

func TestDesiredSpeedUpdatesOnLaneChange(t *testing.T) {
	r := newRoad(t, 25, 13)
	cfg := r.Config()
	for i := 0; i < 10000; i++ {
		r.Step(0.005)
	}
	for _, v := range r.Vehicles() {
		band := cfg.SpeedBands[v.Lane]
		want := band.Low + v.Quantile*(band.High-band.Low)
		if math.Abs(v.DesiredV-want) > 1e-9 {
			t.Errorf("vehicle %d desired %v, want %v for lane %d", v.ID, v.DesiredV, want, v.Lane)
		}
	}
}

func TestPositionMapping(t *testing.T) {
	cfg := DefaultConfig(15)
	east := &Vehicle{Dir: Eastbound, Lane: 2, S: 100}
	west := &Vehicle{Dir: Westbound, Lane: 0, S: 100}
	pe := cfg.Position(east)
	pw := cfg.Position(west)
	if pe.X != 100 {
		t.Errorf("eastbound x = %v", pe.X)
	}
	if pw.X != cfg.Length-100 {
		t.Errorf("westbound x = %v", pw.X)
	}
	if pe.Y >= 0 {
		t.Errorf("eastbound y = %v, want negative", pe.Y)
	}
	if pw.Y <= 0 {
		t.Errorf("westbound y = %v, want positive", pw.Y)
	}
	// Lane 2 (innermost) must be closer to the center line than lane 0.
	eInner := cfg.Position(&Vehicle{Dir: Eastbound, Lane: 2})
	eOuter := cfg.Position(&Vehicle{Dir: Eastbound, Lane: 0})
	if math.Abs(eInner.Y) >= math.Abs(eOuter.Y) {
		t.Errorf("lane2 |y|=%v should be < lane0 |y|=%v", math.Abs(eInner.Y), math.Abs(eOuter.Y))
	}
}

func TestHeadings(t *testing.T) {
	cfg := DefaultConfig(15)
	if got := cfg.Heading(&Vehicle{Dir: Eastbound}); math.Abs(float64(got)-math.Pi/2) > 1e-12 {
		t.Errorf("east heading = %v", got)
	}
	if got := cfg.Heading(&Vehicle{Dir: Westbound}); math.Abs(float64(got)-3*math.Pi/2) > 1e-12 {
		t.Errorf("west heading = %v", got)
	}
}

func TestBodyFootprint(t *testing.T) {
	cfg := DefaultConfig(15)
	v := &Vehicle{Dir: Eastbound, Lane: 1, S: 500}
	body := cfg.Body(v)
	if body.HalfLen != cfg.VehicleLength/2 || body.HalfWid != cfg.VehicleWidth/2 {
		t.Errorf("body extents %v x %v", body.HalfLen, body.HalfWid)
	}
	center := cfg.Position(v)
	// The body must contain its center and a point near the front bumper.
	if !body.ContainsPoint(center) {
		t.Error("body does not contain center")
	}
	front := geom.Vec{X: center.X + cfg.VehicleLength/2 - 0.1, Y: center.Y}
	if !body.ContainsPoint(front) {
		t.Error("body does not contain front bumper point")
	}
}

func TestWrap(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {1000, 0}, {1500, 500}, {-100, 900}, {2300, 300},
	}
	for _, tt := range tests {
		if got := wrap(tt.in, 1000); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("wrap(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

// wrapMod is wrap as first written, calling math.Mod unconditionally: the
// plain reference for the fast path's differential test.
func wrapMod(s, length float64) float64 {
	s = math.Mod(s, length)
	if s < 0 {
		s += length
	}
	return s
}

// TestWrapMatchesModForm checks bit for bit that skipping math.Mod for
// |s| < length changes nothing: at signed zeros and subnormals, one ulp
// either side of ±length, at huge and non-finite arc positions, and over
// random positions in and out of (−length, length), for the road's length
// and an irregular segment length.
func TestWrapMatchesModForm(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, length := range []float64{1000, 487.3} {
		edges := []float64{
			0, math.Copysign(0, -1), tiny, -tiny, length / 2, -length / 2,
			math.Nextafter(length, 0), length, math.Nextafter(length, math.Inf(1)),
			math.Nextafter(-length, 0), -length, math.Nextafter(-length, math.Inf(-1)),
			3 * length, -3 * length, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
		}
		same := func(s float64) bool {
			got, want := wrap(s, length), wrapMod(s, length)
			return math.Float64bits(got) == math.Float64bits(want) ||
				(math.IsNaN(got) && math.IsNaN(want))
		}
		for _, s := range edges {
			if !same(s) {
				t.Errorf("wrap(%v, %v) = %v, Mod form %v", s, length, wrap(s, length), wrapMod(s, length))
			}
		}
		f := func(s float64) bool { return same(s) && same(math.Mod(s, 4*length)) }
		if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	}
}

func TestZeroDtStepIsNoop(t *testing.T) {
	r := newRoad(t, 10, 9)
	s0 := r.Vehicles()[0].S
	r.Step(0)
	if r.Vehicles()[0].S != s0 || r.Elapsed() != 0 {
		t.Error("Step(0) mutated state")
	}
}

func TestFasterInnerLanes(t *testing.T) {
	// After settling, mean speed should increase with lane index.
	r := newRoad(t, 20, 17)
	for i := 0; i < 6000; i++ {
		r.Step(0.005)
	}
	var sum [3]float64
	var n [3]int
	for _, v := range r.Vehicles() {
		sum[v.Lane] += v.V
		n[v.Lane]++
	}
	for lane := 0; lane < 2; lane++ {
		if n[lane] == 0 || n[lane+1] == 0 {
			continue
		}
		if sum[lane]/float64(n[lane]) >= sum[lane+1]/float64(n[lane+1])+2 {
			t.Errorf("lane %d mean speed not below lane %d", lane, lane+1)
		}
	}
}

func TestTruckGeneration(t *testing.T) {
	cfg := DefaultConfig(20)
	cfg.TruckFraction = 0.3
	r, err := New(cfg, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	trucks := 0
	for _, v := range r.Vehicles() {
		if v.Class != ClassTruck {
			continue
		}
		trucks++
		if v.Lane >= 2 {
			t.Errorf("truck %d generated in fast lane %d", v.ID, v.Lane)
		}
		if v.DesiredV > cfg.TruckMaxSpeed {
			t.Errorf("truck %d desired speed %v above cap", v.ID, v.DesiredV)
		}
	}
	total := r.NumVehicles()
	want := int(float64(total) * cfg.TruckFraction)
	if trucks < want/2 || trucks > want*2 {
		t.Errorf("trucks = %d of %d, want ≈%d", trucks, total, want)
	}
}

func TestTrucksStayInLaneZero(t *testing.T) {
	cfg := DefaultConfig(25)
	cfg.TruckFraction = 0.2
	r, err := New(cfg, xrand.New(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6000; i++ { // 30 s
		r.Step(0.005)
	}
	start := map[int]int{}
	for _, v := range r.Vehicles() {
		start[v.ID] = v.Lane
	}
	for i := 0; i < 2000; i++ {
		r.Step(0.005)
	}
	for _, v := range r.Vehicles() {
		if v.Class == ClassTruck && v.Lane != start[v.ID] {
			t.Errorf("truck %d changed lanes", v.ID)
		}
	}
}

func TestTruckDimensions(t *testing.T) {
	cfg := DefaultConfig(10)
	car := &Vehicle{Class: ClassCar}
	truck := &Vehicle{Class: ClassTruck}
	zero := &Vehicle{} // hand-built vehicles default to car bodies
	if l, w := cfg.Dimensions(car); l != 4.6 || w != 1.8 {
		t.Errorf("car dims = %v×%v", l, w)
	}
	if l, w := cfg.Dimensions(truck); l != 16 || w != 2.5 {
		t.Errorf("truck dims = %v×%v", l, w)
	}
	if l, _ := cfg.Dimensions(zero); l != 4.6 {
		t.Errorf("zero-class dims = %v", l)
	}
	body := cfg.Body(&Vehicle{Class: ClassTruck, Dir: Eastbound, Lane: 0, S: 100})
	if body.HalfLen != 8 || body.HalfWid != 1.25 {
		t.Errorf("truck body = %+v", body)
	}
}

func TestTruckFractionValidate(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.TruckFraction = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("fraction > 1 should fail")
	}
	cfg = DefaultConfig(10)
	cfg.TruckFraction = 0.2
	cfg.TruckLength = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero truck length with trucks enabled should fail")
	}
}
