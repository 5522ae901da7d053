package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVecBasicOps(t *testing.T) {
	v := Vec{3, 4}
	w := Vec{-1, 2}
	if got := v.Add(w); got != (Vec{2, 6}) {
		t.Errorf("Add = %v, want {2 6}", got)
	}
	if got := v.Sub(w); got != (Vec{4, 2}) {
		t.Errorf("Sub = %v, want {4 2}", got)
	}
	if got := v.Scale(2); got != (Vec{6, 8}) {
		t.Errorf("Scale = %v, want {6 8}", got)
	}
	if got := v.Dot(w); got != 5 {
		t.Errorf("Dot = %v, want 5", got)
	}
	if got := v.Cross(w); got != 10 {
		t.Errorf("Cross = %v, want 10", got)
	}
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.Dist(Vec{0, 0}); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestBearingTo(t *testing.T) {
	origin := Vec{0, 0}
	tests := []struct {
		name string
		to   Vec
		want float64 // radians
	}{
		{"north", Vec{0, 1}, 0},
		{"east", Vec{1, 0}, math.Pi / 2},
		{"south", Vec{0, -1}, math.Pi},
		{"west", Vec{-1, 0}, 3 * math.Pi / 2},
		{"northeast", Vec{1, 1}, math.Pi / 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := float64(origin.BearingTo(tt.to))
			if !almostEq(got, tt.want, 1e-12) {
				t.Errorf("BearingTo(%v) = %v, want %v", tt.to, got, tt.want)
			}
		})
	}
}

func TestNormalizeBearing(t *testing.T) {
	tests := []struct {
		in, want float64
	}{
		{0, 0},
		{2 * math.Pi, 0},
		{-math.Pi / 2, 3 * math.Pi / 2},
		{5 * math.Pi, math.Pi},
		{7 * math.Pi / 2, 3 * math.Pi / 2},
	}
	for _, tt := range tests {
		if got := float64(NormalizeBearing(Bearing(tt.in))); !almostEq(got, tt.want, 1e-12) {
			t.Errorf("NormalizeBearing(%v) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct {
		a, b, want float64
	}{
		{0, math.Pi / 2, math.Pi / 2},
		{math.Pi / 2, 0, -math.Pi / 2},
		{0, math.Pi, math.Pi},
		{3 * math.Pi / 2, 0, math.Pi / 2},  // wrap clockwise
		{0, 3 * math.Pi / 2, -math.Pi / 2}, // wrap counterclockwise
		{0.1, 2*math.Pi - 0.1, -0.2},       // near-wrap
	}
	for _, tt := range tests {
		if got := AngleDiff(Bearing(tt.a), Bearing(tt.b)); !almostEq(got.Rad(), tt.want, 1e-12) {
			t.Errorf("AngleDiff(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

// angleDiffMod is AngleDiff as first written, calling math.Mod
// unconditionally: the plain reference for the fast path's differential test.
func angleDiffMod(a, b Bearing) float64 {
	d := math.Mod(float64(b-a), 2*math.Pi)
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return d
}

// TestAngleDiffMatchesModForm checks bit for bit that skipping math.Mod for
// |b−a| < 2π changes nothing: around the ±2π boundary, at signed zeros and
// non-finite inputs, and over random bearings in and out of [0, 2π).
func TestAngleDiffMatchesModForm(t *testing.T) {
	twoPi := 2 * math.Pi
	edges := []float64{
		0, math.Copysign(0, -1), math.Pi, -math.Pi, twoPi, -twoPi,
		math.Nextafter(twoPi, 0), math.Nextafter(twoPi, 10),
		math.Nextafter(-twoPi, 0), math.Nextafter(-twoPi, -10),
		3 * math.Pi, -3 * math.Pi, 1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	same := func(a, b Bearing) bool {
		got, want := AngleDiff(a, b).Rad(), angleDiffMod(a, b)
		return math.Float64bits(got) == math.Float64bits(want) ||
			(math.IsNaN(got) && math.IsNaN(want))
	}
	for _, d := range edges {
		for _, a := range []float64{0, 1, math.Pi} {
			if !same(Bearing(a), Bearing(a+d)) {
				t.Errorf("AngleDiff(%v, %v) = %v, Mod form %v", a, a+d,
					AngleDiff(Bearing(a), Bearing(a+d)), angleDiffMod(Bearing(a), Bearing(a+d)))
			}
		}
	}
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 20), math.Mod(b, 20)
		return same(Bearing(a), Bearing(b)) &&
			same(NormalizeBearing(Bearing(a)), NormalizeBearing(Bearing(b)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

// normalizeBearingMod is NormalizeBearing as first written, calling
// math.Mod unconditionally: the plain reference for the fast path's
// differential test.
func normalizeBearingMod(b Bearing) float64 {
	r := math.Mod(float64(b), 2*math.Pi)
	if r < 0 {
		r += 2 * math.Pi
	}
	return r
}

// TestNormalizeBearingMatchesModForm checks bit for bit that skipping
// math.Mod for |b| < 2π changes nothing: at signed zeros and subnormals,
// one ulp either side of ±2π, at huge and non-finite inputs, and over
// random bearings in and out of (−2π, 2π).
func TestNormalizeBearingMatchesModForm(t *testing.T) {
	twoPi := 2 * math.Pi
	tiny := math.SmallestNonzeroFloat64
	edges := []float64{
		0, math.Copysign(0, -1), tiny, -tiny, math.Pi, -math.Pi,
		math.Nextafter(twoPi, 0), twoPi, math.Nextafter(twoPi, 10),
		math.Nextafter(-twoPi, 0), -twoPi, math.Nextafter(-twoPi, -10),
		3 * math.Pi, -3 * math.Pi, 1e300, -1e300, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	same := func(b float64) bool {
		got, want := float64(NormalizeBearing(Bearing(b))), normalizeBearingMod(Bearing(b))
		return math.Float64bits(got) == math.Float64bits(want) ||
			(math.IsNaN(got) && math.IsNaN(want))
	}
	for _, b := range edges {
		if !same(b) {
			t.Errorf("NormalizeBearing(%v) = %v, Mod form %v", b,
				NormalizeBearing(Bearing(b)), normalizeBearingMod(Bearing(b)))
		}
	}
	f := func(b float64) bool { return same(b) && same(math.Mod(b, 20)) }
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestAngleDiffProperties(t *testing.T) {
	// AngleDiff is always in (-π, π] and adding it to a recovers b.
	f := func(a, b float64) bool {
		a = math.Mod(a, 1000)
		b = math.Mod(b, 1000)
		d := AngleDiff(NormalizeBearing(Bearing(a)), NormalizeBearing(Bearing(b)))
		if d <= -math.Pi || d > math.Pi+1e-9 {
			return false
		}
		got := NormalizeBearing(Bearing(a + d.Rad()))
		want := NormalizeBearing(Bearing(b))
		return AbsAngleDiff(got, want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSectors(t *testing.T) {
	s := Sectors{Count: 24}
	if got := s.Pitch(); !almostEq(got.Rad(), Deg(15).Rad(), 1e-12) {
		t.Errorf("Pitch = %v, want 15°", ToDeg(got))
	}
	if got := float64(s.Center(0)); got != 0 {
		t.Errorf("Center(0) = %v, want 0", got)
	}
	if got := float64(s.Center(6)); !almostEq(got, math.Pi/2, 1e-12) {
		t.Errorf("Center(6) = %v, want π/2", got)
	}
	if got := s.Opposite(0); got != 12 {
		t.Errorf("Opposite(0) = %d, want 12", got)
	}
	if got := s.Opposite(20); got != 8 {
		t.Errorf("Opposite(20) = %d, want 8", got)
	}
}

func TestSectorsFromBearingRoundTrip(t *testing.T) {
	s := Sectors{Count: 24}
	for i := 0; i < s.Count; i++ {
		if got := s.FromBearing(s.Center(i)); got != i {
			t.Errorf("FromBearing(Center(%d)) = %d", i, got)
		}
	}
	// A bearing slightly clockwise of a center still maps to that sector.
	if got := s.FromBearing(s.Center(3) + Bearing(Deg(7))); got != 3 {
		t.Errorf("FromBearing(center3+7°) = %d, want 3", got)
	}
	if got := s.FromBearing(s.Center(3) + Bearing(Deg(8))); got != 4 {
		t.Errorf("FromBearing(center3+8°) = %d, want 4", got)
	}
}

func TestSectorsOppositeIsInvolution(t *testing.T) {
	f := func(count uint8, i uint16) bool {
		c := 2 * (int(count)%32 + 1) // even, 2..64
		s := Sectors{Count: c}
		idx := int(i) % c
		return s.Opposite(s.Opposite(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSectorsContains(t *testing.T) {
	s := Sectors{Count: 24}
	if !s.Contains(0, Bearing(Deg(10)), Deg(30)) {
		t.Error("10° should be inside a 30° beam on sector 0")
	}
	if s.Contains(0, Bearing(Deg(20)), Deg(30)) {
		t.Error("20° should be outside a 30° beam on sector 0")
	}
	if !s.Contains(0, Bearing(Deg(350)), Deg(30)) {
		t.Error("350° should be inside a 30° beam on sector 0 (wraparound)")
	}
}

func TestRectCorners(t *testing.T) {
	// A car heading north: length axis along +y.
	r := Rect{Center: Vec{0, 0}, Heading: 0, HalfLen: 2, HalfWid: 1}
	c := r.Corners()
	wantXs := map[float64]int{}
	wantYs := map[float64]int{}
	for _, p := range c {
		wantXs[math.Round(p.X)]++
		wantYs[math.Round(p.Y)]++
	}
	if wantXs[1] != 2 || wantXs[-1] != 2 || wantYs[2] != 2 || wantYs[-2] != 2 {
		t.Errorf("Corners = %v", c)
	}
}

func TestRectContainsPoint(t *testing.T) {
	// Heading east: length axis along +x.
	r := Rect{Center: Vec{10, 0}, Heading: Bearing(math.Pi / 2), HalfLen: 2.3, HalfWid: 0.9}
	tests := []struct {
		p    Vec
		want bool
	}{
		{Vec{10, 0}, true},
		{Vec{12.2, 0}, true},
		{Vec{12.4, 0}, false},
		{Vec{10, 0.85}, true},
		{Vec{10, 1.0}, false},
		{Vec{7.6, -0.85}, false}, // corner region outside
	}
	for _, tt := range tests {
		if got := r.ContainsPoint(tt.p); got != tt.want {
			t.Errorf("ContainsPoint(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	blocker := Rect{Center: Vec{50, 0}, Heading: Bearing(math.Pi / 2), HalfLen: 2.3, HalfWid: 0.9}
	tests := []struct {
		name string
		a, b Vec
		want bool
	}{
		{"straight through", Vec{0, 0}, Vec{100, 0}, true},
		{"parallel above", Vec{0, 5}, Vec{100, 5}, false},
		{"diagonal miss", Vec{0, 10}, Vec{100, 12}, false},
		{"diagonal hit", Vec{0, -5}, Vec{100, 5}, true},
		{"short of blocker", Vec{0, 0}, Vec{40, 0}, false},
		{"endpoint inside", Vec{50, 0}, Vec{100, 20}, true},
		{"clip corner", Vec{47.7, 2}, Vec{52.3, -2}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := SegmentIntersectsRect(tt.a, tt.b, blocker); got != tt.want {
				t.Errorf("SegmentIntersectsRect = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSegmentIntersectsRectSymmetry(t *testing.T) {
	// Swapping segment endpoints never changes the answer.
	r := Rect{Center: Vec{5, 5}, Heading: Bearing(1), HalfLen: 2, HalfWid: 1}
	f := func(ax, ay, bx, by float64) bool {
		a := Vec{math.Mod(ax, 20), math.Mod(ay, 20)}
		b := Vec{math.Mod(bx, 20), math.Mod(by, 20)}
		return SegmentIntersectsRect(a, b, r) == SegmentIntersectsRect(b, a, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDegToDegRoundTrip(t *testing.T) {
	f := func(d float64) bool {
		d = math.Mod(d, 1e6)
		return almostEq(ToDeg(Deg(d)), d, math.Abs(d)*1e-12+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
