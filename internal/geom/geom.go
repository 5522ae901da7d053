// Package geom provides the 2-D geometric primitives used throughout the
// simulator: points/vectors in road coordinates, compass bearings, sector
// arithmetic for beam sweeping, and segment/rectangle intersection tests for
// line-of-sight blockage checks.
//
// Coordinate convention: x grows east (along the road), y grows north.
// Compass bearings follow GPS convention: 0 rad points north (+y) and angles
// grow clockwise, so east (+x) is +π/2. This matches the paper's sector
// indexing, which starts at north and proceeds clockwise.
package geom

import (
	"math"

	"mmv2v/internal/units"
)

// Vec is a 2-D point or displacement in meters.
type Vec struct {
	X float64
	Y float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s} }

// Dot returns the dot product of v and w.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y }

// Cross returns the z-component of the 3-D cross product v × w.
func (v Vec) Cross(w Vec) float64 { return v.X*w.Y - v.Y*w.X }

// Norm returns the Euclidean length of v.
func (v Vec) Norm() units.Meter { return units.Meter(math.Hypot(v.X, v.Y)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec) Dist(w Vec) units.Meter { return units.Meter(math.Hypot(v.X-w.X, v.Y-w.Y)) }

// Bearing is a compass bearing in radians: 0 is north, clockwise positive,
// normalized to [0, 2π).
type Bearing float64

// BearingTo returns the compass bearing of the direction from v to w.
func (v Vec) BearingTo(w Vec) Bearing {
	d := w.Sub(v)
	return NormalizeBearing(Bearing(math.Atan2(d.X, d.Y)))
}

// NormalizeBearing maps b into [0, 2π).
func NormalizeBearing(b Bearing) Bearing {
	r := float64(b)
	// math.Mod returns its argument unchanged when |r| < 2π — always the
	// case for atan2 results and for a normalized bearing plus π — so only
	// call it otherwise (±Inf and NaN included).
	if !(r > -2*math.Pi && r < 2*math.Pi) {
		r = math.Mod(r, 2*math.Pi)
	}
	if r < 0 {
		r += 2 * math.Pi
	}
	return Bearing(r)
}

// AngleDiff returns the signed smallest rotation from bearing a to bearing b,
// in (-π, π]. Positive means b is clockwise of a.
func AngleDiff(a, b Bearing) units.Radian {
	d := float64(b - a)
	// math.Mod returns its argument unchanged when |d| < 2π — always the
	// case for two normalized bearings — so only call it otherwise (±Inf
	// and NaN included).
	if !(d > -2*math.Pi && d < 2*math.Pi) {
		d = math.Mod(d, 2*math.Pi)
	}
	switch {
	case d > math.Pi:
		d -= 2 * math.Pi
	case d <= -math.Pi:
		d += 2 * math.Pi
	}
	return units.Radian(d)
}

// AbsAngleDiff returns the absolute smallest angle between two bearings,
// in [0, π].
func AbsAngleDiff(a, b Bearing) units.Radian {
	return units.Radian(math.Abs(AngleDiff(a, b).Rad()))
}

// Deg converts degrees to radians.
func Deg(deg float64) units.Radian { return units.Degrees(deg) }

// ToDeg converts radians to degrees.
func ToDeg(rad units.Radian) float64 { return rad.Deg() }

// Sectors describes an equal division of the horizon into S sectors indexed
// clockwise from north, as used by the paper's synchronized sector sweep:
// sector 0 is centered on north and sector i is centered on i·(360°/S).
type Sectors struct {
	// Count is the number of sectors S; must be positive and even for the
	// paper's 180° opposite-sector rule to be exact.
	Count int
}

// Pitch returns the angular interval θ = 2π/S between consecutive sectors.
func (s Sectors) Pitch() units.Radian { return units.Radian(2 * math.Pi / float64(s.Count)) }

// Center returns the compass bearing of the center of sector i.
func (s Sectors) Center(i int) Bearing {
	return NormalizeBearing(Bearing(float64(i) * s.Pitch().Rad()))
}

// Opposite returns the index of the sector 180° away from sector i, i.e.
// (i + S/2) mod S — the paper's synchronized sensing sector.
func (s Sectors) Opposite(i int) int { return (i + s.Count/2) % s.Count }

// FromBearing returns the index of the sector whose center is nearest to b.
func (s Sectors) FromBearing(b Bearing) int {
	pitch := s.Pitch().Rad()
	i := int(math.Round(float64(NormalizeBearing(b)) / pitch))
	return i % s.Count
}

// Contains reports whether bearing b falls within ±width/2 of the center of
// sector i.
func (s Sectors) Contains(i int, b Bearing, width units.Radian) bool {
	return AbsAngleDiff(s.Center(i), b) <= width/2
}

// Rect is an oriented rectangle: a center, a heading (compass bearing of the
// +length axis), and half-extents. It models a vehicle body footprint.
type Rect struct {
	Center  Vec
	Heading Bearing
	// HalfLen is half the body length (meters) along the heading.
	HalfLen float64
	// HalfWid is half the body width (meters) across the heading.
	HalfWid float64
}

// Corners returns the four corners of the rectangle in order.
func (r Rect) Corners() [4]Vec {
	// Heading is a compass bearing; the unit vector along the heading is
	// (sin h, cos h) and the left-normal is (-cos h, sin h).
	sh, ch := math.Sincos(float64(r.Heading))
	fwd := Vec{sh, ch}.Scale(r.HalfLen)
	side := Vec{ch, -sh}.Scale(r.HalfWid)
	return [4]Vec{
		r.Center.Add(fwd).Add(side),
		r.Center.Add(fwd).Sub(side),
		r.Center.Sub(fwd).Sub(side),
		r.Center.Sub(fwd).Add(side),
	}
}

// ContainsPoint reports whether p lies inside (or on the edge of) r.
func (r Rect) ContainsPoint(p Vec) bool {
	sh, ch := math.Sincos(float64(r.Heading))
	d := p.Sub(r.Center)
	along := d.X*sh + d.Y*ch
	across := d.X*ch - d.Y*sh
	return math.Abs(along) <= r.HalfLen+1e-12 && math.Abs(across) <= r.HalfWid+1e-12
}

// SegmentIntersectsRect reports whether the open segment a–b crosses the
// rectangle r. Endpoints that merely touch the rectangle boundary count as
// intersecting; callers exclude the transmitter's and receiver's own bodies
// before invoking this.
func SegmentIntersectsRect(a, b Vec, r Rect) bool {
	f := NewBodyFrame(r)
	return f.SegmentIntersects(a, b)
}

// BodyFrame caches the trigonometric frame and corners of a Rect for
// repeated segment-intersection queries against the same body — the
// blockage hot path tests every candidate body against many LOS segments
// per snapshot, and recomputing sincos per query dominates otherwise. The
// cached values are produced by exactly the arithmetic Rect.Corners and
// Rect.ContainsPoint use, so query results are identical to the one-shot
// SegmentIntersectsRect.
type BodyFrame struct {
	center           Vec
	sh, ch           float64
	halfLen, halfWid float64
	corners          [4]Vec
}

// NewBodyFrame precomputes the query frame of r.
func NewBodyFrame(r Rect) BodyFrame {
	sh, ch := math.Sincos(float64(r.Heading))
	fwd := Vec{sh, ch}.Scale(r.HalfLen)
	side := Vec{ch, -sh}.Scale(r.HalfWid)
	return BodyFrame{
		center:  r.Center,
		sh:      sh,
		ch:      ch,
		halfLen: r.HalfLen,
		halfWid: r.HalfWid,
		corners: [4]Vec{
			r.Center.Add(fwd).Add(side),
			r.Center.Add(fwd).Sub(side),
			r.Center.Sub(fwd).Sub(side),
			r.Center.Sub(fwd).Add(side),
		},
	}
}

// ContainsPoint reports whether p lies inside (or on the edge of) the body,
// with the same tolerance as Rect.ContainsPoint.
func (f *BodyFrame) ContainsPoint(p Vec) bool {
	d := p.Sub(f.center)
	along := d.X*f.sh + d.Y*f.ch
	across := d.X*f.ch - d.Y*f.sh
	return math.Abs(along) <= f.halfLen+1e-12 && math.Abs(across) <= f.halfWid+1e-12
}

// SegmentIntersects reports whether the segment a–b crosses the body; it is
// SegmentIntersectsRect over the precomputed frame.
func (f *BodyFrame) SegmentIntersects(a, b Vec) bool {
	if f.ContainsPoint(a) || f.ContainsPoint(b) {
		return true
	}
	c := &f.corners
	return segmentsIntersect(a, b, c[0], c[1]) ||
		segmentsIntersect(a, b, c[1], c[2]) ||
		segmentsIntersect(a, b, c[2], c[3]) ||
		segmentsIntersect(a, b, c[3], c[0])
}

// segmentsIntersect reports whether segments p1–p2 and p3–p4 intersect,
// including collinear-overlap and endpoint-touch cases.
func segmentsIntersect(p1, p2, p3, p4 Vec) bool {
	d1 := direction(p3, p4, p1)
	d2 := direction(p3, p4, p2)
	d3 := direction(p1, p2, p3)
	d4 := direction(p1, p2, p4)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	// Collinear endpoints: an exactly-zero cross product is the standard
	// computational-geometry degeneracy test, not a tolerance compare.
	switch {
	case d1 == 0 && onSegment(p3, p4, p1): //mmv2v:exact zero cross product = exact collinearity
		return true
	case d2 == 0 && onSegment(p3, p4, p2): //mmv2v:exact zero cross product = exact collinearity
		return true
	case d3 == 0 && onSegment(p1, p2, p3): //mmv2v:exact zero cross product = exact collinearity
		return true
	case d4 == 0 && onSegment(p1, p2, p4): //mmv2v:exact zero cross product = exact collinearity
		return true
	}
	return false
}

func direction(a, b, c Vec) float64 { return b.Sub(a).Cross(c.Sub(a)) }

func onSegment(a, b, p Vec) bool {
	return math.Min(a.X, b.X)-1e-12 <= p.X && p.X <= math.Max(a.X, b.X)+1e-12 &&
		math.Min(a.Y, b.Y)-1e-12 <= p.Y && p.Y <= math.Max(a.Y, b.Y)+1e-12
}
