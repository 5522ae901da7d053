package world

import (
	"math"
	"slices"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/units"
)

// pointFleet is a hand-built fleet: cars standing still at set positions,
// all heading north.
type pointFleet struct {
	pos      []geom.Vec
	min, max geom.Vec
}

func (f *pointFleet) Step(float64)     {}
func (f *pointFleet) NumVehicles() int { return len(f.pos) }
func (f *pointFleet) Elapsed() float64 { return 0 }
func (f *pointFleet) Pose(i int) (geom.Vec, geom.Bearing, units.MeterPerSec) {
	return f.pos[i], 0, 0
}
func (f *pointFleet) BodyDims(int) (float64, float64) { return 4.5, 1.8 }
func (f *pointFleet) Bounds() (geom.Vec, geom.Vec)    { return f.min, f.max }

// edge returns the points nearest pa + r·(ux, uy) on either side of range r
// by Dist from pa: in, the last with Dist ≤ r, and out, the first beyond
// it, one ulp apart in the coordinate along which (ux, uy) is larger.
func edge(pa geom.Vec, ux, uy, r float64) (in, out geom.Vec) {
	p := geom.Vec{X: pa.X + r*ux, Y: pa.Y + r*uy}
	step := func(p geom.Vec, away bool) geom.Vec {
		if math.Abs(ux) >= math.Abs(uy) {
			p.X = math.Nextafter(p.X, math.Copysign(math.Inf(1), ux*boolSign(away)))
		} else {
			p.Y = math.Nextafter(p.Y, math.Copysign(math.Inf(1), uy*boolSign(away)))
		}
		return p
	}
	for pa.Dist(p).M() > r {
		p = step(p, false)
	}
	for pa.Dist(p).M() <= r {
		p = step(p, true)
	}
	return step(p, false), p
}

func boolSign(b bool) float64 {
	if b {
		return 1
	}
	return -1
}

// boundaryPairs lays out isolated pairs of cars, 1 km apart along x so no
// two pairs interact, whose second member sits on a range boundary of cfg
// as seen from the first: exactly at InterferenceRange and CommRange along
// an axis and one ulp of the coordinate on either side; the last and first
// representable points inside and beyond each range along twelve
// directions, and along up to eight more where the squared distance puts
// the point on the other side of the range than Dist does; and co-located
// cars, at the same coordinates and one ulp apart. It also returns how
// many (pair, range) cases the squared distance and Dist disagree on.
func boundaryPairs(cfg Config) (pos []geom.Vec, disagree int) {
	origin := func() geom.Vec {
		k := float64(len(pos) / 2)
		return geom.Vec{X: 1000*k + 0.37, Y: 1000.3 + 0.41*k}
	}
	add := func(a, b geom.Vec) { pos = append(pos, a, b) }
	disagrees := func(a, b geom.Vec, r float64) bool {
		dx, dy := b.X-a.X, b.Y-a.Y
		return (dx*dx+dy*dy <= r*r) != (a.Dist(b).M() <= r)
	}
	ranges := []float64{cfg.InterferenceRange.M(), cfg.CommRange.M()}
	for _, r := range ranges {
		for _, toward := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			a := origin()
			b := geom.Vec{X: a.X + r, Y: a.Y}
			if !math.IsNaN(toward) {
				b.X = math.Nextafter(b.X, toward)
			}
			add(a, b)
		}
		a := origin()
		add(a, geom.Vec{X: a.X, Y: a.Y - r})
		picked := 0
		for k := 0; k < 720; k++ {
			theta := float64(k) * math.Pi / 360
			for _, beyond := range []bool{false, true} {
				a := origin()
				b, out := edge(a, math.Cos(theta), math.Sin(theta), r)
				if beyond {
					b = out
				}
				if k%60 == 0 {
					add(a, b)
				} else if picked < 8 && disagrees(a, b, r) {
					add(a, b)
					picked++
				}
			}
		}
	}
	a := origin()
	add(a, a)
	a = origin()
	add(a, geom.Vec{X: a.X, Y: math.Nextafter(a.Y, math.Inf(1))})
	for k := 0; k < len(pos); k += 2 {
		for _, r := range ranges {
			if disagrees(pos[k], pos[k+1], r) {
				disagree++
			}
		}
	}
	return pos, disagree
}

// TestLazyDistanceAtRangeBoundaries holds a refresh's squared-distance
// range decisions (the count and write passes' inRange, the neighbor
// derivation's beyond) and complete's lazily computed Dist to the full
// recount, which takes one Hypot per pair and decides by it. The pairs lie
// on the edges of both ranges, and some cars are co-located. One world is
// built on the layout, so its pairs are read from the Verlet lists, and is
// refreshed again in place; the other is built with every second car
// parked 5 m north of its partner and then refreshed on the layout, so
// those cars are loose and their pairs found by the cell scans. After each
// refresh the neighbor sets are derived with every entry pending, then the
// whole table is compared field for field with the recount's.
func TestLazyDistanceAtRangeBoundaries(t *testing.T) {
	odd := DefaultConfig()
	odd.InterferenceRange, odd.CommRange = 101.3, 37.7
	for _, cfg := range []Config{DefaultConfig(), odd} {
		layout, disagree := boundaryPairs(cfg)
		n := len(layout)
		if disagree < 8 {
			t.Fatalf("ranges %v/%v: the squared distance and Dist disagree on %d cases, want at least 8",
				cfg.InterferenceRange, cfg.CommRange, disagree)
		}
		bounds := func(pos []geom.Vec) *pointFleet {
			return &pointFleet{pos: pos, min: geom.Vec{X: -500, Y: 500},
				max: geom.Vec{X: 1000*float64(n/2) + 500, Y: 1000.3 + 0.41*float64(n/2) + 500}}
		}
		ref, err := New(cfg, bounds(layout))
		if err != nil {
			t.Fatal(err)
		}
		var tab refTable
		refRefresh(ref, &tab)

		listed, err := New(cfg, bounds(layout))
		if err != nil {
			t.Fatal(err)
		}
		checkBoundaryWorld(t, "listed, built", listed, &tab)
		listed.Refresh()
		listed.NeighborSnapshot()
		if listed.nLoose != 0 {
			t.Fatalf("listed world: %d cars loose, want none", listed.nLoose)
		}
		checkBoundaryWorld(t, "listed, refreshed", listed, &tab)

		parked := slices.Clone(layout)
		for k := 0; k < n; k += 2 {
			parked[k+1] = parked[k].Add(geom.Vec{Y: 5})
		}
		fleet := bounds(parked)
		loose, err := New(cfg, fleet)
		if err != nil {
			t.Fatal(err)
		}
		fleet.pos = layout
		loose.Refresh()
		loose.NeighborSnapshot()
		if loose.nLoose != n/2 || loose.recounted == 0 {
			t.Fatalf("loose world: %d cars loose, %d pairs recounted; want %d loose and no rebuild",
				loose.nLoose, loose.recounted, n/2)
		}
		checkBoundaryWorld(t, "loose", loose, &tab)
	}
}

// checkBoundaryWorld compares a boundary layout's world, its neighbor sets
// already derived, with the full recount, then requires every pair within
// InterferenceRange by Dist, and only those, in the table, and pairs on
// both sides of both ranges.
func checkBoundaryWorld(t *testing.T, name string, w *World, tab *refTable) {
	t.Helper()
	for i, want := range tab.neighbors {
		if got := w.Neighbors(i); !slices.Equal(got, want) {
			t.Fatalf("%s: car %d derived neighbors %v, full recount %v", name, i, got, want)
		}
	}
	compareTables(t, 0, w, tab)
	in, neighbors := 0, 0
	for k := 0; k < w.n; k += 2 {
		d := w.pos[k].Dist(w.pos[k+1])
		_, ok := w.Link(k, k+1)
		if want := d > 0 && d <= w.cfg.InterferenceRange; ok != want {
			t.Fatalf("%s: pair %d–%d at Dist %v in the table: %v", name, k, k+1, d, ok)
		}
		if ok {
			in++
		}
		if len(w.Neighbors(k)) > 0 {
			neighbors++
		}
	}
	if in == 0 || in == w.n/2 || neighbors == 0 || neighbors == in {
		t.Fatalf("%s: %d of %d pairs in the table, %d of them neighbors; the layout must put pairs on both sides of both ranges",
			name, in, w.n/2, neighbors)
	}
}
