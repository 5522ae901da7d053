package world

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// refTable is the pair table as the full recount builds it: one link slice
// and one neighbor set per vehicle.
type refTable struct {
	links     [][]Link
	neighbors [][]int
}

// refRefresh is Refresh before the Verlet lists, kept as the reference the
// lists must match: every refresh, each vehicle scans its cell neighborhood
// and takes the in-range partners of higher x-rank, every pair's blockers
// are counted in full by countBlockers, both entries are appended to
// per-vehicle slices, and each slice is then sorted by partner rank.
func refRefresh(w *World, t *refTable) {
	if t.links == nil {
		t.links, t.neighbors = make([][]Link, w.n), make([][]int, w.n)
	}
	w.loadPoses()
	w.sortOrderByX()
	for k, i := range w.order {
		w.rank[i] = int32(k)
	}
	for i := range t.links {
		t.links[i], t.neighbors[i] = t.links[i][:0], t.neighbors[i][:0]
	}
	maxDiag := w.rebuildGeometry()
	w.rebuildCells()
	rangeM := w.cfg.InterferenceRange.M()
	for a := 0; a < w.n; a++ {
		pa, ra := w.pos[a], w.rank[a]
		cx, cy := w.cellX(pa.X), w.cellY(pa.Y)
		x0, x1 := maxInt(cx-w.reach, 0), minInt(cx+w.reach, w.cellsX-1)
		y0, y1 := maxInt(cy-w.reach, 0), minInt(cy+w.reach, w.cellsY-1)
		for gy := y0; gy <= y1; gy++ {
			for gx := x0; gx <= x1; gx++ {
				for _, bi := range w.cell(gy*w.cellsX + gx) {
					b := int(bi)
					if w.rank[b] <= ra {
						continue
					}
					pb := w.pos[b]
					if pb.X-pa.X > rangeM || pa.X-pb.X > rangeM || pb.Y-pa.Y > rangeM || pa.Y-pb.Y > rangeM {
						continue
					}
					d := pa.Dist(pb)
					if d > w.cfg.InterferenceRange || d == 0 {
						continue
					}
					blockers := w.countBlockers(a, b, d.M(), maxDiag)
					gain := w.model.PathGainLin(d, blockers) * w.shadowFactor(a, b)
					if w.linkFault != nil {
						gain *= w.linkFault.LinkFactorLin(a, b)
					}
					bAB := pa.BearingTo(pb)
					bBA := geom.NormalizeBearing(bAB + geom.Bearing(math.Pi))
					t.links[a] = append(t.links[a], Link{J: int32(b), Blockers: int32(blockers), Dist: d,
						Bearing: bAB, BackBearing: bBA, PathGainLin: gain})
					t.links[b] = append(t.links[b], Link{J: int32(a), Blockers: int32(blockers), Dist: d,
						Bearing: bBA, BackBearing: bAB, PathGainLin: gain})
				}
			}
		}
	}
	for i, ls := range t.links {
		slices.SortFunc(ls, func(x, y Link) int { return cmp.Compare(w.rank[x.J], w.rank[y.J]) })
		for _, l := range ls {
			if l.Blockers == 0 && l.Dist <= w.cfg.CommRange {
				t.neighbors[i] = append(t.neighbors[i], int(l.J))
			}
		}
	}
}

// jumpFleet displaces chosen vehicles of a fleet: shift[i] is added to
// vehicle i's position from the refresh it is set on. Jumps of meters make
// vehicles loose at will, so a test can put a loose body on a listed pair's
// line of sight, take one off it, or carry a vehicle out of a partner's
// range.
type jumpFleet struct {
	traffic.Fleet
	shift []geom.Vec
}

func (f *jumpFleet) Pose(i int) (geom.Vec, geom.Bearing, units.MeterPerSec) {
	p, h, v := f.Fleet.Pose(i)
	return p.Add(f.shift[i]), h, v
}

// pairFault is an order-sensitive LinkFault: a pure hash of (a, b, refresh)
// attenuates about one pair in five, so a pair evaluated from the wrong
// side gets a different gain.
type pairFault struct{ refresh *int }

func (f pairFault) LinkFactorLin(a, b int) float64 {
	h := xrand.Mix(0xfa17, uint64(a), uint64(b), uint64(*f.refresh))
	if h%5 != 0 {
		return 1
	}
	return 0.01 + float64(h%1000)/1e4
}

// diffCase is one world of the differential test.
type diffCase struct {
	name      string
	short     bool // in the -short subset
	refreshes int
	steps     int     // fleet steps per refresh
	dt        float64 // seconds per step
	fleet     func() traffic.Fleet
	cfg       Config
	fault     bool
}

func roadFleet(density, trucks float64, seed uint64) func() traffic.Fleet {
	return func() traffic.Fleet {
		tc := traffic.DefaultConfig(density)
		tc.TruckFraction = trucks
		road, err := traffic.New(tc, xrand.New(seed))
		if err != nil {
			panic(err)
		}
		for k := 0; k < 200; k++ {
			road.Step(0.005)
		}
		return road
	}
}

func gridFleet(rows, cols, vehicles int, seed uint64) func() traffic.Fleet {
	return func() traffic.Fleet {
		g := traffic.DefaultGridConfig(vehicles)
		g.Rows, g.Cols = rows, cols
		nw, err := traffic.NewNetwork(g.Network(), xrand.New(seed))
		if err != nil {
			panic(err)
		}
		return nw
	}
}

func diffCases() []diffCase {
	shadowed := DefaultConfig()
	shadowed.Channel.ShadowSigmaDB = 4
	shadowed.ShadowSeed = 9
	short := DefaultConfig()
	short.InterferenceRange, short.CommRange = 120, 60
	return []diffCase{
		{name: "road15", short: true, refreshes: 800, steps: 1, dt: 0.005, fleet: roadFleet(15, 0, 1), cfg: DefaultConfig()},
		{name: "road30", refreshes: 150, steps: 1, dt: 0.005, fleet: roadFleet(30, 0, 2), cfg: DefaultConfig()},
		{name: "road60", refreshes: 30, steps: 1, dt: 0.005, fleet: roadFleet(60, 0, 3), cfg: DefaultConfig()},
		{name: "road30trucks", refreshes: 120, steps: 1, dt: 0.005, fleet: roadFleet(30, 0.3, 4), cfg: DefaultConfig()},
		{name: "road20fault", short: true, refreshes: 300, steps: 1, dt: 0.005, fleet: roadFleet(20, 0, 5), cfg: shadowed, fault: true},
		{name: "grid300", refreshes: 200, steps: 4, dt: 0.005, fleet: gridFleet(3, 3, 300, 6), cfg: DefaultConfig()},
		{name: "grid1k", refreshes: 40, steps: 4, dt: 0.005, fleet: gridFleet(4, 4, 1000, 7), cfg: DefaultConfig()},
		{name: "grid50ms", short: true, refreshes: 400, steps: 1, dt: 0.05, fleet: gridFleet(3, 3, 200, 8), cfg: short},
	}
}

// TestRefreshMatchesFullRecount steps two identical fleets, one under the
// Verlet-list Refresh and one under the full recount, and after every
// refresh compares every Link field bit for bit and every neighbor set. The
// worlds cover the road at three densities, trucks, shadowing with a link
// fault, grids stepped several times per refresh and a coarse-tick grid
// with a short interference range. Every seventh refresh one vehicle jumps
// 3–50 m: onto the line of sight of a listed pair, off the line of sight it
// blocks, or out of a partner's range, so loose vehicles are seen through
// the cell bitmap, skipped in the lists and recounted in full.
func TestRefreshMatchesFullRecount(t *testing.T) {
	for _, dc := range diffCases() {
		dc := dc
		t.Run(dc.name, func(t *testing.T) {
			refreshes := dc.refreshes
			if testing.Short() {
				if !dc.short {
					t.Skip("full-length worlds run without -short")
				}
				refreshes /= 10
			}
			runDiff(t, dc, refreshes)
		})
	}
}

func runDiff(t *testing.T, dc diffCase, refreshes int) {
	fa, fb := dc.fleet(), dc.fleet()
	shift := make([]geom.Vec, fa.NumVehicles())
	ja, jb := &jumpFleet{fa, shift}, &jumpFleet{fb, shift}
	refresh := 0
	w, err := New(dc.cfg, ja)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(dc.cfg, jb)
	if err != nil {
		t.Fatal(err)
	}
	if dc.fault {
		w.SetLinkFault(pairFault{&refresh})
		ref.SetLinkFault(pairFault{&refresh})
	}
	rng := xrand.New(xrand.HashString(dc.name))
	var tab refTable
	jumps := [3]int{}
	for refresh = 1; refresh <= refreshes; refresh++ {
		if refresh%7 == 0 {
			if kind := jump(w, shift, refresh/7%3, rng); kind >= 0 {
				jumps[kind]++
			}
		}
		for s := 0; s < dc.steps; s++ {
			fa.Step(dc.dt)
			fb.Step(dc.dt)
		}
		w.Refresh()
		refRefresh(ref, &tab)
		compareTables(t, refresh, w, &tab)
	}
	if refreshes >= 100 && (jumps[0] == 0 || jumps[1] == 0 || jumps[2] == 0) {
		t.Errorf("jumps onto/off a line of sight/out of range: %v, want each at least once", jumps)
	}
}

func compareTables(t *testing.T, refresh int, w *World, ref *refTable) {
	t.Helper()
	bits := math.Float64bits
	for i := 0; i < w.n; i++ {
		got, want := w.Links(i), ref.links[i]
		if len(got) != len(want) {
			t.Fatalf("refresh %d: vehicle %d has %d links, full recount %d", refresh, i, len(got), len(want))
		}
		for k := range got {
			g, r := got[k], want[k]
			if g.J != r.J || g.Blockers != r.Blockers || bits(g.Dist.M()) != bits(r.Dist.M()) ||
				bits(float64(g.Bearing)) != bits(float64(r.Bearing)) ||
				bits(float64(g.BackBearing)) != bits(float64(r.BackBearing)) ||
				bits(g.PathGainLin) != bits(r.PathGainLin) {
				t.Fatalf("refresh %d: vehicle %d link %d = %+v, full recount %+v", refresh, i, k, g, r)
			}
		}
		gotN, wantN := w.Neighbors(i), ref.neighbors[i]
		if len(gotN) != len(wantN) {
			t.Fatalf("refresh %d: vehicle %d has neighbors %v, full recount %v", refresh, i, gotN, wantN)
		}
		for k := range gotN {
			if gotN[k] != wantN[k] {
				t.Fatalf("refresh %d: vehicle %d has neighbors %v, full recount %v", refresh, i, gotN, wantN)
			}
		}
	}
}

// jump displaces one vehicle before the next refresh and returns which kind
// of jump it made, or -1 if the world offered no candidate. Kind 0 puts a
// settled vehicle 3–50 m away onto the midpoint of a listed pair's line of
// sight; kind 1 moves a blocker 8 m off the line of sight it blocks; kind 2
// carries a vehicle 45 m away from a partner near the edge of interference
// range.
func jump(w *World, shift []geom.Vec, kind int, rng *xrand.Source) int {
	start := rng.Intn(w.n)
	for off := 0; off < w.n; off++ {
		a := (start + off) % w.n
		if w.loose[a] {
			continue
		}
		for _, l := range w.Links(a) {
			b := int(l.J)
			if w.loose[b] {
				continue
			}
			pa, pb := w.pos[a], w.pos[b]
			switch kind {
			case 0:
				if l.Dist < 20 || l.Dist > 200 {
					continue
				}
				mid := pa.Add(pb).Scale(0.5)
				for c := 0; c < w.n; c++ {
					if d := w.pos[c].Dist(mid); c != a && c != b && !w.loose[c] && d >= 3 && d <= 50 {
						shift[c] = shift[c].Add(mid.Sub(w.pos[c]))
						return kind
					}
				}
			case 1:
				if l.Blockers == 0 {
					continue
				}
				for c := 0; c < w.n; c++ {
					if c != a && c != b && w.frames[c].SegmentIntersects(pa, pb) {
						// 8 m along the left normal of the line of sight.
						n := geom.Vec{X: pa.Y - pb.Y, Y: pb.X - pa.X}.Scale(8 / l.Dist.M())
						shift[c] = shift[c].Add(n)
						return kind
					}
				}
			case 2:
				if l.Dist < w.cfg.InterferenceRange-40 {
					continue
				}
				away := pa.Sub(pb).Scale(45 / l.Dist.M())
				shift[a] = shift[a].Add(away)
				return kind
			}
		}
	}
	return -1
}

// TestRefreshAllocFree pins the steady-state contract: once the lists, the
// link table and the spatial hash have grown to a road's working set,
// Step+Refresh allocates nothing, across list rebuilds as well as list
// reads.
func TestRefreshAllocFree(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(30), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 400; k++ {
		road.Step(0.005)
		w.Refresh()
	}
	rebuilds := 0
	const ticks = 120
	allocs := testing.AllocsPerRun(ticks, func() {
		road.Step(0.005)
		w.Refresh()
		if w.recounted == 0 && w.nLoose == 0 && w.anchor[0] == w.pos[0] {
			rebuilds++
		}
	})
	if allocs != 0 {
		t.Errorf("Step+Refresh allocates %v times per tick, want 0", allocs)
	}
	// AllocsPerRun makes one extra warm-up call.
	if rebuilds < 7 {
		t.Errorf("%d list rebuilds in %d ticks; the test must cover at least 7", rebuilds, ticks+1)
	}
}
