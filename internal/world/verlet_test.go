package world

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/obs"
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
// per-vehicle slices, and each slice is then sorted by partner rank. A link
// fault installed since the last refresh applies from this one on.
func refRefresh(w *World, t *refTable) {
	if t.links == nil {
		t.links, t.neighbors = make([][]Link, w.n), make([][]int, w.n)
	}
	w.linkFault = w.nextFault
	if w.linkFault != nil {
		w.linkFault.Refreshed()
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

// nlosPairs counts the table's blocked pairs.
func (t *refTable) nlosPairs() (n uint64) {
	for i, ls := range t.links {
		for _, l := range ls {
			if l.Blockers > 0 && int(l.J) > i {
				n++
			}
		}
	}
	return n
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

// pairFault is an order-sensitive LinkFault: a pure hash of (a, b, tick)
// attenuates about one pair in five, so a pair evaluated from the wrong
// side, or for the wrong refresh, gets a different gain. Refreshed takes the
// tick from clock, which a test may move between a refresh and its reads.
type pairFault struct {
	clock *int
	tick  int
}

func (f *pairFault) Refreshed() { f.tick = *f.clock }

func (f *pairFault) LinkFactorLin(a, b int) float64 {
	h := xrand.Mix(0xfa17, uint64(a), uint64(b), uint64(f.tick))
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

// TestRefreshMatchesFullRecount steps four identical fleets, three under
// the Verlet-list Refresh and one under the full recount, and after every
// refresh compares every Link field bit for bit and every neighbor set. The
// worlds cover the road at three densities, trucks, shadowing with a link
// fault, grids stepped several times per refresh and a coarse-tick grid
// with a short interference range. Every seventh refresh one vehicle jumps
// 3–50 m: onto the line of sight of a listed pair, off the line of sight it
// blocks, or out of a partner's range, so loose vehicles are seen through
// the cell bitmap, skipped in the lists and recounted in full. The three
// worlds under test carry a statistics registry, and the fault's clock
// moves between each refresh and its reads, so a completion must take the
// fault of the refresh its entry belongs to.
//
// The first world is read only by the comparison, in vehicle order, and
// must count each blocked pair of a refresh once in world.nlos_links. The
// second is read first in a shuffled sample through Link, RxPowerMw and the
// medium's raw walk, so pairs are completed from either side and in any
// order, and on about one refresh in five it is not read at all. The third
// is left unread until 10 refreshes after each list build and is then read
// whole, so its owners gather their blocker candidates long after the build.
// After every refresh each world's gathered owners must hold the candidate
// lists an eager gather from the anchors gives, and all three must have
// rebuilt their lists equally often.
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
	fleets := []traffic.Fleet{dc.fleet(), dc.fleet(), dc.fleet(), dc.fleet()}
	shift := make([]geom.Vec, fleets[0].NumVehicles())
	worlds := make([]*World, len(fleets))
	for k, f := range fleets {
		var err error
		if worlds[k], err = New(dc.cfg, &jumpFleet{f, shift}); err != nil {
			t.Fatal(err)
		}
	}
	w, sampled, idle, ref := worlds[0], worlds[1], worlds[2], worlds[3]
	lazy := worlds[:3]
	gathers := make([]candCheck, len(lazy))
	regs := make([]*obs.Registry, len(lazy))
	for k, x := range lazy {
		regs[k] = obs.New()
		x.SetObs(regs[k])
	}
	nlos := regs[0].Counter("world.nlos_links")
	// The reference of New's refresh is recounted before any fault is
	// installed: a fault takes effect at the next refresh. The fault's clock
	// reads 2r at refresh r and 2r+1 while its entries are read.
	var tab refTable
	refRefresh(ref, &tab)
	clock := 1
	if dc.fault {
		for _, x := range worlds {
			x.SetLinkFault(&pairFault{clock: &clock})
		}
	}
	rng := xrand.New(xrand.HashString(dc.name))
	jumps := [3]int{}
	// idleBuild is the refresh of idle's last build, and idleRead whether
	// idle has been read since; lateReads counts its reads with a loose
	// vehicle, whose candidate lists were gathered long after the build.
	idleBuild, idleRead, lateReads := 0, false, 0
	for refresh := 0; refresh <= refreshes; refresh++ {
		if refresh > 0 {
			if refresh%7 == 0 {
				if kind := jump(w, shift, refresh/7%3, rng); kind >= 0 {
					jumps[kind]++
				}
			}
			for _, f := range fleets {
				for s := 0; s < dc.steps; s++ {
					f.Step(dc.dt)
				}
			}
			clock = 2 * refresh
			for _, x := range lazy {
				x.Refresh()
			}
			refRefresh(ref, &tab)
			clock = 2*refresh + 1
			if idle.obsListBuilds.Value() != gathers[2].builds {
				idleBuild, idleRead = refresh, false
			}
		}
		// New completed some of its entries before the registry was
		// installed, so the count is checked from refresh 1 on.
		before := nlos.Value()
		compareTables(t, refresh, w, &tab)
		if got, want := nlos.Value()-before, tab.nlosPairs(); refresh > 0 && got != want {
			t.Fatalf("refresh %d: world.nlos_links counted %d pairs, the table has %d blocked", refresh, got, want)
		}
		if rng.Intn(5) > 0 {
			readSample(sampled, rng)
			checkMirrors(t, refresh, sampled)
			compareTables(t, refresh, sampled, &tab)
		}
		if !idleRead && refresh-idleBuild >= 10 {
			if idle.nLoose > 0 {
				lateReads++
			}
			compareTables(t, refresh, idle, &tab)
			idleRead = true
		}
		for k, x := range lazy {
			gathers[k].check(t, refresh, x)
		}
		if b0 := gathers[0].builds; gathers[1].builds != b0 || gathers[2].builds != b0 {
			t.Fatalf("refresh %d: list builds %d, %d, %d; the schedule must not depend on reads",
				refresh, b0, gathers[1].builds, gathers[2].builds)
		}
	}
	if refreshes >= 100 && (jumps[0] == 0 || jumps[1] == 0 || jumps[2] == 0) {
		t.Errorf("jumps onto/off a line of sight/out of range: %v, want each at least once", jumps)
	}
	// At the 5 ms cadence the lists outlive 10 refreshes; on the coarser
	// grids they are rebuilt sooner, and the idle world is never read.
	t.Logf("idle reads with a loose vehicle: %d, builds %d", lateReads, gathers[0].builds)
	if refreshes >= 100 && float64(dc.steps)*dc.dt <= 0.005 && lateReads == 0 {
		t.Errorf("idle world never read with a loose vehicle 10 refreshes after a build")
	}
}

// candCheck holds the blocker candidate lists of a world's current Verlet
// build as an eager gather computes them, in test code, from the anchors:
// pair p's are cand[start[p]:start[p+1]].
type candCheck struct {
	builds      uint64
	start, cand []int32
	cellStart   []int32
	cellVeh     []int32
}

// check recomputes the eager lists whenever the world has built new ones,
// then requires every owner gathered so far to hold them: the same
// members in the same order.
func (g *candCheck) check(t *testing.T, refresh int, w *World) {
	t.Helper()
	if b := w.obsListBuilds.Value(); b != g.builds || g.start == nil {
		g.builds = b
		g.gather(w)
	}
	for k, end := range w.candEnd {
		if end < 0 {
			continue
		}
		for p := w.listStart[k]; p < w.listStart[k+1]; p++ {
			last := end
			if p+1 < w.listStart[k+1] {
				last = w.candStart[p+1]
			}
			got, want := w.cand[w.candStart[p]:last], g.cand[g.start[p]:g.start[p+1]]
			if !slices.Equal(got, want) {
				t.Fatalf("refresh %d: owner %d pair %d→%d lists candidates %v, eager gather %v",
					refresh, w.listOwner[k], w.listOwner[k], w.pairB[p], got, want)
			}
		}
	}
}

// gather lists every listed pair's candidates as the build did before the
// lists were gathered lazily: it bins the anchors into cells itself, then
// keeps the vehicles whose anchors pass the two culls widened by the skin.
func (g *candCheck) gather(w *World) {
	cells := w.cellsX * w.cellsY
	g.cellStart = append(g.cellStart[:0], make([]int32, cells+1)...)
	g.cellVeh = append(g.cellVeh[:0], make([]int32, w.n)...)
	for i := 0; i < w.n; i++ {
		g.cellStart[w.cellOf(w.anchor[i])+1]++
	}
	for c := 0; c < cells; c++ {
		g.cellStart[c+1] += g.cellStart[c]
	}
	fill := slices.Clone(g.cellStart)
	for i := 0; i < w.n; i++ {
		c := w.cellOf(w.anchor[i])
		g.cellVeh[fill[c]] = int32(i)
		fill[c]++
	}
	g.start, g.cand = g.start[:0], g.cand[:0]
	for k, a := range w.listOwner {
		pa := w.anchor[a]
		for _, b := range w.pairB[w.listStart[k]:w.listStart[k+1]] {
			g.start = append(g.start, int32(len(g.cand)))
			var s sight
			s.set(pa, w.anchor[b], pa.Dist(w.anchor[b]).M())
			x0, x1, y0, y1 := w.cellRange(&s, w.maxDiag+verletSkin)
			for gy := y0; gy <= y1; gy++ {
				for gx := x0; gx <= x1; gx++ {
					ci := gy*w.cellsX + gx
					for _, c := range g.cellVeh[g.cellStart[ci]:g.cellStart[ci+1]] {
						if c != a && c != b && s.near(w.anchor[c], w.halfDiag[c]+verletSkin) {
							g.cand = append(g.cand, c)
						}
					}
				}
			}
		}
	}
	g.start = append(g.start, int32(len(g.cand)))
}

// readSample reads the world's vehicles in a shuffled order, each through
// one of three paths: Link or RxPowerMw on a quarter of its entries, or the
// medium's raw walk, which completes the entries whose partner is one of an
// eighth of the vehicles, the senders on the air.
func readSample(w *World, rng *xrand.Source) {
	onAir := make([]bool, w.n)
	for v := range onAir {
		onAir[v] = rng.Intn(8) == 0
	}
	for _, i := range rng.Perm(w.n) {
		path := rng.Intn(3)
		slots, _ := w.Entries(i)
		for k, s := range slots {
			j := int(s.J)
			switch {
			case path == 2:
				if onAir[j] && s.Pending() {
					w.Complete(i, k)
				}
			case rng.Intn(4) > 0:
				// Not in this vehicle's quarter.
			case path == 0:
				w.Link(i, j)
			default:
				w.RxPowerMw(j, i, beamOf(0), beamOf(1))
			}
		}
	}
}

// checkMirrors requires every pair to be completed on both sides or on
// neither: a completion writes both entries, so each pair's blockers and
// gain are computed once.
func checkMirrors(t *testing.T, refresh int, w *World) {
	t.Helper()
	for i := 0; i < w.n; i++ {
		slots, _ := w.Entries(i)
		for _, s := range slots {
			if m := w.slots[w.find(int(s.J), i)]; m.Pending() != s.Pending() {
				t.Fatalf("refresh %d: entry %d→%d pending %v, its mirror %v",
					refresh, i, s.J, s.Pending(), m.Pending())
			}
		}
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

// TestRefreshStaysLazy pins the one refresh schedule: with a statistics
// registry and a link fault installed, Refresh notifies the fault and leaves
// every entry pending, as it does without them.
func TestRefreshStaysLazy(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	w.SetObs(reg)
	clock := 0
	fault := &pairFault{clock: &clock}
	w.SetLinkFault(fault)
	for clock = 1; clock <= 3; clock++ {
		road.Step(0.005)
		w.Refresh()
		if fault.tick != clock {
			t.Fatalf("refresh at %d: the fault answers for %d", clock, fault.tick)
		}
		for i := 0; i < w.n; i++ {
			slots, _ := w.Entries(i)
			for _, s := range slots {
				if !s.Pending() {
					t.Fatalf("refresh at %d: Refresh completed entry %d→%d", clock, i, s.J)
				}
			}
		}
	}
	if w.TotalLinks() == 0 || reg.Counter("world.refreshes").Value() != 3 {
		t.Fatalf("%d links, %d refreshes recorded; the test checks nothing",
			w.TotalLinks(), reg.Counter("world.refreshes").Value())
	}
	if n := reg.Counter("world.nlos_links").Value(); n != 0 {
		t.Errorf("world.nlos_links = %d with no entry read", n)
	}
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
