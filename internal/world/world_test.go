package world

import (
	"math"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

func newWorld(t *testing.T, density float64, seed uint64) *World {
	t.Helper()
	road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CommRange = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero comm range should fail")
	}
	cfg = DefaultConfig()
	cfg.InterferenceRange = cfg.CommRange - 1
	if err := cfg.Validate(); err == nil {
		t.Error("interference < comm range should fail")
	}
	cfg = DefaultConfig()
	cfg.Channel.BandwidthHz = 0
	if err := cfg.Validate(); err == nil {
		t.Error("invalid channel params should fail")
	}
}

func TestLinkDistanceMatchesPositions(t *testing.T) {
	w := newWorld(t, 15, 2)
	for i := 0; i < w.NumVehicles(); i++ {
		for _, l := range w.Links(i) {
			want := w.Position(i).Dist(w.Position(int(l.J)))
			if math.Abs((l.Dist - want).M()) > 1e-9 {
				t.Fatalf("link %d→%d dist %v, want %v", i, l.J, l.Dist, want)
			}
			if l.Dist > w.Config().InterferenceRange {
				t.Fatalf("link %d→%d beyond interference range", i, l.J)
			}
		}
	}
}

func TestNeighborsAreLOSWithinRange(t *testing.T) {
	w := newWorld(t, 20, 3)
	for i := 0; i < w.NumVehicles(); i++ {
		for _, j := range w.Neighbors(i) {
			l, ok := w.Link(i, j)
			if !ok {
				t.Fatalf("neighbor %d→%d has no link", i, j)
			}
			if !l.LOS() {
				t.Fatalf("neighbor %d→%d is blocked (%d blockers)", i, j, l.Blockers)
			}
			if l.Dist > w.Config().CommRange {
				t.Fatalf("neighbor %d→%d at %v m beyond comm range", i, j, l.Dist)
			}
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	w := newWorld(t, 20, 4)
	for i := 0; i < w.NumVehicles(); i++ {
		for _, j := range w.Neighbors(i) {
			found := false
			for _, k := range w.Neighbors(j) {
				if k == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("neighbor relation not symmetric: %d→%d", i, j)
			}
		}
	}
}

func TestBlockageReducesNeighborCount(t *testing.T) {
	// Same-lane vehicles beyond the immediate leader/follower should mostly
	// be blocked, so neighbor sets must be far smaller than the disk census.
	w := newWorld(t, 20, 5)
	inDisk := 0
	losNeighbors := 0
	n := w.NumVehicles()
	for i := 0; i < n; i++ {
		losNeighbors += len(w.Neighbors(i))
		for _, l := range w.Links(i) {
			if l.Dist <= w.Config().CommRange {
				inDisk++
			}
		}
	}
	if losNeighbors >= inDisk {
		t.Errorf("LOS neighbors %d not below disk population %d", losNeighbors, inDisk)
	}
	if losNeighbors == 0 {
		t.Error("no LOS neighbors at all")
	}
}

func TestAvgNeighborCountPlausible(t *testing.T) {
	// The paper's Fig. 6 scenarios have 5–8 average neighbors; our default
	// geometry should land in that ballpark for mid densities.
	w := newWorld(t, 15, 6)
	avg := w.AvgNeighborCount()
	if avg < 3 || avg > 10 {
		t.Errorf("average neighbor count %v implausible for 15 vpl", avg)
	}
}

func TestRefreshTracksMotion(t *testing.T) {
	w := newWorld(t, 15, 7)
	p0 := w.Position(0)
	for k := 0; k < 200; k++ { // 1 s
		w.Road().Step(0.005)
	}
	w.Refresh()
	p1 := w.Position(0)
	if p0.Dist(p1) < 1 {
		t.Errorf("vehicle 0 moved only %v m in 1 s", p0.Dist(p1))
	}
}

func TestRxPowerAlignedVsMisaligned(t *testing.T) {
	w := newWorld(t, 15, 8)
	// Find any linked pair.
	var i, j int
	found := false
	for i = 0; i < w.NumVehicles() && !found; i++ {
		for _, l := range w.Links(i) {
			if l.LOS() && l.Dist < 80 {
				j = int(l.J)
				found = true
				break
			}
		}
	}
	if !found {
		t.Skip("no close LOS pair in scenario")
	}
	i--
	lnk, _ := w.Link(i, j)
	back, _ := w.Link(j, i)
	width := geom.Deg(30)
	aligned := w.RxPowerMw(i, j, phy.Beam{Bearing: lnk.Bearing, Width: width}, phy.Beam{Bearing: back.Bearing, Width: width})
	away := w.RxPowerMw(i, j,
		phy.Beam{Bearing: lnk.Bearing + geom.Bearing(math.Pi), Width: width},
		phy.Beam{Bearing: back.Bearing, Width: width})
	if aligned <= away {
		t.Errorf("aligned power %v not above misaligned %v", aligned, away)
	}
	// Side-lobe ratio: misaligned Tx costs the side-lobe level (~20 dB).
	if ratio := 10 * math.Log10(aligned.Over(away)); ratio < 15 {
		t.Errorf("alignment gain only %v dB", ratio)
	}
}

func TestRxPowerOutOfRangeIsZero(t *testing.T) {
	w := newWorld(t, 15, 9)
	// Find two vehicles beyond interference range.
	for i := 0; i < w.NumVehicles(); i++ {
		for j := 0; j < w.NumVehicles(); j++ {
			if i == j {
				continue
			}
			if _, ok := w.Link(i, j); !ok {
				if p := w.RxPowerMw(i, j, phy.Omni, phy.Omni); p != 0 {
					t.Fatalf("out-of-range power %v", p)
				}
				return
			}
		}
	}
	t.Skip("all pairs within interference range")
}

func TestSNRdBOmniVsDirectional(t *testing.T) {
	w := newWorld(t, 15, 10)
	for i := 0; i < w.NumVehicles(); i++ {
		for _, l := range w.Links(i) {
			if !l.LOS() || l.Dist > 60 {
				continue
			}
			back, _ := w.Link(int(l.J), i)
			omni := w.SNRdB(i, int(l.J), phy.Omni, phy.Omni)
			dir := w.SNRdB(i, int(l.J),
				phy.Beam{Bearing: l.Bearing, Width: geom.Deg(3)},
				phy.Beam{Bearing: back.Bearing, Width: geom.Deg(3)})
			if dir <= omni {
				t.Fatalf("directional SNR %v not above omni %v", dir, omni)
			}
			return
		}
	}
	t.Skip("no close LOS pair")
}

func TestNeighborSnapshotIsDeepCopy(t *testing.T) {
	w := newWorld(t, 15, 11)
	snap := w.NeighborSnapshot()
	for k := 0; k < 400; k++ { // 2 s: topology will drift
		w.Road().Step(0.005)
	}
	w.Refresh()
	// The snapshot must be unaffected by refresh (even if values coincide,
	// mutating it must not touch the live set).
	if len(snap) != w.NumVehicles() {
		t.Fatalf("snapshot length %d", len(snap))
	}
	if len(snap[0]) > 0 {
		snap[0][0] = -99
		for _, v := range w.Neighbors(0) {
			if v == -99 {
				t.Fatal("snapshot aliases live neighbor slice")
			}
		}
	}
}

func TestDirectBlockerScenario(t *testing.T) {
	// Construct a deterministic 3-in-a-row same-lane scenario by probing a
	// generated world: any same-lane pair with a vehicle strictly between
	// them must report ≥1 blocker.
	w := newWorld(t, 25, 12)
	checked := 0
	for i := 0; i < w.NumVehicles(); i++ {
		pi := w.Position(i)
		for _, l := range w.Links(i) {
			pj := w.Position(int(l.J))
			if math.Abs(pi.Y-pj.Y) > 0.1 || l.Dist > 100 {
				continue // different lanes or far
			}
			// Is someone strictly between them in the same lane?
			between := false
			for k := 0; k < w.NumVehicles(); k++ {
				if k == i || k == int(l.J) {
					continue
				}
				pk := w.Position(k)
				if math.Abs(pk.Y-pi.Y) > 0.1 {
					continue
				}
				lo, hi := math.Min(pi.X, pj.X), math.Max(pi.X, pj.X)
				if pk.X > lo+1 && pk.X < hi-1 {
					between = true
					break
				}
			}
			if between {
				checked++
				if l.Blockers == 0 {
					t.Fatalf("pair %d–%d has an in-lane vehicle between but 0 blockers", i, l.J)
				}
			}
		}
	}
	if checked == 0 {
		t.Skip("no same-lane sandwiched pair found")
	}
}

func TestRefreshSweepMatchesBruteForce(t *testing.T) {
	// The x-sweep pair enumeration must find exactly the pairs a brute
	// force O(N²) scan finds.
	w := newWorld(t, 25, 21)
	n := w.NumVehicles()
	for i := 0; i < n; i++ {
		got := map[int]bool{}
		for _, l := range w.Links(i) {
			got[int(l.J)] = true
		}
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			d := w.Position(i).Dist(w.Position(j))
			want := d <= w.Config().InterferenceRange && d > 0
			if got[j] != want {
				t.Fatalf("pair (%d,%d) d=%.1f: in table=%v, want %v", i, j, d, got[j], want)
			}
		}
	}
}

func TestShadowingDisabledByDefault(t *testing.T) {
	w1 := newWorld(t, 15, 31)
	w2 := newWorld(t, 15, 31)
	for i := 0; i < w1.NumVehicles(); i++ {
		for k, l := range w1.Links(i) {
			if l.PathGainLin != w2.Links(i)[k].PathGainLin {
				t.Fatal("gains differ with shadowing disabled")
			}
		}
	}
}

func TestShadowingPerturbsGainsDeterministically(t *testing.T) {
	build := func(sigma units.DB, shadowSeed uint64) *World {
		road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(31))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Channel.ShadowSigmaDB = sigma
		cfg.ShadowSeed = shadowSeed
		w, err := New(cfg, road)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	clean := build(0, 1)
	shadowA := build(4, 1)
	shadowB := build(4, 1)
	shadowC := build(4, 2)

	changed := 0
	higher := 0
	total := 0
	for i := 0; i < clean.NumVehicles(); i++ {
		for k, l := range clean.Links(i) {
			a := shadowA.Links(i)[k]
			b := shadowB.Links(i)[k]
			c := shadowC.Links(i)[k]
			if a.PathGainLin != b.PathGainLin {
				t.Fatal("shadowing not deterministic for same seed")
			}
			total++
			if a.PathGainLin != l.PathGainLin {
				changed++
			}
			if a.PathGainLin > l.PathGainLin {
				higher++
			}
			_ = c
		}
	}
	if changed < total*9/10 {
		t.Errorf("only %d/%d links shadowed", changed, total)
	}
	// Zero-mean in dB: roughly half the links gain, half lose.
	if higher < total/4 || higher > total*3/4 {
		t.Errorf("shadowing not balanced: %d/%d links gained", higher, total)
	}
	// Symmetry preserved under shadowing.
	for i := 0; i < shadowA.NumVehicles(); i++ {
		for _, l := range shadowA.Links(i) {
			back, _ := shadowA.Link(int(l.J), i)
			if back.PathGainLin != l.PathGainLin {
				t.Fatal("shadowing broke link symmetry")
			}
		}
	}
}

func TestShadowSeedChangesDraws(t *testing.T) {
	road1, _ := traffic.New(traffic.DefaultConfig(15), xrand.New(31))
	road2, _ := traffic.New(traffic.DefaultConfig(15), xrand.New(31))
	cfg := DefaultConfig()
	cfg.Channel.ShadowSigmaDB = 4
	cfg.ShadowSeed = 1
	w1, _ := New(cfg, road1)
	cfg.ShadowSeed = 2
	w2, _ := New(cfg, road2)
	diff := false
	for i := 0; i < w1.NumVehicles() && !diff; i++ {
		for k, l := range w1.Links(i) {
			if l.PathGainLin != w2.Links(i)[k].PathGainLin {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("different shadow seeds produced identical gains")
	}
}

func TestTrucksIncreaseBlockage(t *testing.T) {
	build := func(truckFrac float64) *World {
		cfg := traffic.DefaultConfig(20)
		cfg.TruckFraction = truckFrac
		road, err := traffic.New(cfg, xrand.New(5))
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 1000; k++ {
			road.Step(0.005)
		}
		w, err := New(DefaultConfig(), road)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	carsOnly := build(0)
	withTrucks := build(0.3)
	if got, base := withTrucks.AvgNeighborCount(), carsOnly.AvgNeighborCount(); got >= base {
		t.Errorf("trucks did not reduce LOS neighbors: %v vs %v", got, base)
	}
}
