package world

import (
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/xrand"
)

// beamOf builds a 3° beam at a bearing.
func beamOf(bearing geom.Bearing) phy.Beam {
	return phy.Beam{Bearing: bearing, Width: geom.Deg(3)}
}

func benchRefresh(b *testing.B, density float64, readAll bool) {
	b.Helper()
	road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	benchTicks(b, road, 1, readAll)
}

// benchTicks times ticks over a fleet, each of steps 5 ms fleet steps and
// one Refresh; with readAll each refresh is followed by Links(i) for every
// vehicle, which completes the whole table.
func benchTicks(b *testing.B, fleet traffic.Fleet, steps int, readAll bool) {
	b.Helper()
	w, err := New(DefaultConfig(), fleet)
	if err != nil {
		b.Fatal(err)
	}
	tick := func() {
		for s := 0; s < steps; s++ {
			fleet.Step(0.005)
		}
		w.Refresh()
		if readAll {
			for i := 0; i < w.n; i++ {
				w.Links(i)
			}
		}
	}
	// Let the first refreshes grow the world's buffers before timing, so
	// B/op and allocs/op read the steady state rather than one-time growth
	// divided by b.N.
	for i := 0; i < warmRefreshes; i++ {
		tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
}

// warmRefreshes is how many untimed refreshes the Refresh benchmarks run
// first.
const warmRefreshes = 20

// BenchmarkRefresh measures the 5 ms snapshot rebuild — the simulator's
// per-tick fixed cost (pair table, entries left pending). The 60 vpl case
// is beyond the paper's densities and exercises the scalability of the
// sweep (no dense O(n²) index, reused scratch buffers).
func BenchmarkRefresh15vpl(b *testing.B) { benchRefresh(b, 15, false) }
func BenchmarkRefresh30vpl(b *testing.B) { benchRefresh(b, 30, false) }
func BenchmarkRefresh60vpl(b *testing.B) { benchRefresh(b, 60, false) }

// BenchmarkRefreshReadAll30vpl is the worst case of the pending table: a
// refresh whose every entry is then read, so every pair's blockers, path
// gain and bearings are completed, as an eager refresh computed them.
func BenchmarkRefreshReadAll30vpl(b *testing.B) { benchRefresh(b, 30, true) }

// BenchmarkLinkLookup measures the Link(i, j) binary search of a link
// slice, which replaced the dense pair index.
func BenchmarkLinkLookup(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(30), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	var tx, rx int
	found := false
	for i := 0; i < w.NumVehicles() && !found; i++ {
		if ls := w.Links(i); len(ls) > 0 {
			tx, rx = i, int(ls[len(ls)/2].J)
			found = true
		}
	}
	if !found {
		b.Skip("no links")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.Link(tx, rx); !ok {
			b.Fatal("link vanished")
		}
	}
}

func BenchmarkRxPower(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	// Pick a linked pair.
	var tx, rx int
	found := false
	for i := 0; i < w.NumVehicles() && !found; i++ {
		if ls := w.Links(i); len(ls) > 0 {
			tx, rx = i, int(ls[0].J)
			found = true
		}
	}
	if !found {
		b.Skip("no links")
	}
	lnk, _ := w.Link(tx, rx)
	back, _ := w.Link(rx, tx)
	beamA := beamOf(lnk.Bearing)
	beamB := beamOf(back.Bearing)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = w.RxPowerMw(tx, rx, beamA, beamB)
	}
}

func benchGridRefresh(b *testing.B, rows, cols, vehicles, steps int, readAll bool) {
	b.Helper()
	grid := traffic.DefaultGridConfig(vehicles)
	grid.Rows, grid.Cols = rows, cols
	nw, err := traffic.NewNetwork(grid.Network(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	benchTicks(b, nw, steps, readAll)
}

// BenchmarkRefresh1k / BenchmarkRefresh10k measure the snapshot rebuild on
// city grids at matched street-level density (≈19–21 vehicles per lane-km,
// the paper's evaluation band): 1k vehicles on a 4×4 grid, 10k on the
// default 12×12. The spatial-hash pair index makes Refresh O(vehicles ×
// local density), so growing the fleet and the map together must scale far
// sub-quadratically — the 10k run must come in well under 100× the 1k run.
// BenchmarkRefreshReadAll10k reads the whole table after each refresh.
func BenchmarkRefresh1k(b *testing.B)         { benchGridRefresh(b, 4, 4, 1000, 1, false) }
func BenchmarkRefresh10k(b *testing.B)        { benchGridRefresh(b, 12, 12, 10000, 1, false) }
func BenchmarkRefreshReadAll10k(b *testing.B) { benchGridRefresh(b, 12, 12, 10000, 1, true) }

// BenchmarkRefreshFrame10k and BenchmarkRefreshDrive10k refresh the 10k grid
// at the cadences that read nothing between refreshes: every 20 ms, the
// end-to-end city benchmark's frame, and every 100 ms, mmv2v-sim -drive's
// default, where vehicles move past the lists' loose margin between two
// refreshes and every refresh rebuilds the lists.
func BenchmarkRefreshFrame10k(b *testing.B) { benchGridRefresh(b, 12, 12, 10000, 4, false) }
func BenchmarkRefreshDrive10k(b *testing.B) { benchGridRefresh(b, 12, 12, 10000, 20, false) }
