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

func benchRefresh(b *testing.B, density float64) {
	b.Helper()
	road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	// Let the first refreshes grow the world's buffers before timing, so
	// B/op and allocs/op read the steady state rather than one-time growth
	// divided by b.N.
	for i := 0; i < warmRefreshes; i++ {
		road.Step(0.005)
		w.Refresh()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		road.Step(0.005)
		w.Refresh()
	}
}

// warmRefreshes is how many untimed refreshes the Refresh benchmarks run
// first.
const warmRefreshes = 20

// BenchmarkRefresh measures the 5 ms snapshot rebuild — the simulator's
// per-tick fixed cost (pair table + blocker counting). The 60 vpl case is
// beyond the paper's densities and exercises the scalability of the sweep
// (no dense O(n²) index, reused scratch buffers).
func BenchmarkRefresh15vpl(b *testing.B) { benchRefresh(b, 15) }
func BenchmarkRefresh30vpl(b *testing.B) { benchRefresh(b, 30) }
func BenchmarkRefresh60vpl(b *testing.B) { benchRefresh(b, 60) }

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

func benchGridRefresh(b *testing.B, rows, cols, vehicles int) {
	b.Helper()
	grid := traffic.DefaultGridConfig(vehicles)
	grid.Rows, grid.Cols = rows, cols
	nw, err := traffic.NewNetwork(grid.Network(), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := New(DefaultConfig(), nw)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < warmRefreshes; i++ {
		nw.Step(0.005)
		w.Refresh()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Step(0.005)
		w.Refresh()
	}
}

// BenchmarkRefresh1k / BenchmarkRefresh10k measure the snapshot rebuild on
// city grids at matched street-level density (≈19–21 vehicles per lane-km,
// the paper's evaluation band): 1k vehicles on a 4×4 grid, 10k on the
// default 12×12. The spatial-hash pair index makes Refresh O(vehicles ×
// local density), so growing the fleet and the map together must scale far
// sub-quadratically — the 10k run must come in well under 100× the 1k run.
func BenchmarkRefresh1k(b *testing.B)  { benchGridRefresh(b, 4, 4, 1000) }
func BenchmarkRefresh10k(b *testing.B) { benchGridRefresh(b, 12, 12, 10000) }
