package world

import (
	"math"
	"testing"

	"mmv2v/internal/geom"
	"mmv2v/internal/traffic"
	"mmv2v/internal/xrand"
)

// randomNetwork builds a random road-graph fleet: a grid of random shape
// with a random block length and vehicle count, stepped a random number of
// ticks so vehicles sit mid-segment and mid-intersection.
func randomNetwork(t *testing.T, rng *xrand.Source) traffic.Fleet {
	t.Helper()
	g := traffic.DefaultGridConfig(40 + rng.Intn(160))
	g.Rows = 2 + rng.Intn(3)
	g.Cols = 2 + rng.Intn(3)
	g.BlockM = 80 + 40*float64(rng.Intn(4))
	nw, err := traffic.NewNetwork(g.Network(), rng.Child("net"))
	if err != nil {
		t.Fatal(err)
	}
	for k, steps := 0, rng.Intn(200); k < steps; k++ {
		nw.Step(0.05)
	}
	return nw
}

// TestSpatialHashMatchesBruteForce checks, on random road graphs, that the
// cell-grid pair enumeration and blocker pruning are exactly equivalent to
// an exhaustive O(n²)/O(n³) recomputation: same pair set, same distances
// and bearings, same blocker counts, neighbors exactly the LOS ∩ CommRange
// subset, links rank-sorted, and Link(i,j) agreeing with a linear scan.
func TestSpatialHashMatchesBruteForce(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence sweep")
	}
	for trial := 0; trial < 8; trial++ {
		rng := xrand.New(0xC0FFEE).Child("trial", uint64(trial))
		fleet := randomNetwork(t, rng)
		cfg := DefaultConfig()
		if trial%2 == 1 {
			cfg.InterferenceRange = 120
			cfg.CommRange = 60
		}
		w, err := New(cfg, fleet)
		if err != nil {
			t.Fatal(err)
		}
		n := w.NumVehicles()

		// Brute force: every unordered pair, every possible blocker.
		type pairKey struct{ i, j int }
		want := make(map[pairKey]int) // pair -> exhaustive blocker count
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				d := w.pos[i].Dist(w.pos[j])
				if d > cfg.InterferenceRange || d == 0 { // same co-located sentinel check as Refresh
					continue
				}
				blockers := 0
				for c := 0; c < n; c++ {
					if c == i || c == j {
						continue
					}
					body := geom.Rect{Center: w.pos[c], Heading: w.heading[c], HalfLen: w.halfLen[c], HalfWid: w.halfWid[c]}
					if geom.SegmentIntersectsRect(w.pos[i], w.pos[j], body) {
						blockers++
					}
				}
				want[pairKey{i, j}] = blockers
			}
		}

		got := 0
		for i := 0; i < n; i++ {
			prevRank := int32(-1)
			for _, l := range w.Links(i) {
				j := int(l.J)
				if w.rank[j] <= prevRank {
					t.Fatalf("trial %d: links[%d] not strictly rank-sorted", trial, i)
				}
				prevRank = w.rank[j]
				if i < j {
					got++
					blockers, ok := want[pairKey{i, j}]
					if !ok {
						t.Fatalf("trial %d: hash produced pair (%d,%d) outside interference range", trial, i, j)
					}
					if int(l.Blockers) != blockers {
						t.Fatalf("trial %d: pair (%d,%d) blockers %d, exhaustive scan says %d",
							trial, i, j, l.Blockers, blockers)
					}
				}
				if l.Dist != w.pos[i].Dist(w.pos[j]) {
					t.Fatalf("trial %d: link (%d,%d) distance mismatch", trial, i, j)
				}
				// Bearings are computed once from the lower-rank side; the
				// reverse entry is the forward bearing rotated exactly π.
				if w.rank[i] < w.rank[j] {
					if l.Bearing != w.pos[i].BearingTo(w.pos[j]) {
						t.Fatalf("trial %d: link (%d,%d) forward bearing mismatch", trial, i, j)
					}
				} else {
					fwd := w.pos[j].BearingTo(w.pos[i])
					if l.Bearing != geom.NormalizeBearing(fwd+geom.Bearing(math.Pi)) {
						t.Fatalf("trial %d: link (%d,%d) reverse bearing mismatch", trial, i, j)
					}
				}
				if !(l.PathGainLin > 0) {
					t.Fatalf("trial %d: link (%d,%d) non-positive gain %v", trial, i, j, l.PathGainLin)
				}
				// Link's binary search must agree with the slice entry
				// itself.
				ll, ok := w.Link(i, j)
				if !ok || ll != l {
					t.Fatalf("trial %d: Link(%d,%d) lookup disagrees with links slice", trial, i, j)
				}
			}
			// Neighbors are exactly the LOS links within CommRange, in order.
			var wantN []int
			for _, l := range w.Links(i) {
				if l.Blockers == 0 && l.Dist <= cfg.CommRange {
					wantN = append(wantN, int(l.J))
				}
			}
			gotN := w.Neighbors(i)
			if len(gotN) != len(wantN) {
				t.Fatalf("trial %d: vehicle %d neighbor count %d, want %d", trial, i, len(gotN), len(wantN))
			}
			for k := range gotN {
				if gotN[k] != wantN[k] {
					t.Fatalf("trial %d: vehicle %d neighbor[%d] = %d, want %d", trial, i, k, gotN[k], wantN[k])
				}
			}
		}
		if got != len(want) {
			t.Fatalf("trial %d: hash found %d pairs, exhaustive scan found %d", trial, got, len(want))
		}
		// Absent pairs must miss the lookup in both directions.
		for i := 0; i < n && i < 40; i++ {
			for j := 0; j < n && j < 40; j++ {
				if i == j {
					continue
				}
				if _, ok := want[pairKey{minInt(i, j), maxInt(i, j)}]; ok {
					continue
				}
				if _, hit := w.Link(i, j); hit {
					t.Fatalf("trial %d: Link(%d,%d) hit for an out-of-range pair", trial, i, j)
				}
			}
		}
	}
}

// TestGridWorldRefreshStable steps a city grid with its world attached and
// re-checks the pair-table invariants after motion (the persistent order
// and bucket state must stay coherent across refreshes).
func TestGridWorldRefreshStable(t *testing.T) {
	g := traffic.DefaultGridConfig(150)
	g.Rows, g.Cols = 3, 3
	g.BlockM = 150
	nw, err := traffic.NewNetwork(g.Network(), xrand.New(21))
	if err != nil {
		t.Fatal(err)
	}
	w, err := New(DefaultConfig(), nw)
	if err != nil {
		t.Fatal(err)
	}
	for tick := 0; tick < 50; tick++ {
		nw.Step(0.05)
		w.Refresh()
	}
	checkLinkLookup(t, w)
	if w.AvgNeighborCount() <= 0 {
		t.Fatal("city grid produced no LOS neighbors")
	}
	if w.Network() != nw {
		t.Fatal("Network accessor lost the fleet")
	}
	if w.Road() != nil {
		t.Fatal("Road accessor should be nil on a network world")
	}
}

// FuzzCellCoord fuzzes the cell-coordinate mapping: for any finite query
// point and any grid shape, the clamped cell must stay on the grid, agree
// with the floor of the offset, and be monotone in the coordinate — the
// properties pair enumeration and blocker pruning rely on.
func FuzzCellCoord(f *testing.F) {
	f.Add(0.0, 0.0, 62.5, 17, 1, 310.0, -4.0)
	f.Add(-1208.1, -1208.1, 100.0, 34, 34, 3200.0, 3200.0)
	f.Add(0.0, -9.0, 50.0, 1, 1, 1e9, -1e9)
	f.Fuzz(func(t *testing.T, minX, minY, cell float64, cellsX, cellsY int, x, y float64) {
		if !(cell > 1e-3) || math.IsInf(cell, 0) ||
			math.IsNaN(minX) || math.IsInf(minX, 0) || math.IsNaN(minY) || math.IsInf(minY, 0) ||
			math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
			t.Skip()
		}
		if cellsX < 1 || cellsX > 1<<12 || cellsY < 1 || cellsY > 1<<12 {
			t.Skip()
		}
		w := &World{gridMin: geom.Vec{X: minX, Y: minY}, cellM: cell, invCellM: 1 / cell, cellsX: cellsX, cellsY: cellsY}
		cx, cy := w.cellX(x), w.cellY(y)
		if cx < 0 || cx >= cellsX || cy < 0 || cy >= cellsY {
			t.Fatalf("cell (%d,%d) off the %dx%d grid", cx, cy, cellsX, cellsY)
		}
		// Interior points (strictly inside the grid's span) must land on the
		// floor cell, un-clamped.
		off := (x - minX) * w.invCellM
		if off >= 0 && off < float64(cellsX) {
			if cx != int(off) {
				t.Fatalf("interior x %v: cell %d != floor %d", x, cx, int(off))
			}
		}
		// Monotonicity: a point one full cell further right never maps left.
		if x2 := x + cell; !math.IsInf(x2, 0) {
			if cx2 := w.cellX(x2); cx2 < cx {
				t.Fatalf("cellX not monotone: %v->%d but %v->%d", x, cx, x2, cx2)
			}
		}
	})
}
