package world

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/units"
	"mmv2v/internal/xrand"
)

// TestLinkLookupMatchesDenseIndex pins the binary-search Link lookup
// against a brute-force dense index rebuilt from Links(i), across randomized
// worlds and several refresh steps — the equivalence the O(n²) matrix it
// replaced provided by construction.
func TestLinkLookupMatchesDenseIndex(t *testing.T) {
	scenarios := []struct {
		density float64
		trucks  float64
		seed    uint64
	}{
		{8, 0, 1},
		{15, 0, 2},
		{15, 0.3, 3},
		{25, 0.1, 4},
	}
	for _, sc := range scenarios {
		tc := traffic.DefaultConfig(sc.density)
		tc.TruckFraction = sc.trucks
		road, err := traffic.New(tc, xrand.New(sc.seed))
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(DefaultConfig(), road)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 3; step++ {
			if step > 0 {
				road.Step(0.005)
				w.Refresh()
			}
			checkLinkLookup(t, w)
		}
	}
}

func checkLinkLookup(t *testing.T, w *World) {
	t.Helper()
	n := w.NumVehicles()
	for i := 0; i < n; i++ {
		// Links(i) must be in ascending partner-x order — the invariant
		// Link's binary search relies on.
		ls := w.Links(i)
		dense := make(map[int]Link, len(ls))
		for k, l := range ls {
			if k > 0 && w.pos[l.J].X < w.pos[ls[k-1].J].X {
				t.Fatalf("vehicle %d links not sorted by partner x", i)
			}
			dense[int(l.J)] = l
		}
		for j := 0; j < n; j++ {
			got, ok := w.Link(i, j)
			want, wantOK := dense[j]
			if ok != wantOK || got != want {
				t.Fatalf("Link(%d, %d) = %+v, %v; dense index says %+v, %v",
					i, j, got, ok, want, wantOK)
			}
		}
	}
}

// namedWorld is a world the link-entry tests sweep.
type namedWorld struct {
	name string
	w    *World
}

// symmetryWorlds builds the worlds the link-entry tests sweep: the paper's
// straight road at a sparse and a dense density, each stepped through a few
// refreshes so every entry has been rewritten, and random road-graph grids.
func symmetryWorlds(t *testing.T) []namedWorld {
	t.Helper()
	var worlds []namedWorld
	for _, density := range []float64{8, 30} {
		road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(uint64(density)))
		if err != nil {
			t.Fatal(err)
		}
		w, err := New(DefaultConfig(), road)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			road.Step(0.005)
			w.Refresh()
		}
		worlds = append(worlds, namedWorld{fmt.Sprintf("road%g", density), w})
	}
	for trial := 0; trial < 3; trial++ {
		fleet := randomNetwork(t, xrand.New(0x5e11).Child("trial", uint64(trial)))
		w, err := New(DefaultConfig(), fleet)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, namedWorld{fmt.Sprintf("grid%d", trial), w})
	}
	return worlds
}

// TestLinkSymmetry pins the pair table's mirror invariant bit for bit: an
// entry's BackBearing is its partner's entry's Bearing, and distance,
// blocker count and path gain are the same on both sides. The gain kernel
// reads a single entry, so this is what makes it equal to the two-entry
// form.
func TestLinkSymmetry(t *testing.T) {
	if size := unsafe.Sizeof(Link{}); size != 40 {
		t.Errorf("Link is %d bytes, want 40", size)
	}
	if slot, payload := unsafe.Sizeof(Slot{}), unsafe.Sizeof(Payload{}); slot != 8 || payload != 32 {
		t.Errorf("an entry is a %d-byte slot and a %d-byte payload, want 8 and 32", slot, payload)
	}
	bits := math.Float64bits
	for _, nw := range symmetryWorlds(t) {
		name, w := nw.name, nw.w
		entries := 0
		for i := 0; i < w.NumVehicles(); i++ {
			for _, l := range w.Links(i) {
				back, ok := w.Link(int(l.J), i)
				if !ok || int(back.J) != i {
					t.Fatalf("%s: link %d→%d exists but %d→%d missing", name, i, l.J, l.J, i)
				}
				if bits(float64(l.BackBearing)) != bits(float64(back.Bearing)) ||
					bits(float64(l.Bearing)) != bits(float64(back.BackBearing)) {
					t.Fatalf("%s: %d↔%d: bearings %v/%v, mirror %v/%v", name, i, l.J,
						l.Bearing, l.BackBearing, back.Bearing, back.BackBearing)
				}
				if bits(l.Dist.M()) != bits(back.Dist.M()) || l.Blockers != back.Blockers ||
					bits(l.PathGainLin) != bits(back.PathGainLin) {
					t.Fatalf("%s: asymmetric link %d↔%d: %+v vs %+v", name, i, l.J, l, back)
				}
				// The two bearings are 180° apart.
				if geom.AbsAngleDiff(l.BackBearing, l.Bearing+geom.Bearing(math.Pi)) > 1e-9 {
					t.Fatalf("%s: bearings not opposite for %d↔%d", name, i, l.J)
				}
				entries++
			}
		}
		if entries == 0 {
			t.Errorf("%s: no links", name)
		}
	}
}

// rxPowerMwTwoLookups is the gain formula before Link carried BackBearing,
// kept as the reference the one-entry kernel must match bit for bit: rx's
// own entry gives rx's bearing, the transmitter's mirror entry (a second
// lookup) gives the transmitter's bearing and the path gain, and each gain
// resolves its pattern from the cache.
func rxPowerMwTwoLookups(w *World, tx, rx int, txBeam, rxBeam phy.Beam) units.MilliWatt {
	back, ok := w.Link(rx, tx)
	if !ok {
		return 0
	}
	lnk, _ := w.Link(int(back.J), rx)
	gain := func(beam phy.Beam, toward geom.Bearing) float64 {
		if beam.IsOmni() {
			return 1
		}
		return w.patterns.Get(beam.Width).Gain(geom.AngleDiff(beam.Bearing, toward))
	}
	gTx := gain(txBeam, lnk.Bearing)  // tx's gain toward rx
	gRx := gain(rxBeam, back.Bearing) // rx's gain toward tx
	return units.MilliWatt(w.model.TxPowerMw().MW() * gTx * lnk.PathGainLin * gRx)
}

// TestRxPowerKernelMatchesTwoLookups compares the one-entry gain kernel,
// through both RxPowerMwOn and RxPowerMw, with the two-lookup reference
// over random beams: quasi-omni and every codebook width, aimed at random
// bearings or straight at a link partner, on road and grid worlds.
func TestRxPowerKernelMatchesTwoLookups(t *testing.T) {
	cb := phy.DefaultCodebook()
	widths := []units.Radian{0, cb.TxWidth, cb.RxWidth, cb.NarrowWidth}
	for _, nw := range symmetryWorlds(t) {
		name, w := nw.name, nw.w
		rng := xrand.New(xrand.HashString(name))
		beam := func(v int) phy.Beam {
			b := phy.Beam{Bearing: geom.Bearing(rng.Float64() * 2 * math.Pi), Width: widths[rng.Intn(len(widths))]}
			if ls := w.Links(v); len(ls) > 0 && rng.Bool(0.5) {
				b.Bearing = ls[rng.Intn(len(ls))].Bearing
			}
			return b
		}
		compared := 0
		for rx := 0; rx < w.NumVehicles(); rx++ {
			slots, _ := w.Entries(rx)
			for _, s := range slots {
				tx := int(s.J)
				l := w.Entry(rx, tx)
				for draw := 0; draw < 4; draw++ {
					txBeam, rxBeam := beam(tx), beam(rx)
					want := rxPowerMwTwoLookups(w, tx, rx, txBeam, rxBeam)
					got := w.RxPowerMwOn(l, w.Aim(txBeam), w.Aim(rxBeam))
					viaPair := w.RxPowerMw(tx, rx, txBeam, rxBeam)
					if math.Float64bits(got.MW()) != math.Float64bits(want.MW()) ||
						math.Float64bits(viaPair.MW()) != math.Float64bits(want.MW()) {
						t.Fatalf("%s: %d→%d beams %+v %+v: kernel %v, RxPowerMw %v, two-lookup form %v",
							name, tx, rx, txBeam, rxBeam, got, viaPair, want)
					}
					compared++
				}
			}
			// A pair beyond interference range receives exactly 0.
			far := rng.Intn(w.NumVehicles())
			if _, ok := w.Link(rx, far); !ok {
				if p := w.RxPowerMw(far, rx, beam(far), beam(rx)); p != 0 {
					t.Fatalf("%s: out-of-range pair %d→%d receives %v", name, far, rx, p)
				}
			}
		}
		if compared == 0 {
			t.Errorf("%s: no pairs compared", name)
		}
	}
}
