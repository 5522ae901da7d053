package medium

import (
	"testing"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/geom"
	"mmv2v/internal/phy"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// BenchmarkSectorSlotResolution measures one SND-style sector slot at the
// paper's density: half the vehicles transmit SSWs while the other half
// listen — the simulator's hottest control-plane operation.
func BenchmarkSectorSlotResolution(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	sectors := geom.Sectors{Count: 24}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := des.New()
		m := New(sim, w)
		sector := i % 24
		txBeam := phy.Beam{Bearing: sectors.Center(sector), Width: geom.Deg(30)}
		rxBeam := phy.Beam{Bearing: sectors.Center(sectors.Opposite(sector)), Width: geom.Deg(12)}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 0 {
				m.StartListen(v, rxBeam, func(Delivery) {})
			}
		}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 1 {
				m.Transmit(v, txBeam, 15*time.Microsecond, Frame{Kind: KindSSW, Dest: -1, Index: 6})
			}
		}
		sim.RunAll()
	}
}

func BenchmarkSINRNow(b *testing.B) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		b.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		b.Fatal(err)
	}
	sim := des.New()
	m := New(sim, w)
	// 20 interfering streams.
	for v := 0; v < 40; v += 2 {
		if ls := w.Links(v); len(ls) > 0 {
			m.StartStream(v, phy.Beam{Bearing: ls[0].Bearing, Width: geom.Deg(3)})
		}
	}
	var tx, rx int
	for i := 1; i < w.NumVehicles(); i += 2 {
		if ls := w.Links(i); len(ls) > 0 {
			tx, rx = i, int(ls[0].J)
			break
		}
	}
	lnk, _ := w.Link(tx, rx)
	back, _ := w.Link(rx, tx)
	txBeam := phy.Beam{Bearing: lnk.Bearing, Width: geom.Deg(3)}
	rxBeam := phy.Beam{Bearing: back.Bearing, Width: geom.Deg(3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.SINRNow(tx, rx, txBeam, rxBeam)
	}
}
