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

// TestDeliverGroupAllocFree pins the resolution's allocation contract
// independently of the alloccheck pass and the benchmark gate: once its
// scratch has grown to a batch, resolving that batch again allocates
// nothing, on the clean channel and under a fault model.
func TestDeliverGroupAllocFree(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	sectors := geom.Sectors{Count: 24}
	for _, faulty := range []bool{false, true} {
		sim := des.New()
		m := New(sim, w)
		if faulty {
			m.SetFaults(&fakeFaults{seed: 1})
		}
		txBeam := phy.Beam{Bearing: sectors.Center(6), Width: geom.Deg(30)}
		rxBeam := phy.Beam{Bearing: sectors.Center(sectors.Opposite(6)), Width: geom.Deg(12)}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 0 {
				m.StartListen(v, rxBeam, func(Delivery) {})
			} else {
				m.Transmit(v, txBeam, 15*time.Microsecond, v)
			}
		}
		end := m.active[0].end // under faults, slot jitter spreads the ends
		m.StartStream(0, txBeam)
		allocs := -1.0
		sim.ScheduleAt(end, "check", func() {
			var group []*transmission
			for _, tx := range m.active {
				if tx.end == end && !tx.stream {
					group = append(group, tx)
				}
			}
			if len(group) == 0 {
				t.Fatal("no frames in the batch")
			}
			m.deliverGroup(group) // grows the scratch
			allocs = testing.AllocsPerRun(100, func() { m.deliverGroup(group) })
		})
		sim.Run(end + 1)
		if m.Delivered == 0 {
			t.Errorf("faults=%v: the batch delivered nothing; the guard exercises no handler", faulty)
		}
		if allocs != 0 {
			t.Errorf("faults=%v: deliverGroup allocates %v times per run, want 0", faulty, allocs)
		}
	}
}
