package medium

import (
	"testing"
	"time"
	"unsafe"

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
		ff := &fakeFaults{seed: 1}
		if faulty {
			m.SetFaults(ff)
		}
		// The batch is the first live transmitter's frame; under faults,
		// slot jitter spreads the ends. The check is scheduled first, so it
		// collects the batch before the medium's own resolve event at end
		// retires it.
		first := 1
		for faulty && !ff.RadioUp(first, 0) {
			first += 2
		}
		end := des.At(15 * time.Microsecond)
		if faulty {
			end = end.Add(ff.TxDelay(first, 0))
		}
		allocs, delivered := -1.0, 0
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
		txBeam := phy.Beam{Bearing: sectors.Center(6), Width: geom.Deg(30)}
		rxBeam := phy.Beam{Bearing: sectors.Center(sectors.Opposite(6)), Width: geom.Deg(12)}
		for v := 0; v < w.NumVehicles(); v++ {
			if v%2 == 0 {
				m.StartListen(v, rxBeam, func(Delivery) { delivered++ })
			} else {
				m.Transmit(v, txBeam, 15*time.Microsecond, Frame{Kind: KindSSW, Dest: -1, Index: 6})
			}
		}
		if m.active[0].end != end {
			t.Fatalf("faults=%v: first frame ends at %v, predicted %v", faulty, m.active[0].end, end)
		}
		m.StartStream(0, txBeam)
		sim.Run(end + 1)
		if delivered == 0 {
			t.Errorf("faults=%v: the batch delivered nothing; the guard exercises no handler", faulty)
		}
		if allocs != 0 {
			t.Errorf("faults=%v: deliverGroup allocates %v times per run, want 0", faulty, allocs)
		}
	}
}

// TestTransmissionRecordSize pins the on-air record to the 80-byte size
// class: StartStream allocates one per data stream, so a larger record
// raises every protocol's allocation per simulated second.
func TestTransmissionRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(transmission{}); size > 80 {
		t.Errorf("transmission is %d bytes, want at most 80", size)
	}
}
