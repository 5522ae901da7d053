package baseline

import (
	"testing"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/metrics"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// TestROPDiscoverySlotAllocs pins the steady-state allocation of one ROP
// discovery slot at 15 vpl: every vehicle's private role and sector draw,
// the aims and sweeps, and scheduling and running the slot's resolution
// allocate nothing. The slot repeats with the same draws, so after the
// first run every decoded neighbor is already known.
func TestROPDiscoverySlotAllocs(t *testing.T) {
	road, err := traffic.New(traffic.DefaultConfig(15), xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	w, err := world.New(world.DefaultConfig(), road)
	if err != nil {
		t.Fatal(err)
	}
	s := des.New()
	env := &sim.Env{
		Sim:        s,
		World:      w,
		Medium:     medium.New(s, w),
		Ledger:     metrics.NewLedger(w.NumVehicles()),
		Rand:       xrand.New(7),
		Timing:     phy.DefaultTiming(),
		DemandBits: 200e6,
	}
	r := NewROP(env, DefaultROPParams())
	slot := func() {
		r.discoverSlot(5)
		s.Run(s.Now().Add(env.Timing.SectorSlot()))
	}
	slot()
	before := env.Medium.Delivered
	allocs := testing.AllocsPerRun(50, slot)
	if env.Medium.Delivered == before {
		t.Fatal("the slot delivered nothing; the guard exercises no handler")
	}
	if allocs != 0 {
		t.Errorf("a ROP discovery slot allocates %v times, want 0", allocs)
	}
}
