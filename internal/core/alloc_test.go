package core

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

// TestSNDSectorSlotAllocs pins the steady-state allocation of one SND
// sector slot at the paper's density: aiming every receiver, sweeping every
// transmitter, scheduling the resolution and resolving the slot allocate
// nothing. The slot repeats with the same roles and sector, so after the
// first run every decoded neighbor is already known.
func TestSNDSectorSlotAllocs(t *testing.T) {
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
	p := New(env, DefaultParams())
	p.selectRoles(0)
	const half, sector = 0, 5
	slot := func() {
		p.sndAim(half, sector)
		p.sndSweep(half, sector)
		s.Run(s.Now().Add(env.Timing.SectorSlot()))
	}
	slot()
	before := env.Medium.Delivered
	allocs := testing.AllocsPerRun(50, slot)
	if env.Medium.Delivered == before {
		t.Fatal("the slot delivered nothing; the guard exercises no handler")
	}
	if allocs != 0 {
		t.Errorf("an SND sector slot allocates %v times, want 0", allocs)
	}
}
