package baseline

import (
	"testing"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/traffic"
	"mmv2v/internal/world"
	"mmv2v/internal/xrand"
)

// newAllocEnv builds an environment over the road at a density, with the
// medium's delivery counter for the tests' guards.
func newAllocEnv(t *testing.T, density float64) (*sim.Env, *obs.Counter) {
	t.Helper()
	road, err := traffic.New(traffic.DefaultConfig(density), xrand.New(3))
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
	reg := obs.New()
	env.Medium.SetObs(reg)
	return env, reg.Counter("medium.control_delivered")
}

// pinZeroAllocs runs a warmed slot and requires that it allocates nothing
// and delivers frames, so that the handlers are exercised.
func pinZeroAllocs(t *testing.T, what string, delivered *obs.Counter, slot func()) {
	t.Helper()
	slot()
	before := delivered.Value()
	allocs := testing.AllocsPerRun(50, slot)
	if delivered.Value() == before {
		t.Fatalf("%s delivered nothing; the guard exercises no handler", what)
	}
	if allocs != 0 {
		t.Errorf("%s allocates %v times, want 0", what, allocs)
	}
}

// TestROPDiscoverySlotAllocs pins the steady-state allocation of one ROP
// discovery slot at 15 vpl: every vehicle's private role and sector draw,
// the aims and sweeps, and scheduling and running the slot's resolution
// allocate nothing. The slot repeats with the same draws, so after the
// first run every decoded neighbor is already known.
func TestROPDiscoverySlotAllocs(t *testing.T) {
	env, delivered := newAllocEnv(t, 15)
	s := env.Sim
	r := NewROP(env, DefaultROPParams())
	pinZeroAllocs(t, "a ROP discovery slot", delivered, func() {
		r.discoverSlot(5)
		s.Run(s.Now().Add(env.Timing.SectorSlot()))
	})
}

// TestABFTSlotAllocs pins 802.11ad's association plane at 30 vpl: after a
// beacon interval that formed the PBSSs, repeating one A-BFT slot (the
// PCPs' aims, the members' association frames and their resolution)
// allocates nothing, since every member it decodes is already associated.
func TestABFTSlotAllocs(t *testing.T) {
	env, delivered := newAllocEnv(t, 30)
	s := env.Sim
	a := NewAD(env, DefaultADParams())
	a.RunFrame(0)
	s.Run(des.At(env.Timing.Frame))
	// The next frame would stop the last service period's streams.
	for _, ss := range a.sessions {
		ss.Stop()
	}
	const k = 3
	pinZeroAllocs(t, "an A-BFT slot", delivered, func() {
		a.abftSlot(k)
		s.Run(s.Now().Add(env.Timing.SectorSlot() + env.Timing.SIFS))
	})
}
