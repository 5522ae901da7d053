package core

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

// newAllocProtocol builds mmV2V over the paper's 15 vpl road, with the
// medium's delivery counter for the tests' guards.
func newAllocProtocol(t *testing.T) (*Protocol, *obs.Counter) {
	t.Helper()
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
	reg := obs.New()
	env.Medium.SetObs(reg)
	return New(env, DefaultParams()), reg.Counter("medium.control_delivered")
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

// TestSNDSectorSlotAllocs pins the steady-state allocation of one SND
// sector slot at the paper's density: aiming every receiver, sweeping every
// transmitter, scheduling the resolution and resolving the slot allocate
// nothing. The slot repeats with the same roles and sector, so after the
// first run every decoded neighbor is already known.
func TestSNDSectorSlotAllocs(t *testing.T) {
	p, delivered := newAllocProtocol(t)
	s := p.env.Sim
	p.selectRoles(0)
	const half, sector = 0, 5
	pinZeroAllocs(t, "an SND sector slot", delivered, func() {
		p.sndAim(half, sector)
		p.sndSweep(half, sector)
		s.Run(s.Now().Add(p.env.Timing.SectorSlot()))
	})
}

// TestDCMSlotAllocs pins the negotiation plane: after one SND phase, a DCM
// slot (the CNS assignment and first messages, the replies, the decisions
// and break-ups, and the resolutions between them) allocates nothing. The
// slot repeats with the same bucket, so after the first run the break-up
// list has its capacity.
func TestDCMSlotAllocs(t *testing.T) {
	p, delivered := newAllocProtocol(t)
	s := p.env.Sim
	p.scheduleSND(s.Now())
	s.Run(s.Now().Add(p.SNDDuration()))
	tm := p.env.Timing
	const m = 0
	pinZeroAllocs(t, "a DCM slot", delivered, func() {
		start := s.Now()
		p.dcmSlotBegin(m)
		s.Run(start.Add(tm.ControlPreamble + tm.SIFS))
		p.dcmReply()
		s.Run(start.Add(tm.NegotiationSlot / 2))
		p.dcmDecide(m)
		s.Run(start.Add(tm.NegotiationSlot))
	})
}
