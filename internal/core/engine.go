package core

import (
	"fmt"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
	"mmv2v/internal/udt"
	"mmv2v/internal/units"
)

// candidate is a vehicle's current DCM communication candidate.
type candidate struct {
	peer  int
	snrDB units.DB
	valid bool
}

// Protocol is the mmV2V protocol engine: one instance drives all vehicles'
// synchronized frames (phase boundaries are global because vehicles are
// GPS-synchronized; per-vehicle decisions remain local).
type Protocol struct {
	env *sim.Env
	cfg Params

	// discovered[i] is vehicle i's working neighbor set ∪_f N_i^f: per
	// neighbor, the strongest SSW measurement of the latest frame it was
	// heard in and the sensing sector that decoded it.
	discovered []sim.Sightings
	// cand[i] is vehicle i's current DCM candidate (reset each frame).
	cand []candidate
	// roleTx[i] is vehicle i's role in the current discovery round.
	roleTx []bool
	// negPeer[i] is the neighbor i negotiates with in the current slot
	// (-1 when idle).
	negPeer []int
	// gotMsg[i] is the candidate-information frame i decoded from its peer
	// in the current slot, the zero Frame until one is.
	gotMsg []medium.Frame
	// senseSector[i] is the sector vehicle i last aimed its SND receiver at.
	senseSector []int
	// sswRx and negRx are the SND and DCM receive handlers, bound once so
	// that aiming a receiver allocates nothing.
	sswRx medium.Handler
	negRx medium.Handler
	// DCM slot scratch, reused across slots: a vehicle's eligible
	// neighbors, those in the slot's bucket, and the slot's break-ups.
	elig     []int
	inBucket []int
	breakups []breakup

	frame    int
	frameEnd des.Time
	session  *udt.Session
	// slotObserver, when set, is invoked after every DCM negotiation slot
	// (experiment instrumentation, e.g. Fig. 6's capacity-vs-slots curve).
	slotObserver func(frame, slot int)

	// Statistics handles (nil-safe no-ops when Env.Obs is nil).
	obsSSWTx        *obs.Counter
	obsDiscoveries  *obs.Counter
	obsNegTx        *obs.Counter
	obsBreakTx      *obs.Counter
	obsMatches      *obs.Counter
	obsBreakupsRecv *obs.Counter
}

// New builds the mmV2V protocol over an environment. It panics on invalid
// params (programmer error); use Params.Validate to pre-check user input.
func New(env *sim.Env, cfg Params) *Protocol {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid mmV2V params for scenario seed %#x (%d vehicles): %v",
			env.Seed, env.N(), err))
	}
	n := env.N()
	p := &Protocol{
		env:         env,
		cfg:         cfg,
		discovered:  make([]sim.Sightings, n),
		cand:        make([]candidate, n),
		roleTx:      make([]bool, n),
		negPeer:     make([]int, n),
		gotMsg:      make([]medium.Frame, n),
		senseSector: make([]int, n),
	}
	p.sswRx = p.onSSW
	p.negRx = p.onNegTraffic
	p.obsSSWTx = env.Obs.Counter("snd.ssw_tx")
	p.obsDiscoveries = env.Obs.Counter("snd.discoveries")
	p.obsNegTx = env.Obs.Counter("dcm.neg_tx")
	p.obsBreakTx = env.Obs.Counter("dcm.break_tx")
	p.obsMatches = env.Obs.Counter("dcm.matches")
	p.obsBreakupsRecv = env.Obs.Counter("dcm.breakups_recv")
	env.OnRefresh(p.onRefresh)
	return p
}

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "mmV2V" }

// Factory returns a sim.Factory for this configuration.
func Factory(cfg Params) sim.Factory {
	return func(env *sim.Env) sim.Protocol { return New(env, cfg) }
}

// SNDRoundDuration returns the length of one discovery round:
// two half-rounds of S sector slots each.
func (p *Protocol) SNDRoundDuration() time.Duration {
	return 2 * time.Duration(p.cfg.Codebook.Sectors.Count) * p.env.Timing.SectorSlot()
}

// SNDDuration returns the length of the whole SND phase (K rounds).
func (p *Protocol) SNDDuration() time.Duration {
	return time.Duration(p.cfg.K) * p.SNDRoundDuration()
}

// DCMDuration returns the length of the DCM phase (M negotiation slots).
func (p *Protocol) DCMDuration() time.Duration {
	return time.Duration(p.cfg.M) * p.env.Timing.NegotiationSlot
}

// RefinementDuration returns the length of the UDT beam-refinement cross
// search (phy.Timing.CrossSearch), or of the explicit probe + feedback
// schedule when ExplicitRefinement is on.
func (p *Protocol) RefinementDuration() time.Duration {
	if p.cfg.ExplicitRefinement {
		return p.explicitRefinementDuration()
	}
	return p.env.Timing.CrossSearch(p.cfg.Codebook)
}

// ControlOverhead returns the non-UDT portion of a frame.
func (p *Protocol) ControlOverhead() time.Duration {
	return p.SNDDuration() + p.DCMDuration() + p.RefinementDuration()
}

// RunFrame implements sim.Protocol: it schedules the SND, DCM and UDT phases
// of one 20 ms frame.
func (p *Protocol) RunFrame(frame int) {
	p.teardownUDT()
	p.frame = frame
	now := p.env.Sim.Now()
	p.frameEnd = now.Add(p.env.Timing.Frame)
	for i := range p.cand {
		p.cand[i] = candidate{}
	}
	p.scheduleSND(now)
	dcmStart := now.Add(p.SNDDuration())
	p.scheduleDCM(dcmStart)
	udtStart := dcmStart.Add(p.DCMDuration())
	p.env.Sim.ScheduleAt(udtStart, "mmv2v.udt", p.startUDT)
}

// Discovered returns a sorted copy of vehicle i's currently known neighbor
// IDs (for tests and diagnostics).
func (p *Protocol) Discovered(i int) []int {
	out := make([]int, 0, len(p.discovered[i]))
	for _, x := range p.discovered[i] {
		if p.frame-int(x.Frame) < p.cfg.StalenessFrames {
			out = append(out, int(x.ID))
		}
	}
	return out
}

// SetSlotObserver installs a callback invoked after each DCM negotiation
// slot completes (used by the Fig. 6 experiment).
func (p *Protocol) SetSlotObserver(fn func(frame, slot int)) { p.slotObserver = fn }

// MutualPairs returns the currently agreed candidate pairs (i < j with
// mutual candidacy).
func (p *Protocol) MutualPairs() [][2]int {
	var out [][2]int
	for i := range p.cand {
		ci := p.cand[i]
		if !ci.valid || ci.peer <= i {
			continue
		}
		if cj := p.cand[ci.peer]; cj.valid && cj.peer == i {
			out = append(out, [2]int{i, ci.peer})
		}
	}
	return out
}
