// Package baseline implements the two comparison schemes of Sec. IV-A:
// the Random OHM Protocol (ROP) — random neighbor discovery and random
// mutual-choice matching — and an IEEE 802.11ad PBSS-based scheme with PCP
// election, sector-sweep beaconing, A-BFT association and DTI service
// periods. Both run over exactly the same medium, channel, timing and task
// bookkeeping as mmV2V.
package baseline

import (
	"fmt"
	"sort"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/udt"
	"mmv2v/internal/units"
)

// discovery is what a vehicle learned about a peer from received sweeps.
type discovery struct {
	snrDB        units.DB
	towardSector int
	lastFrame    int
}

// ROPParams configures the Random OHM Protocol. The control budget
// (discovery slots, matching slots) defaults to exactly mmV2V's, so the
// comparison isolates coordination quality rather than airtime.
type ROPParams struct {
	// RoleP is the per-slot transmitter probability.
	RoleP float64
	// DiscoverySlots is the number of random sweep/sense slots per frame
	// (mmV2V uses K·2·S = 144).
	DiscoverySlots int
	// MatchRounds is the number of random matching rounds per frame. The
	// paper's rule — "a pair of vehicles are matched if they are both
	// unmatched before and choose each other" — is applied as an idealized
	// logical round (no message-level failures, favoring the baseline);
	// the default is a single round per frame.
	MatchRounds int
	// Codebook is the beam configuration (shared with mmV2V).
	Codebook phy.Codebook
	// StalenessFrames expires stale discoveries, as in mmV2V.
	StalenessFrames int
	// FreshFrames is how recent both endpoints' mutual discovery must be
	// for a matched pair to beam-align and transfer in a frame: unlike
	// mmV2V, ROP has no synchronized re-discovery, so a pair communicates
	// only in frames where random sweeps re-found the partner.
	FreshFrames int
	// BreakAfterIdle dissolves a match after this many consecutive frames
	// without progress (endpoints drifted or can't re-align).
	BreakAfterIdle int
	// MinLinkSNRdB is the discovery admission threshold, as in mmV2V.
	MinLinkSNRdB units.DB
}

// DefaultROPParams returns the budget-matched ROP configuration.
func DefaultROPParams() ROPParams {
	cb := phy.DefaultCodebook()
	return ROPParams{
		RoleP:          0.5,
		DiscoverySlots: 3 * 2 * cb.Sectors.Count,
		MatchRounds:    1,
		Codebook:       cb,
		// Random discovery is slow and interference-limited, so ROP keeps
		// identified neighbors for a full second (the paper's ROP carries
		// its discovered set across the window).
		StalenessFrames: 50,
		FreshFrames:     3,
		BreakAfterIdle:  3,
		MinLinkSNRdB:    16,
	}
}

// Validate reports configuration errors.
func (p ROPParams) Validate() error {
	switch {
	case p.RoleP <= 0 || p.RoleP >= 1:
		return fmt.Errorf("baseline: ROP role probability %v outside (0,1)", p.RoleP)
	case p.DiscoverySlots <= 0:
		return fmt.Errorf("baseline: non-positive discovery slots %d", p.DiscoverySlots)
	case p.MatchRounds <= 0:
		return fmt.Errorf("baseline: non-positive match rounds %d", p.MatchRounds)
	case p.StalenessFrames <= 0:
		return fmt.Errorf("baseline: non-positive staleness %d", p.StalenessFrames)
	case p.FreshFrames <= 0:
		return fmt.Errorf("baseline: non-positive freshness window %d", p.FreshFrames)
	case p.BreakAfterIdle <= 0:
		return fmt.Errorf("baseline: non-positive idle break %d", p.BreakAfterIdle)
	}
	return p.Codebook.Validate()
}

// ropSweep is the payload of a random discovery sweep: the swept sector.
// The sender is the delivery's From. An integer below 256 boxes into a
// Delivery payload without allocating.
type ropSweep int

// txPlan is a transmitter of a discovery slot and the sector it sweeps.
type txPlan struct {
	i      int
	sector int
}

// ROP is the Random OHM Protocol baseline (Sec. IV-A): in discovery, each
// vehicle randomly picks a role and a direction each slot; a neighbor is
// identified when beams happen to align. In matching, each vehicle picks a
// uniformly random discovered neighbor; a pair matches only when the choice
// is mutual (confirmed by decoding each other's requests).
type ROP struct {
	env *sim.Env
	cfg ROPParams

	discovered []map[int]*discovery
	// pick[i] is i's matching choice this round (-1 idle).
	pick []int
	// matched[i] is i's agreed partner (-1 none). Matches persist across
	// frames — the paper matches vehicles that are "both unmatched before"
	// — until the pair completes its exchange or the link breaks.
	matched []int
	// pairBits tracks each vehicle's pair exchange at the last frame
	// boundary, and idleFrames counts consecutive frames without progress.
	pairBits   []float64
	idleFrames []int
	// senseSector[i] is the sector vehicle i last aimed its receiver at, and
	// rx[i] its receive handler, built once.
	senseSector []int
	rx          []medium.Handler
	// txs is discoverSlot's scratch list of the slot's transmitters.
	txs []txPlan

	frame    int
	frameEnd des.Time
	session  *udt.Session

	// Statistics handles (nil-safe no-ops when Env.Obs is nil).
	obsSweepTx     *obs.Counter
	obsDiscoveries *obs.Counter
	obsMatches     *obs.Counter
}

// NewROP builds the ROP baseline.
func NewROP(env *sim.Env, cfg ROPParams) *ROP {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("baseline: invalid ROP params for scenario seed %#x (%d vehicles): %v",
			env.Seed, env.N(), err))
	}
	n := env.N()
	r := &ROP{
		env:         env,
		cfg:         cfg,
		discovered:  make([]map[int]*discovery, n),
		pick:        make([]int, n),
		matched:     make([]int, n),
		pairBits:    make([]float64, n),
		idleFrames:  make([]int, n),
		senseSector: make([]int, n),
		rx:          make([]medium.Handler, n),
	}
	for i := range r.matched {
		r.matched[i] = -1
		r.rx[i] = func(d medium.Delivery) { r.onSweep(i, d) }
	}
	for i := range r.discovered {
		r.discovered[i] = make(map[int]*discovery)
	}
	r.obsSweepTx = env.Obs.Counter("rop.sweep_tx")
	r.obsDiscoveries = env.Obs.Counter("rop.discoveries")
	r.obsMatches = env.Obs.Counter("rop.matches")
	env.OnRefresh(r.onRefresh)
	return r
}

// Name implements sim.Protocol.
func (r *ROP) Name() string { return "ROP" }

// ROPFactory returns a sim.Factory for this configuration.
func ROPFactory(cfg ROPParams) sim.Factory {
	return func(env *sim.Env) sim.Protocol { return NewROP(env, cfg) }
}

// RunFrame implements sim.Protocol.
func (r *ROP) RunFrame(frame int) {
	if r.session != nil {
		r.session.Stop()
		r.session = nil
	}
	r.frame = frame
	now := r.env.Sim.Now()
	r.frameEnd = now.Add(r.env.Timing.Frame)
	// Matches persist, but dissolve when the pair completed its demand or
	// made no progress for BreakAfterIdle frames (endpoints drifted apart
	// or keep failing to re-align).
	for i := range r.matched {
		r.pick[i] = -1
		j := r.matched[i]
		if j < 0 {
			continue
		}
		cur := r.env.Ledger.Exchanged(i, j)
		//mmv2v:exact intentional exact no-progress check: any accrual changes the ledger value bit-for-bit
		if cur == r.pairBits[i] {
			r.idleFrames[i]++
		} else {
			r.idleFrames[i] = 0
			r.pairBits[i] = cur
		}
		if r.env.PairDone(i, j) || r.idleFrames[i] >= r.cfg.BreakAfterIdle {
			r.matched[i] = -1
			if r.matched[j] == i {
				r.matched[j] = -1
			}
		}
	}
	slot := r.env.Timing.SectorSlot()
	for k := 0; k < r.cfg.DiscoverySlots; k++ {
		at := now.Add(time.Duration(k) * slot).Add(r.env.Timing.BeamSwitch)
		k := k
		r.env.Sim.ScheduleAt(at, "rop.discover", func() { r.discoverSlot(k) })
	}
	matchStart := now.Add(time.Duration(r.cfg.DiscoverySlots) * slot)
	slotDur := r.env.Timing.NegotiationSlot
	for m := 0; m < r.cfg.MatchRounds; m++ {
		slotStart := matchStart.Add(time.Duration(m) * slotDur)
		m := m
		r.env.Sim.ScheduleAt(slotStart, "rop.match", func() { r.matchRound(m) })
	}
	udtStart := matchStart.Add(time.Duration(r.cfg.MatchRounds) * slotDur)
	r.env.Sim.ScheduleAt(udtStart, "rop.udt", r.startUDT)
}

// discoverSlot: every vehicle flips a role coin and points at a uniformly
// random sector; transmitters sweep, receivers sense. Alignment is luck.
func (r *ROP) discoverSlot(k int) {
	n := r.env.N()
	cb := r.cfg.Codebook
	txs := r.txs[:0]
	for i := 0; i < n; i++ {
		rng := r.env.Rand.Child("rop.slot", uint64(i), uint64(r.frame), uint64(k))
		sector := rng.Intn(cb.Sectors.Count)
		if rng.Bool(r.cfg.RoleP) {
			txs = append(txs, txPlan{i: i, sector: sector})
			r.env.Medium.StopListen(i)
		} else {
			beam := phy.Beam{Bearing: cb.Sectors.Center(sector), Width: cb.RxWidth}
			// A frame reaches only a listener aimed for its whole
			// duration, so the handler reads the sector of the aim that
			// heard it.
			r.senseSector[i] = sector
			r.env.Medium.StartListen(i, beam, r.rx[i])
		}
	}
	r.txs = txs
	for _, tx := range txs {
		beam := phy.Beam{Bearing: cb.Sectors.Center(tx.sector), Width: cb.TxWidth}
		r.env.Medium.Transmit(tx.i, beam, r.env.Timing.SSW, ropSweep(tx.sector))
		r.obsSweepTx.Inc()
	}
}

// onSweep records a decoded random sweep, keeping the strongest reception
// per frame like mmV2V's SND.
func (r *ROP) onSweep(me int, d medium.Delivery) {
	if _, ok := d.Payload.(ropSweep); !ok {
		return
	}
	if d.SINRdB < r.cfg.MinLinkSNRdB {
		return
	}
	info := r.discovered[me][d.From]
	if info == nil {
		info = &discovery{}
		r.discovered[me][d.From] = info
		r.obsDiscoveries.Inc()
	}
	if info.lastFrame == r.frame && info.snrDB >= d.SINRdB {
		return
	}
	info.snrDB = d.SINRdB
	info.towardSector = r.senseSector[me]
	info.lastFrame = r.frame
}

// eligible returns i's fresh, incomplete discovered neighbors, sorted.
func (r *ROP) eligible(i int) []int {
	out := make([]int, 0, len(r.discovered[i]))
	//mmv2v:sorted pure key collection with order-free filter; sorted below before returning
	for j, info := range r.discovered[i] {
		if r.frame-info.lastFrame >= r.cfg.StalenessFrames {
			continue
		}
		if r.env.PairDone(i, j) {
			continue
		}
		out = append(out, j)
	}
	sort.Ints(out)
	return out
}

// matchRound applies the paper's matching rule once: every still-unmatched
// vehicle picks a uniformly random eligible neighbor; a pair is matched iff
// both were unmatched before and chose each other. The rule is applied as a
// logical round (the paper specifies no request/response protocol for ROP).
func (r *ROP) matchRound(m int) {
	n := r.env.N()
	for i := 0; i < n; i++ {
		r.pick[i] = -1
		if r.matched[i] >= 0 {
			continue
		}
		elig := r.eligible(i)
		// Exclude already-matched peers: they won't reciprocate.
		filtered := elig[:0]
		for _, j := range elig {
			if r.matched[j] < 0 {
				filtered = append(filtered, j)
			}
		}
		if len(filtered) == 0 {
			continue
		}
		rng := r.env.Rand.Child("rop.pick", uint64(i), uint64(r.frame), uint64(m))
		r.pick[i] = filtered[rng.Intn(len(filtered))]
	}
	for i := 0; i < n; i++ {
		j := r.pick[i]
		if j < 0 || j < i {
			continue
		}
		if r.pick[j] == i {
			r.matched[i] = j
			r.matched[j] = i
			r.obsMatches.Inc()
			r.pairBits[i] = r.env.Ledger.Exchanged(i, j)
			r.pairBits[j] = r.pairBits[i]
			r.idleFrames[i] = 0
			r.idleFrames[j] = 0
		}
	}
}

// startUDT streams data between matched pairs for the rest of the frame,
// after the same beam-refinement cost mmV2V pays.
func (r *ROP) startUDT() {
	var pairs []udt.Pair
	n := r.env.N()
	for i := 0; i < n; i++ {
		j := r.matched[i]
		if j <= i {
			continue
		}
		if r.matched[j] != i || r.env.PairDone(i, j) {
			continue
		}
		// Without synchronized re-discovery, the pair can only align if
		// both sides re-found each other recently.
		infoI, infoJ := r.discovered[i][j], r.discovered[j][i]
		if infoI == nil || infoJ == nil ||
			r.frame-infoI.lastFrame >= r.cfg.FreshFrames ||
			r.frame-infoJ.lastFrame >= r.cfg.FreshFrames {
			continue
		}
		coarseI, coarseJ := infoI.towardSector, infoJ.towardSector
		beamI, beamJ := udt.RefineBeams(r.env, i, j, r.cfg.Codebook, coarseI, coarseJ)
		pairs = append(pairs, udt.Pair{A: i, B: j, BeamA: beamI, BeamB: beamJ})
	}
	if len(pairs) == 0 {
		return
	}
	s := time.Duration(r.cfg.Codebook.RefinementBeams())
	refine := 2*s*r.env.Timing.SectorSlot() + 2*r.env.Timing.SIFS
	streamStart := r.env.Sim.Now().Add(refine)
	if streamStart >= r.frameEnd {
		return
	}
	r.env.Sim.ScheduleAt(streamStart, "rop.udt.stream", func() {
		r.session = udt.Start(r.env, pairs, r.frame)
	})
}

func (r *ROP) onRefresh() {
	if r.session != nil {
		r.session.OnRefresh()
	}
}

// MatchedCount returns the number of matched vehicles this frame (tests).
func (r *ROP) MatchedCount() int {
	n := 0
	for _, m := range r.matched {
		if m >= 0 {
			n++
		}
	}
	return n
}
