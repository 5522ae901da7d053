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
	"mmv2v/internal/trace"
	"mmv2v/internal/udt"
)

// ADParams configures the IEEE 802.11ad PBSS baseline of Sec. IV-A: beacon
// intervals of one frame, a 30 % PCP election probability, and random PBSS
// join among heard beacons.
type ADParams struct {
	// PCPProb is the per-frame probability a vehicle elects itself PCP
	// (paper: 30 %).
	PCPProb float64
	// ABFTSlots is the number of association beamforming-training slots
	// following the BTI (802.11ad default: 8).
	ABFTSlots int
	// SPDuration is the service-period length the PCP allocates inside the
	// DTI; pairs rotate round-robin across SPs and frames.
	SPDuration time.Duration
	// ReassocEvery is how many beacon intervals a PBSS membership persists
	// before PCPs are re-elected and vehicles re-join (802.11ad association
	// is sticky; re-forming every 20 ms frame would be unrealistically
	// favorable for the OHM task).
	ReassocEvery int
	// Codebook is the beam configuration (shared with the other schemes).
	Codebook phy.Codebook
}

// DefaultADParams returns the paper's 802.11ad configuration.
func DefaultADParams() ADParams {
	return ADParams{
		PCPProb:      0.3,
		ABFTSlots:    8,
		SPDuration:   4 * time.Millisecond,
		ReassocEvery: 10,
		Codebook:     phy.DefaultCodebook(),
	}
}

// Validate reports configuration errors.
func (p ADParams) Validate() error {
	switch {
	case p.PCPProb <= 0 || p.PCPProb >= 1:
		return fmt.Errorf("baseline: PCP probability %v outside (0,1)", p.PCPProb)
	case p.ABFTSlots <= 0:
		return fmt.Errorf("baseline: non-positive A-BFT slots %d", p.ABFTSlots)
	case p.SPDuration <= 0:
		return fmt.Errorf("baseline: non-positive SP duration %v", p.SPDuration)
	case p.ReassocEvery <= 0:
		return fmt.Errorf("baseline: non-positive reassociation period %d", p.ReassocEvery)
	}
	return p.Codebook.Validate()
}

// beacon is a DMG beacon swept by a PCP during the BTI: the swept sector.
// The PCP is the delivery's From. An integer below 256 boxes into a
// Delivery payload without allocating.
type beacon int

// assocReq is an A-BFT association frame from a member toward its PCP.
type assocReq struct {
	from, pcp int
	// towardSector is the member's own sector index pointing at the PCP, so
	// the PCP can reply on the opposite sector.
	towardSector int
}

// AD is the IEEE 802.11ad PBSS baseline: per beacon interval (= one frame),
// vehicles elect PCPs, PCPs beacon via sector sweep, non-PCPs join a random
// heard PBSS via slotted A-BFT, and the PCP time-shares the DTI among member
// pairs as service periods. Multiple PBSSs share the channel co-channel,
// so inter-PBSS interference is real.
type AD struct {
	env *sim.Env
	cfg ADParams

	// isPCP[i] marks this frame's PCPs.
	isPCP []bool
	// heardBeacons[i] maps PCP → (best SNR, member's toward-sector).
	heardBeacons []map[int]*discovery
	// joined[i] is the PBSS (PCP id) vehicle i associated with (-1 none).
	joined []int
	// members[p] lists vehicles associated to PCP p this frame (incl. p).
	members map[int][]int
	// spRotation persists round-robin fairness across frames, per PCP.
	spRotation map[int]int
	// beaconRx[i] and assocRx[i] are vehicle i's BTI and A-BFT receive
	// handlers, built once.
	beaconRx []medium.Handler
	assocRx  []medium.Handler

	frame    int
	sessions []*udt.Session

	// Statistics handles (nil-safe no-ops when Env.Obs is nil).
	obsBeaconTx     *obs.Counter
	obsAssocTx      *obs.Counter
	obsAssociations *obs.Counter
}

// NewAD builds the 802.11ad baseline.
func NewAD(env *sim.Env, cfg ADParams) *AD {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("baseline: invalid 802.11ad params for scenario seed %#x (%d vehicles): %v",
			env.Seed, env.N(), err))
	}
	n := env.N()
	a := &AD{
		env:          env,
		cfg:          cfg,
		isPCP:        make([]bool, n),
		heardBeacons: make([]map[int]*discovery, n),
		joined:       make([]int, n),
		spRotation:   make(map[int]int),
		beaconRx:     make([]medium.Handler, n),
		assocRx:      make([]medium.Handler, n),
	}
	for i := range a.heardBeacons {
		a.heardBeacons[i] = make(map[int]*discovery)
		a.beaconRx[i] = func(d medium.Delivery) { a.onBeacon(i, d) }
		a.assocRx[i] = func(d medium.Delivery) { a.onAssoc(i, d) }
	}
	a.obsBeaconTx = env.Obs.Counter("ad.beacon_tx")
	a.obsAssocTx = env.Obs.Counter("ad.assoc_tx")
	a.obsAssociations = env.Obs.Counter("ad.associations")
	env.OnRefresh(a.onRefresh)
	return a
}

// Name implements sim.Protocol.
func (a *AD) Name() string { return "802.11ad" }

// ADFactory returns a sim.Factory for this configuration.
func ADFactory(cfg ADParams) sim.Factory {
	return func(env *sim.Env) sim.Protocol { return NewAD(env, cfg) }
}

// RunFrame implements sim.Protocol: BTI (beacon sector sweep) → A-BFT
// (slotted association) → DTI (service periods).
func (a *AD) RunFrame(frame int) {
	for _, s := range a.sessions {
		s.Stop()
	}
	a.sessions = nil
	a.frame = frame
	now := a.env.Sim.Now()
	n := a.env.N()

	slot := a.env.Timing.SectorSlot()
	s := a.cfg.Codebook.Sectors.Count
	btiEnd := now.Add(time.Duration(s) * slot)
	abftSlot := a.env.Timing.SectorSlot() + a.env.Timing.SIFS
	abftEnd := btiEnd.Add(time.Duration(a.cfg.ABFTSlots) * abftSlot)
	frameEnd := now.Add(a.env.Timing.Frame)

	if frame%a.cfg.ReassocEvery == 0 {
		// Re-form PBSSs: elect PCPs, beacon, associate.
		a.members = make(map[int][]int)
		for i := 0; i < n; i++ {
			a.joined[i] = -1
			a.heardBeacons[i] = make(map[int]*discovery)
			a.isPCP[i] = a.env.Rand.Child("ad.pcp", uint64(i), uint64(frame)).Bool(a.cfg.PCPProb)
		}
		for sector := 0; sector < s; sector++ {
			at := now.Add(time.Duration(sector) * slot).Add(a.env.Timing.BeamSwitch)
			sector := sector
			a.env.Sim.ScheduleAt(at, "ad.bti", func() { a.btiSlot(sector) })
		}
		a.env.Sim.ScheduleAt(btiEnd, "ad.abft.plan", a.planABFT)
		for k := 0; k < a.cfg.ABFTSlots; k++ {
			at := btiEnd.Add(time.Duration(k) * abftSlot).Add(a.env.Timing.BeamSwitch)
			k := k
			a.env.Sim.ScheduleAt(at, "ad.abft", func() { a.abftSlot(k) })
		}
	}
	// Beacon intervals keep the same structure whether or not PBSSs were
	// re-formed (PCPs still beacon in reality); the DTI starts after the
	// BTI + A-BFT window.
	a.env.Sim.ScheduleAt(abftEnd, "ad.dti", func() { a.startDTI(abftEnd, frameEnd) })
}

// btiSlot transmits every PCP's beacon on the given sector while non-PCPs
// listen quasi-omni.
func (a *AD) btiSlot(sector int) {
	cb := a.cfg.Codebook
	n := a.env.N()
	for i := 0; i < n; i++ {
		if a.isPCP[i] {
			continue
		}
		a.env.Medium.StartListen(i, phy.Omni, a.beaconRx[i])
	}
	beam := phy.Beam{Bearing: cb.Sectors.Center(sector), Width: cb.TxWidth}
	for i := 0; i < n; i++ {
		if !a.isPCP[i] {
			continue
		}
		a.env.Medium.Transmit(i, beam, a.env.Timing.SSW, beacon(sector))
		a.obsBeaconTx.Inc()
	}
}

// onBeacon records the strongest beacon reception per PCP; the sweep sector
// of the strongest beacon reveals the member's direction toward the PCP
// (sectors are indexed from absolute north for everyone, so the member's
// toward-sector is the opposite of the PCP's best sweep sector).
func (a *AD) onBeacon(me int, d medium.Delivery) {
	sector, ok := d.Payload.(beacon)
	if !ok {
		return
	}
	info := a.heardBeacons[me][d.From]
	if info == nil {
		info = &discovery{snrDB: d.SNRdB, towardSector: a.cfg.Codebook.Sectors.Opposite(int(sector)), lastFrame: a.frame}
		a.heardBeacons[me][d.From] = info
		return
	}
	if d.SNRdB > info.snrDB {
		info.snrDB = d.SNRdB
		info.towardSector = a.cfg.Codebook.Sectors.Opposite(int(sector))
	}
}

// planABFT: each non-PCP that heard beacons joins a uniformly random heard
// PBSS ("a vehicle will randomly choose a PBSS to join in") and picks a
// random A-BFT slot.
func (a *AD) planABFT() {
	n := a.env.N()
	for i := 0; i < n; i++ {
		if a.isPCP[i] || len(a.heardBeacons[i]) == 0 {
			continue
		}
		pcps := make([]int, 0, len(a.heardBeacons[i]))
		//mmv2v:sorted pure key collection; sorted below before the random draw
		for p := range a.heardBeacons[i] {
			pcps = append(pcps, p)
		}
		sort.Ints(pcps)
		rng := a.env.Rand.Child("ad.join", uint64(i), uint64(a.frame))
		a.joined[i] = pcps[rng.Intn(len(pcps))]
	}
}

// abftSlot: members whose random slot is k transmit their association frame
// toward their PBSS's PCP; PCPs listen quasi-omni. Two members of the same
// PBSS in the same slot collide at the PCP — the 802.11ad contention the
// paper's baseline inherits.
func (a *AD) abftSlot(k int) {
	cb := a.cfg.Codebook
	n := a.env.N()
	for i := 0; i < n; i++ {
		if !a.isPCP[i] {
			continue
		}
		a.env.Medium.StartListen(i, phy.Omni, a.assocRx[i])
	}
	for i := 0; i < n; i++ {
		p := a.joined[i]
		if a.isPCP[i] || p < 0 {
			continue
		}
		rng := a.env.Rand.Child("ad.abftslot", uint64(i), uint64(a.frame))
		if rng.Intn(a.cfg.ABFTSlots) != k {
			continue
		}
		info := a.heardBeacons[i][p]
		beam := phy.Beam{Bearing: cb.Sectors.Center(info.towardSector), Width: cb.TxWidth}
		a.env.Medium.Transmit(i, beam, a.env.Timing.SSW,
			assocReq{from: i, pcp: p, towardSector: info.towardSector})
		a.obsAssocTx.Inc()
	}
}

// onAssoc registers a successfully decoded association at the PCP.
func (a *AD) onAssoc(pcp int, d medium.Delivery) {
	req, ok := d.Payload.(assocReq)
	if !ok || req.pcp != pcp {
		return
	}
	for _, m := range a.members[pcp] {
		if m == req.from {
			return
		}
	}
	a.members[pcp] = append(a.members[pcp], req.from)
	a.obsAssociations.Inc()
	a.env.Trace.Emit(trace.Event{
		At: d.At, Frame: a.frame, Kind: trace.KindAssociation, A: req.from, B: pcp,
	})
}

// startDTI carves the remaining beacon interval into service periods. At
// each SP boundary every PBSS picks its next member pair round-robin
// (rotation persists across frames for fairness); the pair runs an SLS
// refinement (time cost) and then streams until the SP ends. PBSSs operate
// co-channel, so their SPs interfere with each other.
func (a *AD) startDTI(dtiStart, frameEnd des.Time) {
	spDur := a.cfg.SPDuration
	for t := dtiStart; t.Add(spDur) <= frameEnd; t = t.Add(spDur) {
		t := t
		a.env.Sim.ScheduleAt(t, "ad.sp", func() { a.servicePeriod(t.Add(spDur)) })
	}
}

// pbssPairs lists the unordered communication pairs of a PBSS: the PCP and
// all its associated members.
func (a *AD) pbssPairs(pcp int) [][2]int {
	all := append([]int{pcp}, a.members[pcp]...)
	sort.Ints(all)
	var out [][2]int
	for x := 0; x < len(all); x++ {
		for y := x + 1; y < len(all); y++ {
			out = append(out, [2]int{all[x], all[y]})
		}
	}
	return out
}

// servicePeriod runs one SP: each PBSS schedules one pair.
func (a *AD) servicePeriod(spEnd des.Time) {
	for _, s := range a.sessions {
		s.Stop()
	}
	a.sessions = nil

	pcps := make([]int, 0, len(a.members))
	//mmv2v:sorted pure key collection; sorted below before pair scheduling
	for p := range a.members {
		pcps = append(pcps, p)
	}
	sort.Ints(pcps)
	var pairs []udt.Pair
	for _, p := range pcps {
		cand := a.pbssPairs(p)
		if len(cand) == 0 {
			continue
		}
		// Round-robin with completed pairs skipped.
		var chosen *[2]int
		for k := 0; k < len(cand); k++ {
			pr := cand[(a.spRotation[p]+k)%len(cand)]
			if !a.env.PairDone(pr[0], pr[1]) {
				chosen = &pr
				a.spRotation[p] += k + 1
				break
			}
		}
		if chosen == nil {
			continue
		}
		// The PCP coordinates an SLS between the pair at SP start (charged
		// below); the search lands on the true-bearing narrow beams.
		beamA, beamB := udt.RefineBeams(a.env, chosen[0], chosen[1], a.cfg.Codebook, -1, -1)
		pairs = append(pairs, udt.Pair{A: chosen[0], B: chosen[1], BeamA: beamA, BeamB: beamB})
	}
	if len(pairs) == 0 {
		return
	}
	refine := 2*time.Duration(a.cfg.Codebook.RefinementBeams())*a.env.Timing.SectorSlot() + 2*a.env.Timing.SIFS
	streamStart := a.env.Sim.Now().Add(refine)
	if streamStart >= spEnd {
		return
	}
	a.env.Sim.ScheduleAt(streamStart, "ad.sp.stream", func() {
		a.sessions = append(a.sessions, udt.Start(a.env, pairs, a.frame))
	})
}

func (a *AD) onRefresh() {
	for _, s := range a.sessions {
		s.OnRefresh()
	}
}

// PBSSCount returns the number of PBSSs with at least one member this frame
// (for tests).
func (a *AD) PBSSCount() int { return len(a.members) }

// MemberCount returns the total number of associated members (for tests).
func (a *AD) MemberCount() int {
	n := 0
	//mmv2v:sorted commutative integer count; order cannot affect the total
	for _, ms := range a.members {
		n += len(ms)
	}
	return n
}
