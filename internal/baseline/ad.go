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
	// heardBeacons[i] holds, per PCP vehicle i heard, the strongest beacon's
	// SNR and i's sector toward the PCP.
	heardBeacons []sim.Sightings
	// joined[i] is the PBSS (PCP id) vehicle i associated with (-1 none).
	joined []int
	// members[p] lists the vehicles associated to PCP p this frame; the PCP
	// itself is not listed (pbssPairs adds it).
	members [][]int
	// spRotation[p] persists PCP p's round-robin position across frames.
	spRotation []int
	// beaconRx and assocRx are the BTI and A-BFT receive handlers, bound
	// once.
	beaconRx medium.Handler
	assocRx  medium.Handler

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
		heardBeacons: make([]sim.Sightings, n),
		joined:       make([]int, n),
		members:      make([][]int, n),
		spRotation:   make([]int, n),
	}
	a.beaconRx = a.onBeacon
	a.assocRx = a.onAssoc
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
		for i := 0; i < n; i++ {
			a.joined[i] = -1
			a.members[i] = a.members[i][:0]
			a.heardBeacons[i] = a.heardBeacons[i][:0]
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
		a.env.Medium.StartListen(i, phy.Omni, a.beaconRx)
	}
	// A DMG beacon carries the swept sector; the PCP is the delivery's From.
	beam := phy.Beam{Bearing: cb.Sectors.Center(sector), Width: cb.TxWidth}
	beacon := medium.Frame{Kind: medium.KindBeacon, Dest: -1, Index: int32(sector)}
	for i := 0; i < n; i++ {
		if !a.isPCP[i] {
			continue
		}
		a.env.Medium.Transmit(i, beam, a.env.Timing.SSW, beacon)
		a.obsBeaconTx.Inc()
	}
}

// onBeacon records the strongest beacon reception per PCP; the sweep sector
// of the strongest beacon reveals the member's direction toward the PCP
// (sectors are indexed from absolute north for everyone, so the member's
// toward-sector is the opposite of the PCP's best sweep sector).
func (a *AD) onBeacon(d medium.Delivery) {
	if d.Frame.Kind != medium.KindBeacon {
		return
	}
	a.heardBeacons[d.To].Hear(d.From, d.SNRdB, a.cfg.Codebook.Sectors.Opposite(int(d.Frame.Index)), a.frame)
}

// planABFT: each non-PCP that heard beacons joins a uniformly random heard
// PBSS ("a vehicle will randomly choose a PBSS to join in") and picks a
// random A-BFT slot.
func (a *AD) planABFT() {
	n := a.env.N()
	for i := 0; i < n; i++ {
		heard := a.heardBeacons[i]
		if a.isPCP[i] || len(heard) == 0 {
			continue
		}
		rng := a.env.Rand.Child("ad.join", uint64(i), uint64(a.frame))
		a.joined[i] = int(heard[rng.Intn(len(heard))].ID)
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
		a.env.Medium.StartListen(i, phy.Omni, a.assocRx)
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
		// The frame names the member's own sector toward the PCP, so the
		// PCP can reply on the opposite sector.
		info, _ := a.heardBeacons[i].Get(p)
		beam := phy.Beam{Bearing: cb.Sectors.Center(int(info.Sector)), Width: cb.TxWidth}
		a.env.Medium.Transmit(i, beam, a.env.Timing.SSW,
			medium.Frame{Kind: medium.KindAssoc, Dest: int32(p), Index: info.Sector})
		a.obsAssocTx.Inc()
	}
}

// onAssoc registers a successfully decoded association at the PCP.
func (a *AD) onAssoc(d medium.Delivery) {
	pcp := d.To
	if d.Frame.Kind != medium.KindAssoc || int(d.Frame.Dest) != pcp {
		return
	}
	for _, m := range a.members[pcp] {
		if m == d.From {
			return
		}
	}
	a.members[pcp] = append(a.members[pcp], d.From)
	a.obsAssociations.Inc()
	a.env.Trace.Emit(trace.Event{
		At: d.At, Frame: a.frame, Kind: trace.KindAssociation, A: d.From, B: pcp,
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

	var pairs []udt.Pair
	for p, ms := range a.members {
		if len(ms) == 0 {
			continue
		}
		cand := a.pbssPairs(p)
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
	streamStart := a.env.Sim.Now().Add(a.env.Timing.CrossSearch(a.cfg.Codebook))
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
