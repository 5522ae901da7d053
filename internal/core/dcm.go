package core

import (
	"math"
	"sort"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/phy"
	"mmv2v/internal/trace"
	"mmv2v/internal/units"
)

// negMsg is a DCM candidate-information message (first half of a slot):
// the sender tells its designated peer the SNR it measured on their mutual
// link and the quality of its current candidate link, if any (Sec. III-C2).
type negMsg struct {
	from, to int
	// linkSNR is the sender's SSW measurement of the (from, to) link.
	linkSNR units.DB
	// candSNR is the sender's current candidate link quality.
	candSNR units.DB
	hasCand bool
}

// breakMsg informs a previous candidate that the sender has switched away
// (second half of a slot).
type breakMsg struct {
	from, to int
}

// breakup is a break-up notification decided in a slot: from has switched
// away from its previous candidate to.
type breakup struct{ from, to int }

// scheduleDCM schedules the Distributed Consensual Matching phase
// (Sec. III-C): M negotiation slots, each serving CNS bucket (slot mod C).
//
// Slot micro-structure (fits the paper's 30 µs with the 4.3 µs control
// preamble and 3 µs SIFS):
//
//	t+0        first sender (larger ID) transmits its negMsg
//	t+pre+SIFS second sender replies (only if it decoded the first message)
//	t+half     decision point; break-up notifications transmitted
func (p *Protocol) scheduleDCM(start des.Time) {
	slotDur := p.env.Timing.NegotiationSlot
	pre := p.env.Timing.ControlPreamble
	sifs := p.env.Timing.SIFS
	for m := 0; m < p.cfg.M; m++ {
		slotStart := start.Add(time.Duration(m) * slotDur)
		m := m
		p.env.Sim.ScheduleAt(slotStart, "mmv2v.dcm.first", func() { p.dcmSlotBegin(m) })
		p.env.Sim.ScheduleAt(slotStart.Add(pre+sifs), "mmv2v.dcm.reply", p.dcmReply)
		p.env.Sim.ScheduleAt(slotStart.Add(slotDur/2), "mmv2v.dcm.decide", func() { p.dcmDecide(m) })
	}
}

// eligibleNeighbors returns i's sorted working set: discovered, fresh, and
// with the task not yet complete. The slice is scratch, valid until the
// next call.
func (p *Protocol) eligibleNeighbors(i int) []int {
	out := p.elig[:0]
	//mmv2v:sorted pure key collection with order-free filter; sorted below before returning
	for j, info := range p.discovered[i] {
		if p.frame-info.lastFrame >= p.cfg.StalenessFrames {
			continue
		}
		if p.env.PairDone(i, j) {
			continue
		}
		out = append(out, j)
	}
	sort.Ints(out)
	p.elig = out
	return out
}

// dcmSlotBegin assigns each vehicle its designated peer for slot m via the
// CNS (Sec. III-C1), then lets the first senders (larger ID of each
// designated pair) transmit while their peers listen.
func (p *Protocol) dcmSlotBegin(m int) {
	bucket := m % p.cfg.C
	n := p.env.N()
	for i := 0; i < n; i++ {
		p.negPeer[i] = -1
		p.gotMsg[i] = negotiationState{}
		inBucket := p.inBucket[:0]
		for _, j := range p.eligibleNeighbors(i) {
			if p.Bucket(i, j) == bucket {
				inBucket = append(inBucket, j)
			}
		}
		p.inBucket = inBucket
		switch len(inBucket) {
		case 0:
		case 1:
			p.negPeer[i] = inBucket[0]
		default:
			// Hash collision or small C: pick one at random (Sec. III-C1).
			pick := p.env.Rand.Child("mmv2v.dcm.pick", uint64(i), uint64(p.frame), uint64(m))
			p.negPeer[i] = inBucket[pick.Intn(len(inBucket))]
		}
	}
	// First half: larger ID transmits, peer listens (footnote 1: "the
	// vehicle with a larger MAC address does first").
	for i := 0; i < n; i++ {
		j := p.negPeer[i]
		if j < 0 {
			p.env.Medium.StopListen(i)
			continue
		}
		if i > j {
			p.transmitNeg(i, j)
		} else {
			p.listenToward(i, j)
		}
	}
}

// dcmReply lets second senders (smaller ID) respond — but only if they
// decoded the first message, so the reply doubles as an acknowledgement.
func (p *Protocol) dcmReply() {
	n := p.env.N()
	for i := 0; i < n; i++ {
		j := p.negPeer[i]
		if j < 0 {
			continue
		}
		if i < j {
			if p.gotMsg[i].got {
				p.transmitNeg(i, j)
			}
		} else {
			p.listenToward(i, j)
		}
	}
}

// pairQuality scores a prospective pair for the DCM update rule: the
// conservative minimum of the two SSW measurements, plus the optional
// fairness bias toward pairs with less completed work.
func (p *Protocol) pairQuality(i, j int, mySNR, theirSNR units.DB) units.DB {
	q := units.DB(math.Min(mySNR.Decibels(), theirSNR.Decibels()))
	//mmv2v:exact config gate: the bias term is enabled iff the knob was set to a nonzero literal
	if p.cfg.FairnessBiasDB != 0 {
		q += p.cfg.FairnessBiasDB.Times(1 - p.env.Ledger.Progress(i, j, p.env.DemandBits))
	}
	return q
}

// transmitNeg sends vehicle i's negotiation message to j with a sector beam.
func (p *Protocol) transmitNeg(i, j int) {
	info := p.discovered[i][j]
	if info == nil {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(info.towardSector), Width: p.cfg.Codebook.TxWidth}
	msg := negMsg{from: i, to: j, linkSNR: info.snrDB}
	if p.cand[i].valid {
		msg.hasCand = true
		msg.candSNR = p.cand[i].snrDB
	}
	p.env.Medium.Transmit(i, beam, p.env.Timing.ControlPreamble, msg)
	p.Negotiations++
	p.obsNegTx.Inc()
}

// listenToward aims vehicle i's receive beam at neighbor j for negotiation
// traffic.
func (p *Protocol) listenToward(i, j int) {
	info := p.discovered[i][j]
	if info == nil {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(info.towardSector), Width: p.cfg.Codebook.RxWidth}
	p.env.Medium.StartListen(i, beam, p.negRx[i])
}

// onNegTraffic handles negotiation-plane receptions at vehicle me.
func (p *Protocol) onNegTraffic(me int, d medium.Delivery) {
	switch msg := d.Payload.(type) {
	case negMsg:
		if msg.to != me || msg.from != p.negPeer[me] {
			return // overheard someone else's negotiation
		}
		p.gotMsg[me] = negotiationState{
			got:     true,
			linkSNR: msg.linkSNR,
			candSNR: msg.candSNR,
			hasCand: msg.hasCand,
		}
	case breakMsg:
		if msg.to != me {
			return
		}
		// Our candidate has switched to someone better (Sec. III-C2,
		// condition 2 update): we are single again.
		if p.cand[me].valid && p.cand[me].peer == msg.from {
			p.cand[me] = candidate{}
			p.obsBreakupsRecv.Inc()
			p.env.Trace.Emit(trace.Event{
				At: d.At, Frame: p.frame, Kind: trace.KindBreakup,
				A: msg.from, B: me,
			})
		}
	}
}

// dcmDecide applies the candidate link setup/update rule (Sec. III-C2) at
// each vehicle that completed a message exchange this slot, then transmits
// break-up notifications in the slot's second half.
//
// Both endpoints evaluate the same rule on the same inputs (each side's
// measured link SNR travels in the messages; both use the conservative
// minimum), so their decisions agree whenever both messages were decoded.
func (p *Protocol) dcmDecide(slot int) {
	n := p.env.N()
	breakups := p.breakups[:0]
	for i := 0; i < n; i++ {
		j := p.negPeer[i]
		st := p.gotMsg[i]
		if j < 0 || !st.got {
			continue
		}
		// For the larger-ID side the decoded message was the reply, which
		// only exists if the peer decoded our message: full information.
		// For the smaller-ID side, decoding the first message plus sending
		// the reply is its best knowledge (the reply could still be lost at
		// the peer — a rare inconsistency the protocol tolerates).
		mine := p.discovered[i][j]
		if mine == nil {
			continue
		}
		pairQ := p.pairQuality(i, j, mine.snrDB, st.linkSNR)
		myOK := !p.cand[i].valid || pairQ > p.cand[i].snrDB
		theirOK := !st.hasCand || pairQ > st.candSNR
		if !(myOK && theirOK) {
			continue
		}
		if p.cand[i].valid && p.cand[i].peer != j {
			breakups = append(breakups, breakup{from: i, to: p.cand[i].peer})
		}
		p.cand[i] = candidate{peer: j, snrDB: pairQ, valid: true}
		p.Matches++
		p.obsMatches.Inc()
		p.env.Trace.Emit(trace.Event{
			At: p.env.Sim.Now(), Frame: p.frame, Kind: trace.KindMatch,
			A: i, B: j, Value: pairQ.Decibels(),
		})
	}
	p.breakups = breakups
	// Second half: break-up senders transmit; everyone else with a
	// candidate listens toward it (a vehicle's previous candidate still has
	// its beam schedule pointed here, which is what makes the notification
	// deliverable).
	for _, b := range breakups {
		p.transmitBreak(b.from, b.to)
		p.BreakupsSent++
	}
	// breakups is in ascending sender order, one per sender: walk it
	// alongside the vehicles to skip the senders.
	next := 0
	for i := 0; i < n; i++ {
		if next < len(breakups) && breakups[next].from == i {
			next++
			continue
		}
		if !p.cand[i].valid {
			continue
		}
		p.listenToward(i, p.cand[i].peer)
	}
	if p.slotObserver != nil {
		p.slotObserver(p.frame, slot)
	}
}

// transmitBreak sends a break-up notification from i to its previous
// candidate.
func (p *Protocol) transmitBreak(i, to int) {
	info := p.discovered[i][to]
	if info == nil {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(info.towardSector), Width: p.cfg.Codebook.TxWidth}
	p.env.Medium.Transmit(i, beam, p.env.Timing.ControlPreamble, breakMsg{from: i, to: to})
	p.obsBreakTx.Inc()
}

// Bucket exposes the CNS bucket of a pair (for tests).
func (p *Protocol) Bucket(i, j int) int { return p.cfg.Bucket(i, j) }
