package core

import (
	"math"
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/phy"
	"mmv2v/internal/trace"
	"mmv2v/internal/units"
)

// breakup is a break-up notification decided in a slot: from has switched
// away from its previous candidate to.
type breakup struct{ from, to int }

// scheduleDCM schedules the Distributed Consensual Matching phase
// (Sec. III-C): M negotiation slots, each serving CNS bucket (slot mod C).
//
// Slot micro-structure (fits the paper's 30 µs with the 4.3 µs control
// preamble and 3 µs SIFS):
//
//	t+0        first sender (larger ID) transmits its candidate information
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

// dcmSlotBegin assigns each vehicle its designated peer for slot m via the
// CNS (Sec. III-C1), then lets the first senders (larger ID of each
// designated pair) transmit while their peers listen.
func (p *Protocol) dcmSlotBegin(m int) {
	bucket := m % p.cfg.C
	n := p.env.N()
	for i := 0; i < n; i++ {
		p.negPeer[i] = -1
		p.gotMsg[i] = medium.Frame{}
		p.elig = p.env.Eligible(p.elig[:0], i, p.discovered[i], p.frame, p.cfg.StalenessFrames)
		inBucket := p.inBucket[:0]
		for _, j := range p.elig {
			if p.cfg.Bucket(i, j) == bucket {
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
			if p.gotMsg[i].Kind == medium.KindNeg {
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

// transmitNeg sends vehicle i's candidate-information message to j with a
// sector beam (first half of a slot): the SNR i measured on their mutual
// link and the quality of i's current candidate link, if any
// (Sec. III-C2).
func (p *Protocol) transmitNeg(i, j int) {
	info, ok := p.discovered[i].Get(j)
	if !ok {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(int(info.Sector)), Width: p.cfg.Codebook.TxWidth}
	f := medium.Frame{Kind: medium.KindNeg, Dest: int32(j), LinkSNR: info.SNR}
	if p.cand[i].valid {
		f.HasCand = true
		f.CandSNR = p.cand[i].snrDB
	}
	p.env.Medium.Transmit(i, beam, p.env.Timing.ControlPreamble, f)
	p.obsNegTx.Inc()
}

// listenToward aims vehicle i's receive beam at neighbor j for negotiation
// traffic.
func (p *Protocol) listenToward(i, j int) {
	info, ok := p.discovered[i].Get(j)
	if !ok {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(int(info.Sector)), Width: p.cfg.Codebook.RxWidth}
	p.env.Medium.StartListen(i, beam, p.negRx)
}

// onNegTraffic handles negotiation-plane receptions.
func (p *Protocol) onNegTraffic(d medium.Delivery) {
	me := d.To
	if int(d.Frame.Dest) != me {
		return // overheard someone else's negotiation
	}
	switch d.Frame.Kind {
	case medium.KindNeg:
		if d.From == p.negPeer[me] {
			p.gotMsg[me] = d.Frame
		}
	case medium.KindBreak:
		// Our candidate has switched to someone better (Sec. III-C2,
		// condition 2 update): we are single again.
		if p.cand[me].valid && p.cand[me].peer == d.From {
			p.cand[me] = candidate{}
			p.obsBreakupsRecv.Inc()
			p.env.Trace.Emit(trace.Event{
				At: d.At, Frame: p.frame, Kind: trace.KindBreakup,
				A: d.From, B: me,
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
		if j < 0 || st.Kind != medium.KindNeg {
			continue
		}
		// For the larger-ID side the decoded message was the reply, which
		// only exists if the peer decoded our message: full information.
		// For the smaller-ID side, decoding the first message plus sending
		// the reply is its best knowledge (the reply could still be lost at
		// the peer — a rare inconsistency the protocol tolerates).
		mine, ok := p.discovered[i].Get(j)
		if !ok {
			continue
		}
		pairQ := p.pairQuality(i, j, mine.SNR, st.LinkSNR)
		myOK := !p.cand[i].valid || pairQ > p.cand[i].snrDB
		theirOK := !st.HasCand || pairQ > st.CandSNR
		if !(myOK && theirOK) {
			continue
		}
		if p.cand[i].valid && p.cand[i].peer != j {
			breakups = append(breakups, breakup{from: i, to: p.cand[i].peer})
		}
		p.cand[i] = candidate{peer: j, snrDB: pairQ, valid: true}
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
// candidate (second half of a slot): i has switched away.
func (p *Protocol) transmitBreak(i, to int) {
	info, ok := p.discovered[i].Get(to)
	if !ok {
		return
	}
	beam := phy.Beam{Bearing: p.cfg.Codebook.Sectors.Center(int(info.Sector)), Width: p.cfg.Codebook.TxWidth}
	p.env.Medium.Transmit(i, beam, p.env.Timing.ControlPreamble, medium.Frame{Kind: medium.KindBreak, Dest: int32(to)})
	p.obsBreakTx.Inc()
}
