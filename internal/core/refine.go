package core

import (
	"time"

	"mmv2v/internal/des"
	"mmv2v/internal/medium"
	"mmv2v/internal/phy"
	"mmv2v/internal/udt"
	"mmv2v/internal/units"
)

// Explicit beam refinement: when Params.ExplicitRefinement is set, the
// Sec. III-D cross search runs as real transmissions over the shared medium
// instead of the closed-form model — each side probes its s narrow beams
// while the peer listens on its wide discovery beam, then the sides exchange
// feedback naming the best probe. Concurrent pairs interfere, probes and
// feedback can be lost, and a pair whose search fails idles the frame.
//
// Slot layout (all pairs synchronized, A = smaller ID):
//
//	s slots: A probes narrow beams 0..s-1; B listens wide
//	s slots: B probes; A listens wide
//	1 slot:  A sends feedback (B's best probe index); B listens
//	1 slot:  B sends feedback; A listens
//
// Success for a side = decoded ≥1 peer probe (fixes its receive beam) and
// decoded the peer's feedback (fixes its transmit beam; by array
// reciprocity both are the same index, so one confirmed index suffices).

// refineState tracks one vehicle's cross-search progress in a frame.
type refineState struct {
	peer int
	// coarse is the discovery sector toward the peer.
	coarse int
	// bestIdx/bestSNR track the strongest decoded peer probe (bestIdx is -1
	// until one is decoded).
	bestIdx int
	bestSNR units.DB
	// fbIdx is the beam index the peer reported back (-1 until received).
	fbIdx int
}

// explicitRefinementDuration is the on-air cross search length:
// two probe sweeps plus two feedback exchanges.
func (p *Protocol) explicitRefinementDuration() time.Duration {
	s := time.Duration(p.cfg.Codebook.RefinementBeams())
	probe := 2 * s * p.env.Timing.SectorSlot()
	feedback := 2 * (p.env.Timing.ControlPreamble + p.env.Timing.SIFS)
	return probe + feedback
}

// scheduleExplicitRefinement runs the cross search for the given mutual
// pairs and calls done with the pairs whose search succeeded on both sides.
func (p *Protocol) scheduleExplicitRefinement(pairs [][2]int, start des.Time, done func([]udt.Pair)) {
	n := p.env.N()
	states := make([]*refineState, n)
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		ca, cb := -1, -1
		if info, ok := p.discovered[a].Get(b); ok {
			ca = int(info.Sector)
		}
		if info, ok := p.discovered[b].Get(a); ok {
			cb = int(info.Sector)
		}
		if ca < 0 || cb < 0 {
			continue
		}
		states[a] = &refineState{peer: b, coarse: ca, bestIdx: -1, fbIdx: -1}
		states[b] = &refineState{peer: a, coarse: cb, bestIdx: -1, fbIdx: -1}
	}

	slot := p.env.Timing.SectorSlot()
	s := p.cfg.Codebook.RefinementBeams()
	// Phase 1: smaller IDs probe. Phase 2: larger IDs probe.
	for phase := 0; phase < 2; phase++ {
		for k := 0; k < s; k++ {
			at := start.Add(time.Duration(phase*s+k) * slot).Add(p.env.Timing.BeamSwitch)
			phase, k := phase, k
			p.env.Sim.ScheduleAt(at, "mmv2v.refine.probe", func() {
				p.refineProbeSlot(states, phase, k)
			})
		}
	}
	fbStart := start.Add(2 * time.Duration(s) * slot)
	fbStep := p.env.Timing.ControlPreamble + p.env.Timing.SIFS
	p.env.Sim.ScheduleAt(fbStart, "mmv2v.refine.fb0", func() { p.refineFeedbackSlot(states, 0) })
	p.env.Sim.ScheduleAt(fbStart.Add(fbStep), "mmv2v.refine.fb1", func() { p.refineFeedbackSlot(states, 1) })
	p.env.Sim.ScheduleAt(fbStart.Add(2*fbStep), "mmv2v.refine.done", func() {
		done(p.collectRefined(states, pairs))
	})
}

// refineProbeSlot fires probe k of every prober in the phase while peers
// listen on their wide discovery beams.
func (p *Protocol) refineProbeSlot(states []*refineState, phase, k int) {
	cb := p.cfg.Codebook
	onProbe := func(d medium.Delivery) { p.onProbe(states, d) }
	// Listeners first (must be aimed before probes start resolving).
	for i, st := range states {
		if st == nil || p.probesInPhase(i, st.peer, phase) {
			continue
		}
		beam := phy.Beam{Bearing: cb.Sectors.Center(st.coarse), Width: cb.RxWidth}
		p.env.Medium.StartListen(i, beam, onProbe)
	}
	for i, st := range states {
		if st == nil || !p.probesInPhase(i, st.peer, phase) {
			continue
		}
		coarse := cb.Sectors.Center(st.coarse)
		beam := phy.Beam{Bearing: cb.NarrowBeamBearing(coarse, k), Width: cb.NarrowWidth}
		p.env.Medium.Transmit(i, beam, p.env.Timing.SSW,
			medium.Frame{Kind: medium.KindProbe, Dest: int32(st.peer), Index: int32(k)})
	}
}

// probesInPhase reports whether vehicle i transmits probes in the phase
// (smaller ID probes first).
func (p *Protocol) probesInPhase(i, peer, phase int) bool {
	if phase == 0 {
		return i < peer
	}
	return i > peer
}

// onProbe records the strongest decoded probe from the expected peer.
func (p *Protocol) onProbe(states []*refineState, d medium.Delivery) {
	st := states[d.To]
	if st == nil || d.Frame.Kind != medium.KindProbe || int(d.Frame.Dest) != d.To || d.From != st.peer {
		return
	}
	if st.bestIdx < 0 || d.SINRdB > st.bestSNR {
		st.bestSNR = d.SINRdB
		st.bestIdx = int(d.Frame.Index)
	}
}

// refineFeedbackSlot sends each side's feedback (sub-slot 0: smaller IDs;
// 1: larger IDs) while the peer listens.
func (p *Protocol) refineFeedbackSlot(states []*refineState, sub int) {
	cb := p.cfg.Codebook
	// A feedback frame reports a probe only when its sender decoded one.
	onFeedback := func(d medium.Delivery) {
		if d.Frame.Kind != medium.KindFeedback || int(d.Frame.Dest) != d.To || d.Frame.Index < 0 {
			return
		}
		if s := states[d.To]; s != nil && d.From == s.peer {
			s.fbIdx = int(d.Frame.Index)
		}
	}
	for i, st := range states {
		if st == nil {
			continue
		}
		sends := (sub == 0) == (i < st.peer)
		if sends {
			continue
		}
		beam := phy.Beam{Bearing: cb.Sectors.Center(st.coarse), Width: cb.RxWidth}
		p.env.Medium.StartListen(i, beam, onFeedback)
	}
	for i, st := range states {
		if st == nil {
			continue
		}
		sends := (sub == 0) == (i < st.peer)
		if !sends {
			continue
		}
		beam := phy.Beam{Bearing: cb.Sectors.Center(st.coarse), Width: cb.TxWidth}
		p.env.Medium.Transmit(i, beam, p.env.Timing.ControlPreamble,
			medium.Frame{Kind: medium.KindFeedback, Dest: int32(st.peer), Index: int32(st.bestIdx)})
	}
}

// collectRefined returns the pairs whose cross search succeeded on both
// sides, with the trained narrow beams.
func (p *Protocol) collectRefined(states []*refineState, pairs [][2]int) []udt.Pair {
	cb := p.cfg.Codebook
	var out []udt.Pair
	for _, pr := range pairs {
		a, b := pr[0], pr[1]
		sa, sb := states[a], states[b]
		if sa == nil || sb == nil {
			continue
		}
		// Each side needs its transmit beam confirmed by the peer's
		// feedback; by reciprocity the same index serves for receive.
		if sa.fbIdx < 0 || sb.fbIdx < 0 {
			continue
		}
		beamA := phy.Beam{Bearing: cb.NarrowBeamBearing(cb.Sectors.Center(sa.coarse), sa.fbIdx), Width: cb.NarrowWidth}
		beamB := phy.Beam{Bearing: cb.NarrowBeamBearing(cb.Sectors.Center(sb.coarse), sb.fbIdx), Width: cb.NarrowWidth}
		out = append(out, udt.Pair{A: a, B: b, BeamA: beamA, BeamB: beamB})
	}
	return out
}
