package core

import (
	"mmv2v/internal/udt"
)

// startUDT runs at the end of DCM (Sec. III-D): mutually agreed pairs
// refine beams via the cross search (a fixed time cost, outcome modeled by
// udt.RefineBeams) and then stream data for the remainder of the frame.
//
// A vehicle whose candidate did not reciprocate (a rare DCM inconsistency)
// gets no response to its refinement probes and idles the frame.
func (p *Protocol) startUDT() {
	var mutual [][2]int
	n := p.env.N()
	for i := 0; i < n; i++ {
		ci := p.cand[i]
		if !ci.valid || ci.peer <= i {
			continue
		}
		j := ci.peer
		if !p.cand[j].valid || p.cand[j].peer != i {
			continue
		}
		if p.env.PairDone(i, j) {
			continue
		}
		mutual = append(mutual, [2]int{i, j})
	}
	streamStart := p.env.Sim.Now().Add(p.RefinementDuration())
	if streamStart >= p.frameEnd || len(mutual) == 0 {
		return
	}
	if p.cfg.ExplicitRefinement {
		p.scheduleExplicitRefinement(mutual, p.env.Sim.Now(), func(pairs []udt.Pair) {
			p.openSession(pairs)
		})
		return
	}
	var pairs []udt.Pair
	for _, pr := range mutual {
		i, j := pr[0], pr[1]
		coarseI, coarseJ := -1, -1
		if info, ok := p.discovered[i].Get(j); ok {
			coarseI = int(info.Sector)
		}
		if info, ok := p.discovered[j].Get(i); ok {
			coarseJ = int(info.Sector)
		}
		beamI, beamJ := udt.RefineBeams(p.env, i, j, p.cfg.Codebook, coarseI, coarseJ)
		pairs = append(pairs, udt.Pair{A: i, B: j, BeamA: beamI, BeamB: beamJ})
	}
	p.env.Sim.ScheduleAt(streamStart, "mmv2v.udt.stream", func() { p.openSession(pairs) })
}

// openSession starts the UDT data plane for refined pairs.
func (p *Protocol) openSession(pairs []udt.Pair) {
	if len(pairs) == 0 {
		return
	}
	p.session = udt.Start(p.env, pairs, p.frame)
	if p.cfg.BeamTracking {
		p.session.EnableTracking(p.cfg.Codebook)
	}
}

// onRefresh is the 5 ms link-refresh hook driving UDT rate adaptation.
func (p *Protocol) onRefresh() {
	if p.session != nil {
		p.session.OnRefresh()
	}
}

// teardownUDT settles the ledger and removes all streams at a frame
// boundary.
func (p *Protocol) teardownUDT() {
	if p.session != nil {
		p.session.Stop()
		p.session = nil
	}
}
