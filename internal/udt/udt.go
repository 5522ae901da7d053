// Package udt implements the shared data plane used by every OHM protocol
// in this repository: once a protocol has agreed on transmitter/receiver
// pairs and refined beams, a Session streams data between them under TDD
// alternation, re-pricing each link's 802.11ad MCS rate at every 5 ms link
// refresh with Eq. 3 interference from all concurrent streams, and credits
// the exchanged bits to the task ledger.
//
// mmV2V's UDT phase (Sec. III-D), the ROP baseline's transfer phase and the
// 802.11ad baseline's service periods all run on this component, so rate
// adaptation and interference are modeled identically across schemes.
package udt

import (
	"fmt"
	"math"

	"mmv2v/internal/des"
	"mmv2v/internal/geom"
	"mmv2v/internal/medium"
	"mmv2v/internal/obs"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
	"mmv2v/internal/trace"
	"mmv2v/internal/units"
)

// mcsAirtimeNames precomputes the per-MCS airtime gauge names so the accrual
// hot path never formats strings.
var mcsAirtimeNames [phy.NumMCS]string

func init() {
	for m := range mcsAirtimeNames {
		mcsAirtimeNames[m] = fmt.Sprintf("udt.airtime_sec.mcs%02d", m)
	}
}

// Pair is one agreed data link: endpoints and their refined beams.
type Pair struct {
	A, B int
	// BeamA is A's beam toward B; BeamB the reverse.
	BeamA, BeamB phy.Beam
}

// pairState is the live transfer state of a Pair.
type pairState struct {
	Pair
	dirAB       bool
	stream      medium.StreamID
	rate        float64
	mcs         phy.MCS
	lastAccrual des.Time
	done        bool
}

// Session is a running transfer over a set of pairs. Create with Start;
// wire OnRefresh into the protocol's refresh hook; Stop before the pairs'
// agreement expires (normally the frame boundary).
type Session struct {
	env   *sim.Env
	pairs []*pairState
	open  bool
	// track re-aims each pair's narrow beams at every refresh (beam
	// tracking, an extension beyond the paper's refine-once-per-frame).
	track   bool
	trackCB phy.Codebook

	// Statistics handles (nil-safe no-ops when Env.Obs is nil). airtime[m]
	// accrues streaming seconds spent at MCS m.
	airtime        [phy.NumMCS]*obs.Gauge
	obsCompletions *obs.Counter
}

// EnableTracking turns on per-refresh beam re-refinement with the given
// codebook, modeling a receiver that tracks its peer within the discovery
// sector instead of holding the frame-start beams.
func (s *Session) EnableTracking(cb phy.Codebook) {
	s.track = true
	s.trackCB = cb
}

// Start opens streams for all pairs and prices initial rates. The parity
// argument staggers initial TDD directions (pass the frame index). Pairs
// whose task is already complete are skipped.
func Start(env *sim.Env, pairs []Pair, parity int) *Session {
	s := &Session{env: env, open: true}
	if env.Obs != nil {
		for m := range s.airtime {
			s.airtime[m] = env.Obs.Gauge(mcsAirtimeNames[m])
		}
		s.obsCompletions = env.Obs.Counter("udt.completions")
		env.Obs.Counter("udt.sessions").Inc()
		env.Obs.Counter("udt.pairs_started").Add(uint64(len(pairs)))
	}
	now := env.Sim.Now()
	for _, p := range pairs {
		ps := &pairState{Pair: p, dirAB: (parity+p.A+p.B)%2 == 0, lastAccrual: now}
		if env.PairDone(p.A, p.B) {
			ps.done = true
		}
		s.pairs = append(s.pairs, ps)
	}
	for _, ps := range s.pairs {
		if !ps.done {
			tx, beam := ps.txSide()
			ps.stream = s.env.Medium.StartStream(tx, beam)
			env.Trace.Emit(trace.Event{
				At: now, Frame: parity, Kind: trace.KindStreamStart, A: ps.A, B: ps.B,
			})
		}
	}
	s.reprice()
	return s
}

func (ps *pairState) txSide() (int, phy.Beam) {
	if ps.dirAB {
		return ps.A, ps.BeamA
	}
	return ps.B, ps.BeamB
}

func (ps *pairState) rxSide() (int, phy.Beam) {
	if ps.dirAB {
		return ps.B, ps.BeamB
	}
	return ps.A, ps.BeamA
}

// reprice recomputes every live pair's MCS rate under current interference,
// tracing rate changes.
func (s *Session) reprice() {
	for _, ps := range s.pairs {
		if ps.done {
			continue
		}
		tx, txBeam := ps.txSide()
		rx, rxBeam := ps.rxSide()
		m, ok := phy.BestMCS(s.env.Medium.SINRNow(tx, rx, txBeam, rxBeam))
		rate := 0.0
		if !ok || m < 1 {
			m = 0
		} else {
			rate = m.Rate()
		}
		//mmv2v:exact change detection on a discrete MCS table rate; equal bits mean the same table entry
		if rate != ps.rate {
			s.env.Trace.Emit(trace.Event{
				At: s.env.Sim.Now(), Kind: trace.KindRate, A: ps.A, B: ps.B, Value: rate,
			})
		}
		ps.rate = rate
		ps.mcs = m
	}
}

// accrue credits the ledger for the elapsed interval at the priced rates.
func (s *Session) accrue(now des.Time) {
	for _, ps := range s.pairs {
		if ps.done {
			continue
		}
		dt := now.Sub(ps.lastAccrual).Seconds()
		if dt > 0 && ps.rate > 0 {
			// Stamped with the interval start: the pair was exchanging from
			// the moment the priced stream began, not when it was settled.
			s.env.Ledger.AddAt(ps.A, ps.B, ps.rate*dt, ps.lastAccrual.Seconds())
			s.airtime[ps.mcs].Observe(dt)
		}
		ps.lastAccrual = now
	}
}

// OnRefresh settles the elapsed interval, retires completed pairs, flips
// TDD directions and re-prices. Call from the protocol's 5 ms refresh hook
// while the session is live.
func (s *Session) OnRefresh() {
	if !s.open {
		return
	}
	now := s.env.Sim.Now()
	s.accrue(now)
	for _, ps := range s.pairs {
		if ps.done {
			continue
		}
		s.env.Medium.StopStream(ps.stream)
		if s.env.PairDone(ps.A, ps.B) {
			ps.done = true
			s.obsCompletions.Inc()
			s.env.Trace.Emit(trace.Event{
				At: now, Kind: trace.KindCompletion, A: ps.A, B: ps.B,
				Value: s.env.Ledger.Exchanged(ps.A, ps.B),
			})
			continue
		}
		if s.track {
			ps.BeamA, ps.BeamB = RefineBeams(s.env, ps.A, ps.B, s.trackCB, -1, -1)
		}
		ps.dirAB = !ps.dirAB
		tx, beam := ps.txSide()
		ps.stream = s.env.Medium.StartStream(tx, beam)
	}
	s.reprice()
}

// Stop settles the ledger and removes all streams. Safe to call twice.
func (s *Session) Stop() {
	if !s.open {
		return
	}
	s.accrue(s.env.Sim.Now())
	for _, ps := range s.pairs {
		if !ps.done {
			s.env.Medium.StopStream(ps.stream)
		}
	}
	s.open = false
}

// ActivePairs returns the number of pairs still streaming.
func (s *Session) ActivePairs() int {
	if !s.open {
		return 0
	}
	n := 0
	for _, ps := range s.pairs {
		if !ps.done {
			n++
		}
	}
	return n
}

// RefineBeams returns both endpoints' best narrow beams for a pair, modeling
// the cross search of Sec. III-D: each side probes its s = ⌊θ/θ_min⌋+1
// narrow beams within the wide discovery sector and both adopt the pair with
// the best response — the beams whose boresights are nearest the true
// bearing. The caller charges the search's time cost.
//
// coarseA/coarseB are the sector indices each side discovered the other on;
// pass a negative value to search around the true bearing's sector (used by
// oracle/centralized schemes).
func RefineBeams(env *sim.Env, a, b int, cb phy.Codebook, coarseA, coarseB int) (phy.Beam, phy.Beam) {
	// Each side probes its full narrow-beam set once during the cross search.
	env.Obs.Counter("udt.refine_probes").Add(uint64(2 * cb.RefinementBeams()))
	return bestNarrow(env, a, b, cb, coarseA), bestNarrow(env, b, a, cb, coarseB)
}

func bestNarrow(env *sim.Env, owner, peer int, cb phy.Codebook, coarseSector int) phy.Beam {
	lnk, ok := env.World.Link(owner, peer)
	if !ok {
		return phy.Beam{Bearing: cb.Sectors.Center(0), Width: cb.NarrowWidth}
	}
	if coarseSector < 0 {
		coarseSector = cb.Sectors.FromBearing(lnk.Bearing)
	}
	coarse := cb.Sectors.Center(coarseSector)
	best := phy.Beam{Bearing: coarse, Width: cb.NarrowWidth}
	bestOff := units.Radian(math.Inf(1))
	for k := 0; k < cb.RefinementBeams(); k++ {
		cand := cb.NarrowBeamBearing(coarse, k)
		if off := geom.AbsAngleDiff(cand, lnk.Bearing); off < bestOff {
			bestOff = off
			best = phy.Beam{Bearing: cand, Width: cb.NarrowWidth}
		}
	}
	return best
}
