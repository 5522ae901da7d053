package core

import (
	"fmt"
	"sort"

	"mmv2v/internal/sim"
	"mmv2v/internal/udt"
	"mmv2v/internal/world"
)

// GreedyMatching computes a centralized greedy maximum-weight matching over
// the current LOS neighbor graph: edges sorted by SNR-proxy weight
// (path gain) descending, added while both endpoints are free and the
// eligible predicate admits the pair. Greedy matching is a 1/2-approximation
// of the NP-hard optimum (Theorem 1), which makes it a meaningful
// upper-bound oracle for what DCM's distributed negotiation can achieve.
func GreedyMatching(w *world.World, eligible func(i, j int) bool) [][2]int {
	type edge struct {
		i, j int
		gain float64
	}
	var edges []edge
	n := w.NumVehicles()
	for i := 0; i < n; i++ {
		for _, j := range w.Neighbors(i) {
			if j <= i {
				continue
			}
			if eligible != nil && !eligible(i, j) {
				continue
			}
			lnk, ok := w.Link(i, j)
			if !ok {
				continue
			}
			edges = append(edges, edge{i: i, j: j, gain: lnk.PathGainLin})
		}
	}
	sort.Slice(edges, func(a, b int) bool {
		//mmv2v:exact deterministic comparator tie-break: bit-equal gains fall through to the index order
		if edges[a].gain != edges[b].gain {
			return edges[a].gain > edges[b].gain
		}
		if edges[a].i != edges[b].i {
			return edges[a].i < edges[b].i
		}
		return edges[a].j < edges[b].j
	})
	matched := make([]bool, n)
	var out [][2]int
	for _, e := range edges {
		if matched[e.i] || matched[e.j] {
			continue
		}
		matched[e.i] = true
		matched[e.j] = true
		out = append(out, [2]int{e.i, e.j})
	}
	return out
}

// Oracle is the centralized upper-bound protocol used in ablations: each
// frame it matches vehicles with GreedyMatching over the true LOS graph
// (perfect discovery, zero negotiation overhead, free beam refinement) and
// streams for the entire frame. It bounds what any distributed OHM scheme
// on the same substrate can achieve.
type Oracle struct {
	env     *sim.Env
	cfg     Params
	frame   int
	session *udt.Session
}

// NewOracle builds the oracle protocol.
func NewOracle(env *sim.Env, cfg Params) *Oracle {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("core: invalid oracle params for scenario seed %#x (%d vehicles): %v",
			env.Seed, env.N(), err))
	}
	o := &Oracle{env: env, cfg: cfg}
	env.OnRefresh(o.onRefresh)
	return o
}

// Name implements sim.Protocol.
func (o *Oracle) Name() string { return "oracle" }

// OracleFactory returns a sim.Factory for the oracle.
func OracleFactory(cfg Params) sim.Factory {
	return func(env *sim.Env) sim.Protocol { return NewOracle(env, cfg) }
}

// RunFrame implements sim.Protocol.
func (o *Oracle) RunFrame(frame int) {
	if o.session != nil {
		o.session.Stop()
		o.session = nil
	}
	o.frame = frame
	matches := GreedyMatching(o.env.World, func(i, j int) bool { return !o.env.PairDone(i, j) })
	if len(matches) == 0 {
		return
	}
	pairs := make([]udt.Pair, 0, len(matches))
	for _, m := range matches {
		beamA, beamB := udt.RefineBeams(o.env, m[0], m[1], o.cfg.Codebook, -1, -1)
		pairs = append(pairs, udt.Pair{A: m[0], B: m[1], BeamA: beamA, BeamB: beamB})
	}
	o.session = udt.Start(o.env, pairs, frame)
}

func (o *Oracle) onRefresh() {
	if o.session != nil {
		o.session.OnRefresh()
	}
}
