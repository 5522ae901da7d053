package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/core"
	"mmv2v/internal/phy"
	"mmv2v/internal/sim"
)

// Fig6Options parameterize the Fig. 6 study: "the capability of the
// constant C to separate neighbors in different negotiation slots" —
// average communication capacity per vehicle as a function of the number of
// negotiation slots, for C = 1..12, under four traffic scenarios whose
// average neighbor counts are ≈5, 6, 7 and 8.
type Fig6Options struct {
	Run
	// Densities are calibrated so the average LOS neighbor count matches
	// the paper's 5, 6, 7, 8 labels (see the world-package calibration).
	Densities []float64
	// CValues is the sweep of the CNS constant (paper: 1..12 step 1).
	CValues []int
	// MaxSlots is how many negotiation slots to observe (paper plots up to
	// ≈80).
	MaxSlots int
	// Frames averaged per trial (matching evolves identically each frame in
	// a near-static topology, so a few suffice).
	Frames int
}

// DefaultFig6Options returns the paper's configuration.
func DefaultFig6Options() Fig6Options {
	return Fig6Options{
		Run:       Run{Seed: 1, Trials: 3},
		Densities: []float64{12, 15, 17, 19},
		CValues:   []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		MaxSlots:  80,
		Frames:    2,
	}
}

// Fig6Series is the capacity curve of one C value.
type Fig6Series struct {
	C int
	// CapacityBps[m] is the mean capacity per vehicle after negotiation
	// slot m (0-indexed).
	CapacityBps []float64
}

// Fig6Scenario holds one traffic setting's curves.
type Fig6Scenario struct {
	DensityVPL   float64
	AvgNeighbors float64
	Series       []Fig6Series
}

// Fig6Result is the full study.
type Fig6Result struct {
	Opts      Fig6Options
	Scenarios []Fig6Scenario
}

// Fig6 runs the study: the mmV2V protocol is instrumented with a slot
// observer; after every negotiation slot the network capacity is the sum
// over mutually agreed pairs of the interference-free MCS rate their
// refined beams would achieve, divided by the number of vehicles.
func Fig6(opts Fig6Options) (*Fig6Result, error) {
	if opts.Trials <= 0 || opts.MaxSlots <= 0 || opts.Frames <= 0 {
		return nil, fmt.Errorf("experiments: invalid Fig6 options %+v", opts)
	}
	// One cell per (scenario, C) pair; within a cell, each trial runs on the
	// shared pool with its own environment and per-slot sums, which merge in
	// trial order so the curves are identical for any worker count.
	runner := sim.NewRunner(opts.Workers)
	nc := len(opts.CValues)
	type fig6Cell struct {
		sums []float64
		avgN float64
	}
	cells := make([]fig6Cell, len(opts.Densities)*nc)
	err := sim.Gather(len(cells), func(k int) error {
		di, ci := k/nc, k%nc
		c := opts.CValues[ci]
		trialSums := make([][]float64, opts.Trials)
		trialAvgN := make([]float64, opts.Trials)
		if err := runner.Do(opts.Trials, func(trial int) error {
			cfg := scenario(opts.Densities[di], trialSeed(opts.Seed, trial))
			// A huge demand keeps every pair hungry: Fig. 6 measures
			// matching capacity, not task completion.
			cfg.DemandBits = 1e15
			env, err := sim.NewEnv(cfg)
			if err != nil {
				return err
			}
			params := core.DefaultParams()
			params.C = c
			params.M = opts.MaxSlots
			proto := core.New(env, params)
			sums := make([]float64, opts.MaxSlots)
			proto.SetSlotObserver(func(frame, slot int) {
				sums[slot] += capacityPerVehicle(env, proto, params.Codebook)
			})
			env.DriveFrames(proto, 0, opts.Frames)
			trialSums[trial] = sums
			trialAvgN[trial] = env.World.AvgNeighborCount()
			return nil
		}); err != nil {
			return err
		}
		cell := &cells[k]
		cell.sums = make([]float64, opts.MaxSlots)
		for trial := 0; trial < opts.Trials; trial++ {
			for m, v := range trialSums[trial] {
				cell.sums[m] += v
			}
			cell.avgN += trialAvgN[trial] / float64(opts.Trials)
		}
		opts.report(fmt.Sprintf("fig6 density=%g C=%d", opts.Densities[di], c))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Opts: opts}
	for di, density := range opts.Densities {
		sc := Fig6Scenario{DensityVPL: density, AvgNeighbors: cells[di*nc].avgN}
		for ci, c := range opts.CValues {
			cell := cells[di*nc+ci]
			samples := float64(opts.Trials * opts.Frames)
			series := Fig6Series{C: c, CapacityBps: make([]float64, opts.MaxSlots)}
			for m := range cell.sums {
				series.CapacityBps[m] = cell.sums[m] / samples
			}
			sc.Series = append(sc.Series, series)
		}
		res.Scenarios = append(res.Scenarios, sc)
	}
	return res, nil
}

// capacityPerVehicle sums the clean-channel MCS rate of every mutually
// agreed pair's refined beams and divides by the vehicle count.
func capacityPerVehicle(env *sim.Env, proto *core.Protocol, cb phy.Codebook) float64 {
	total := 0.0
	for _, pr := range proto.MutualPairs() {
		beamA, beamB := refineForCapacity(env, pr[0], pr[1], cb)
		snr := env.World.SNRdB(pr[0], pr[1], beamA, beamB)
		total += phy.DataRate(snr)
	}
	return total / float64(env.N())
}

// refineForCapacity models the refined narrow beams a matched pair would
// use (full-precision cross search around the true bearing).
func refineForCapacity(env *sim.Env, a, b int, cb phy.Codebook) (phy.Beam, phy.Beam) {
	la, okA := env.World.Link(a, b)
	lb, okB := env.World.Link(b, a)
	if !okA || !okB {
		return phy.Beam{Width: cb.NarrowWidth}, phy.Beam{Width: cb.NarrowWidth}
	}
	return phy.Beam{Bearing: la.Bearing, Width: cb.NarrowWidth},
		phy.Beam{Bearing: lb.Bearing, Width: cb.NarrowWidth}
}

// WriteTable prints, per scenario, capacity-per-vehicle rows for selected
// slot counts across all C values (the series the paper plots).
func (r *Fig6Result) WriteTable(w io.Writer) {
	writeHeader(w, "Fig. 6 — capacity per vehicle vs negotiation slots, per CNS constant C")
	checkpoints := []int{4, 9, 19, 39, 59, 79}
	for _, sc := range r.Scenarios {
		fmt.Fprintf(w, "scenario: %.0f vpl (avg neighbors %.1f)\n", sc.DensityVPL, sc.AvgNeighbors)
		fmt.Fprintf(w, "%-6s", "C")
		for _, m := range checkpoints {
			if m < r.Opts.MaxSlots {
				fmt.Fprintf(w, "  slots=%-3d", m+1)
			}
		}
		fmt.Fprintln(w)
		for _, s := range sc.Series {
			fmt.Fprintf(w, "C=%-4d", s.C)
			for _, m := range checkpoints {
				if m < len(s.CapacityBps) {
					fmt.Fprintf(w, "  %7.0fM", s.CapacityBps[m]/1e6)
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// BestC returns, per scenario, the C whose final-slot capacity is highest —
// the paper's conclusion is that C ≈ |N_i| is ideal and C = 7 is a good
// practice.
func (r *Fig6Result) BestC() map[float64]int {
	out := make(map[float64]int, len(r.Scenarios))
	for _, sc := range r.Scenarios {
		best, bestCap := 0, -1.0
		for _, s := range sc.Series {
			if c := s.CapacityBps[len(s.CapacityBps)-1]; c > bestCap {
				bestCap = c
				best = s.C
			}
		}
		out[sc.DensityVPL] = best
	}
	return out
}
