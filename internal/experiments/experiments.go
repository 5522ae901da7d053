// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. IV): the parameter-configuration studies of Fig. 6
// (CNS constant C), Fig. 7 (discovery rounds K) and Fig. 8 (negotiation
// slots M), the protocol comparison of Fig. 9 (OCR/ATP/DTP vs traffic
// density for mmV2V, ROP and IEEE 802.11ad), the Theorem 2 discovery-ratio
// validation, and an ablation study (our addition) against the centralized
// greedy oracle and beam-width/role-probability variants.
//
// Every experiment takes an options struct with paper defaults, returns a
// typed result, and can print itself as an aligned text table whose
// rows/series mirror what the paper plots. Every experiment but Theorem 2
// embeds one Run (seed, trials, workers, progress). Those whose cells each
// pool a RunTrials share one cell engine, Run.cells; on top of it, Fig. 7
// and Fig. 8 are one parameter Sweep, and Fig. 9 and the truck, fault and
// city studies are one protocol Grid. Fig. 6 drives frames under a slot
// observer and warmup pools per window, so both keep their own trial loops
// and report progress through the same Run.
package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/sim"
	"mmv2v/internal/xrand"
)

// Run is the execution setup every trial-pooling experiment shares.
type Run struct {
	Seed uint64
	// Trials per cell.
	Trials int
	// Workers bounds concurrent trial simulations across all cells
	// (0 = GOMAXPROCS). Results are identical for any value.
	Workers int
	// Progress, when non-nil, is invoked once per completed cell with a
	// short label. Cells complete on concurrent goroutines, so the callback
	// must be safe for concurrent use.
	Progress func(cell string)
}

// cells runs n independent cells. Cell k pools r.Trials trials of the
// scenario and protocol that spec(k) returns, and done(k, pooled) stores
// the outcome in a caller-owned slot and returns the cell's progress label.
// All cells submit their trials to one shared runner, so r.Workers bounds
// the whole experiment, and results land by cell index, never by
// completion order.
func (r Run) cells(n int, spec func(k int) (sim.Config, sim.Factory), done func(k int, pooled *sim.Result) string) error {
	runner := sim.NewRunner(r.Workers)
	return sim.Gather(n, func(k int) error {
		cfg, factory := spec(k)
		pooled, err := runner.RunTrials(cfg, factory, r.Trials)
		if err != nil {
			return err
		}
		r.report(done(k, pooled))
		return nil
	})
}

// report passes a completed cell's label to Progress, if set.
func (r Run) report(label string) {
	if r.Progress != nil {
		r.Progress(label)
	}
}

// trialSeed derives the seed of one trial from the experiment seed.
func trialSeed(seed uint64, trial int) uint64 {
	return xrand.Mix(seed, 0xe9, uint64(trial))
}

// scenario builds the paper's standard scenario config at a density.
func scenario(density float64, seed uint64) sim.Config {
	return sim.DefaultConfig(density, seed)
}

// writeHeader prints an experiment banner.
func writeHeader(w io.Writer, title string) {
	fmt.Fprintf(w, "== %s ==\n", title)
}
