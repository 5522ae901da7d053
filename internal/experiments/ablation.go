package experiments

import (
	"fmt"
	"io"
	"time"

	"mmv2v/internal/core"
	"mmv2v/internal/geom"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
	"mmv2v/internal/units"
)

// AblationOptions parameterize the ablation study (our addition, motivated
// by the paper's design discussion): mmV2V against the centralized greedy
// oracle and against variants that disable one design choice at a time —
// the heterogeneous Tx/Rx beam widths (Sec. III-B), the p = 0.5 role
// probability optimum (Theorem 2), and the K = 3 / M = 40 operating point.
type AblationOptions struct {
	Run
	DensityVPL float64
}

// DefaultAblationOptions returns the standard setting.
func DefaultAblationOptions() AblationOptions {
	return AblationOptions{Run: Run{Seed: 1, Trials: 3}, DensityVPL: 20}
}

// AblationRow is one variant's outcome.
type AblationRow struct {
	Variant string
	Summary metrics.Summary
}

// AblationResult is the full study.
type AblationResult struct {
	Opts AblationOptions
	Rows []AblationRow
}

// Ablation runs the study.
func Ablation(opts AblationOptions) (*AblationResult, error) {
	if opts.Trials <= 0 {
		return nil, fmt.Errorf("experiments: invalid ablation options %+v", opts)
	}
	variants := []struct {
		name    string
		factory sim.Factory
		mutate  func(*sim.Config)
	}{
		{"mmV2V (paper config)", core.Factory(core.DefaultParams()), nil},
		{"oracle (centralized greedy)", core.OracleFactory(core.DefaultParams()), nil},
		{"homogeneous wide beams (β=30°)", core.Factory(withCodebookRx(geom.Deg(30))), nil},
		{"homogeneous narrow beams (α=12°)", core.Factory(withCodebookTx(geom.Deg(12))), nil},
		{"role probability p=0.3", core.Factory(withP(0.3)), nil},
		{"role probability p=0.7", core.Factory(withP(0.7)), nil},
		{"single discovery round (K=1)", core.Factory(withK(1)), nil},
		{"sparse negotiation (M=10)", core.Factory(withM(10)), nil},
		{"fairness-biased matching (+10 dB)", core.Factory(withFairness(units.DB(10))), nil},
		{"beam tracking in UDT", core.Factory(withTracking()), nil},
		{"GPS sync error ±5 µs", core.Factory(withJitter(5 * time.Microsecond)), nil},
		{"explicit on-air refinement", core.Factory(withExplicitRefinement()), nil},
		{"log-normal shadowing σ=4 dB", core.Factory(core.DefaultParams()),
			func(c *sim.Config) { c.World.Channel.ShadowSigmaDB = 4 }},
	}
	rows := make([]AblationRow, len(variants))
	err := opts.cells(len(variants), func(vi int) (sim.Config, sim.Factory) {
		cfg := scenario(opts.DensityVPL, opts.Seed)
		if mutate := variants[vi].mutate; mutate != nil {
			mutate(&cfg)
		}
		return cfg, variants[vi].factory
	}, func(vi int, pooled *sim.Result) string {
		rows[vi] = AblationRow{Variant: variants[vi].name, Summary: pooled.Summary}
		return "ablation " + variants[vi].name
	})
	if err != nil {
		return nil, err
	}
	return &AblationResult{Opts: opts, Rows: rows}, nil
}

func withCodebookRx(rxWidth units.Radian) core.Params {
	p := core.DefaultParams()
	p.Codebook.RxWidth = rxWidth
	return p
}

func withCodebookTx(txWidth units.Radian) core.Params {
	p := core.DefaultParams()
	p.Codebook.TxWidth = txWidth
	return p
}

func withP(prob float64) core.Params {
	p := core.DefaultParams()
	p.P = prob
	return p
}

func withK(k int) core.Params {
	p := core.DefaultParams()
	p.K = k
	return p
}

func withM(m int) core.Params {
	p := core.DefaultParams()
	p.M = m
	return p
}

func withFairness(biasDB units.DB) core.Params {
	p := core.DefaultParams()
	p.FairnessBiasDB = biasDB
	return p
}

func withTracking() core.Params {
	p := core.DefaultParams()
	p.BeamTracking = true
	return p
}

func withJitter(j time.Duration) core.Params {
	p := core.DefaultParams()
	p.SyncJitter = j
	return p
}

func withExplicitRefinement() core.Params {
	p := core.DefaultParams()
	p.ExplicitRefinement = true
	return p
}

// Get returns the summary of a named variant.
func (r *AblationResult) Get(variant string) (metrics.Summary, bool) {
	for _, row := range r.Rows {
		if row.Variant == variant {
			return row.Summary, true
		}
	}
	return metrics.Summary{}, false
}

// WriteTable prints the study.
func (r *AblationResult) WriteTable(w io.Writer) {
	writeHeader(w, "Ablation — mmV2V design choices vs centralized oracle")
	fmt.Fprintf(w, "%-34s %-8s %-8s %-8s\n", "variant", "OCR", "ATP", "DTP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-34s %-8.3f %-8.3f %-8.3f\n",
			row.Variant, row.Summary.MeanOCR, row.Summary.MeanATP, row.Summary.MeanDTP)
	}
}
