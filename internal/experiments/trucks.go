package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/sim"
)

// TrucksOptions parameterize the heavy-vehicle extension study (beyond the
// paper): how does mmV2V's completion ratio degrade as a share of the
// vehicles become trucks — 16 m × 2.5 m bodies that block far more mmWave
// line-of-sight paths than cars?
type TrucksOptions struct {
	Run
	DensityVPL float64
	// Fractions is the sweep of truck shares.
	Fractions []float64
	// IncludeBaselines also measures ROP and 802.11ad under each mix.
	IncludeBaselines bool
}

// DefaultTrucksOptions returns the standard sweep.
func DefaultTrucksOptions() TrucksOptions {
	return TrucksOptions{
		Run:        Run{Seed: 1, Trials: 3},
		DensityVPL: 20,
		Fractions:  []float64{0, 0.1, 0.2, 0.3},
	}
}

// TrucksResult is the full study: one grid row per truck share.
type TrucksResult struct {
	Opts TrucksOptions
	Grid
}

// Trucks runs the study.
func Trucks(opts TrucksOptions) (*TrucksResult, error) {
	if opts.Trials <= 0 || len(opts.Fractions) == 0 {
		return nil, fmt.Errorf("experiments: invalid trucks options %+v", opts)
	}
	factories := comparedProtocols()
	if !opts.IncludeBaselines {
		factories = factories[:1]
	}
	g, err := opts.grid("trucks", "fraction", opts.Fractions, factories, func(ri int) sim.Config {
		cfg := scenario(opts.DensityVPL, opts.Seed)
		cfg.Traffic.TruckFraction = opts.Fractions[ri]
		return cfg
	})
	if err != nil {
		return nil, err
	}
	return &TrucksResult{Opts: opts, Grid: g}, nil
}

// WriteTable prints the study.
func (r *TrucksResult) WriteTable(w io.Writer) {
	writeHeader(w, "Extension — OHM under heavy-vehicle (truck) blockage")
	fmt.Fprintf(w, "%-10s %-8s", "trucks", "avg |N|")
	for _, p := range r.Protocols {
		fmt.Fprintf(w, "  %-9s", p+" OCR")
	}
	fmt.Fprintln(w)
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-10.0f%% %-8.1f", row.At*100, row.AvgNeighbors)
		for _, c := range row.Cells {
			fmt.Fprintf(w, "  %-9.3f", c.Summary.MeanOCR)
		}
		fmt.Fprintln(w)
	}
}

// WriteCSV emits truck_share, avg_neighbors, protocol, ocr, atp, dtp rows.
func (r *TrucksResult) WriteCSV(w io.Writer) error { return r.writeCSV(w, "truck_share") }
