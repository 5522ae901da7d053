package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// Fig9Options parameterize the headline comparison of Fig. 9: OCR, ATP and
// DTP as functions of traffic density for mmV2V, ROP and IEEE 802.11ad,
// each vehicle running a 200 Mb/s HRIE task with α=30°, β=12°, θ=15°,
// C=7, K=3, M=40.
type Fig9Options struct {
	Seed      uint64
	Trials    int
	Densities []float64
	// IncludeOracle adds the centralized greedy upper bound as a fourth
	// series (not in the paper; useful context).
	IncludeOracle bool
	// Workers bounds concurrent trial simulations across all cells
	// (0 = GOMAXPROCS). The tables are identical for any value.
	Workers int
	// Stats enables per-cell layer statistics: each cell's pooled
	// obs.Registry and its windowed obs.Series land in its Fig9Cell, and
	// StatsRows and SeriesRows export the whole grid. Off (the default),
	// cells carry a nil registry and series at zero cost.
	Stats bool
	// Progress, when non-nil, is invoked once per completed (density,
	// protocol) cell with a short label. Cells complete on concurrent
	// goroutines, so the callback must be safe for concurrent use.
	Progress func(cell string)
}

// DefaultFig9Options returns the paper's configuration (densities 15–30
// vpl; fewer trials than the paper's repetitions by default).
func DefaultFig9Options() Fig9Options {
	return Fig9Options{
		Seed:      1,
		Trials:    3,
		Densities: []float64{15, 20, 25, 30},
	}
}

// Fig9Cell is one (density, protocol) measurement.
type Fig9Cell struct {
	Protocol string
	Summary  metrics.Summary
	// OCRCI95 is the half-width of the 95 % CI over per-vehicle OCR.
	OCRCI95 float64
	// Obs and Series are the cell's pooled layer statistics and windowed
	// samples (nil unless Options.Stats).
	Obs    *obs.Registry
	Series *obs.Series
}

// Fig9Row is one density's measurements.
type Fig9Row struct {
	DensityVPL   float64
	AvgNeighbors float64
	Cells        []Fig9Cell
}

// Fig9Result is the full comparison.
type Fig9Result struct {
	Opts      Fig9Options
	Protocols []string
	Rows      []Fig9Row
}

// Fig9 runs the comparison.
func Fig9(opts Fig9Options) (*Fig9Result, error) {
	if opts.Trials <= 0 || len(opts.Densities) == 0 {
		return nil, fmt.Errorf("experiments: invalid Fig9 options %+v", opts)
	}
	factories := []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
	if opts.IncludeOracle {
		factories = append(factories, core.OracleFactory(core.DefaultParams()))
	}
	// Every (density, protocol) cell is independent: all cells submit their
	// trials to one shared runner and write into a slot-per-cell buffer, so
	// the table assembly order below is fixed by the option lists, never by
	// completion order.
	runner := sim.NewRunner(opts.Workers)
	nf := len(factories)
	cells := make([]Fig9Cell, len(opts.Densities)*nf)
	avgN := make([]float64, len(cells))
	err := sim.Gather(len(cells), func(k int) error {
		di, fi := k/nf, k%nf
		cfg := scenario(opts.Densities[di], opts.Seed)
		cfg.Stats = opts.Stats
		pooled, err := runner.RunTrials(cfg, factories[fi], opts.Trials)
		if err != nil {
			return err
		}
		ocrs := make([]float64, 0, len(pooled.Stats))
		for _, st := range pooled.Stats {
			ocrs = append(ocrs, st.OCR)
		}
		_, ci := metrics.MeanCI95(ocrs)
		cells[k] = Fig9Cell{Protocol: pooled.Protocol, Summary: pooled.Summary, OCRCI95: ci, Obs: pooled.Obs, Series: pooled.Series}
		avgN[k] = pooled.AvgNeighbors
		reportProgress(opts.Progress, "fig9 density=%g %s", opts.Densities[di], pooled.Protocol)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Opts: opts}
	for di, density := range opts.Densities {
		row := Fig9Row{DensityVPL: density}
		for fi := 0; fi < nf; fi++ {
			k := di*nf + fi
			row.AvgNeighbors = avgN[k]
			row.Cells = append(row.Cells, cells[k])
			if di == 0 {
				res.Protocols = append(res.Protocols, cells[k].Protocol)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Get returns the summary of a protocol at a density.
func (r *Fig9Result) Get(density float64, protocol string) (metrics.Summary, bool) {
	for _, row := range r.Rows {
		//mmv2v:exact grid lookup: densities are exact sweep literals carried through unmodified
		if row.DensityVPL != density {
			continue
		}
		for _, c := range row.Cells {
			if c.Protocol == protocol {
				return c.Summary, true
			}
		}
	}
	return metrics.Summary{}, false
}

// StatsRows exports every cell's layer statistics (when the run had
// Options.Stats), each row scoped "fig9/density=<d>/<protocol>", sorted by
// (scope, name, kind). Nil-Obs cells contribute nothing.
func (r *Fig9Result) StatsRows() []obs.Row {
	var rows []obs.Row
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			scope := fmt.Sprintf("fig9/density=%g/%s", row.DensityVPL, c.Protocol)
			rows = append(rows, c.Obs.Rows(scope)...)
		}
	}
	obs.SortRows(rows)
	return rows
}

// SeriesRows exports every cell's windowed samples (when the run had
// Options.Stats), each row scoped "fig9/density=<d>/<protocol>", sorted by
// (scope, window, name, kind). Nil-Series cells contribute nothing.
func (r *Fig9Result) SeriesRows() []obs.SeriesRow {
	var rows []obs.SeriesRow
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			scope := fmt.Sprintf("fig9/density=%g/%s", row.DensityVPL, c.Protocol)
			rows = append(rows, obs.SeriesRows(c.Series.Points(), scope)...)
		}
	}
	obs.SortSeriesRows(rows)
	return rows
}

// WriteTable prints the three sub-figures (a) OCR, (b) ATP, (c) DTP as
// density-by-protocol tables.
func (r *Fig9Result) WriteTable(w io.Writer) {
	writeHeader(w, "Fig. 9 — comparison of OHM protocols vs traffic density")
	metricsOf := []struct {
		name string
		get  func(metrics.Summary) float64
	}{
		{"(a) OCR", func(s metrics.Summary) float64 { return s.MeanOCR }},
		{"(b) ATP", func(s metrics.Summary) float64 { return s.MeanATP }},
		{"(c) DTP", func(s metrics.Summary) float64 { return s.MeanDTP }},
	}
	for _, m := range metricsOf {
		fmt.Fprintf(w, "%s:\n%-14s %-8s", m.name, "density (vpl)", "avg |N|")
		for _, p := range r.Protocols {
			fmt.Fprintf(w, "  %-14s", p)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-14.0f %-8.1f", row.DensityVPL, row.AvgNeighbors)
			for _, c := range row.Cells {
				if m.name == "(a) OCR" {
					fmt.Fprintf(w, "  %-6.3f ±%-5.3f", m.get(c.Summary), c.OCRCI95)
				} else {
					fmt.Fprintf(w, "  %-14.3f", m.get(c.Summary))
				}
			}
			fmt.Fprintln(w)
		}
	}
}
