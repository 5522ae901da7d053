package experiments

import (
	"fmt"
	"io"
	"math"

	"mmv2v/internal/baseline"
	"mmv2v/internal/core"
	"mmv2v/internal/faults"
	"mmv2v/internal/metrics"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

// FaultsOptions parameterize the graceful-degradation study (our addition
// beyond the paper): mmV2V, ROP and IEEE 802.11ad under the deterministic
// fault-injection layer of internal/faults, swept over fault intensity.
type FaultsOptions struct {
	Seed   uint64
	Trials int
	// DensityVPL is the traffic density of every cell (one density: the
	// sweep axis is fault intensity, not load).
	DensityVPL float64
	// WindowSec overrides the measurement window length when positive
	// (0 = the paper's 1 s window); tests use short windows.
	WindowSec float64
	// Intensities are the fault levels: Profile.Scale(intensity) per cell.
	// 0 is the clean channel; 1 is the full profile.
	Intensities []float64
	// Profile is the intensity-1 fault mix.
	Profile faults.Config
	// Workers bounds concurrent trial simulations across all cells
	// (0 = GOMAXPROCS). The tables are identical for any value.
	Workers int
	// Stats enables per-cell layer statistics and their windowed samples
	// (see Fig9Options.Stats).
	Stats bool
	// Progress, when non-nil, is invoked once per completed (intensity,
	// protocol) cell with a short label. Cells complete on concurrent
	// goroutines, so the callback must be safe for concurrent use.
	Progress func(cell string)
}

// DefaultFaultsOptions returns the default sweep: the paper's 20 vpl
// scenario under the standard stress profile at 0/¼/½/1 intensity.
func DefaultFaultsOptions() FaultsOptions {
	return FaultsOptions{
		Seed:        1,
		Trials:      3,
		DensityVPL:  20,
		Intensities: []float64{0, 0.25, 0.5, 1},
		Profile:     faults.DefaultConfig(),
	}
}

// FaultsCell is one (intensity, protocol) measurement.
type FaultsCell struct {
	Protocol string
	Summary  metrics.Summary
	// MeanLatencySec is the mean time from window start to each neighbor
	// pair's first exchanged bit (NaN when nothing was exchanged).
	MeanLatencySec float64
	// Trials/Failures echo the crash-isolation summary of the cell's
	// pooled run.
	Trials   int
	Failures int
	// Obs and Series are the cell's pooled layer statistics and windowed
	// samples (nil unless Options.Stats).
	Obs    *obs.Registry
	Series *obs.Series
}

// FaultsRow is one intensity's measurements.
type FaultsRow struct {
	Intensity float64
	Cells     []FaultsCell
}

// FaultsResult is the full graceful-degradation table.
type FaultsResult struct {
	Opts      FaultsOptions
	Protocols []string
	Rows      []FaultsRow
}

// FaultSweep runs the study. Cells share one runner, and results assemble
// in option-list order, so output is byte-identical for any worker count.
func FaultSweep(opts FaultsOptions) (*FaultsResult, error) {
	if opts.Trials <= 0 || len(opts.Intensities) == 0 || opts.DensityVPL <= 0 {
		return nil, fmt.Errorf("experiments: invalid fault-sweep options %+v", opts)
	}
	factories := []sim.Factory{
		core.Factory(core.DefaultParams()),
		baseline.ROPFactory(baseline.DefaultROPParams()),
		baseline.ADFactory(baseline.DefaultADParams()),
	}
	runner := sim.NewRunner(opts.Workers)
	nf := len(factories)
	cells := make([]FaultsCell, len(opts.Intensities)*nf)
	err := sim.Gather(len(cells), func(k int) error {
		ii, fi := k/nf, k%nf
		cfg := scenario(opts.DensityVPL, opts.Seed)
		if opts.WindowSec > 0 {
			cfg.WindowSec = opts.WindowSec
		}
		cfg.Stats = opts.Stats
		profile := opts.Profile.Scale(opts.Intensities[ii])
		cfg.Faults = &profile
		pooled, err := runner.RunTrials(cfg, factories[fi], opts.Trials)
		if err != nil {
			return err
		}
		cells[k] = FaultsCell{
			Protocol:       pooled.Protocol,
			Summary:        pooled.Summary,
			MeanLatencySec: pooled.MeanLatencySec(),
			Trials:         pooled.Trials,
			Failures:       len(pooled.Failures),
			Obs:            pooled.Obs,
			Series:         pooled.Series,
		}
		reportProgress(opts.Progress, "faults intensity=%g %s", opts.Intensities[ii], pooled.Protocol)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &FaultsResult{Opts: opts}
	for ii, intensity := range opts.Intensities {
		row := FaultsRow{Intensity: intensity}
		for fi := 0; fi < nf; fi++ {
			row.Cells = append(row.Cells, cells[ii*nf+fi])
			if ii == 0 {
				res.Protocols = append(res.Protocols, cells[fi].Protocol)
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Get returns a protocol's cell at an intensity.
func (r *FaultsResult) Get(intensity float64, protocol string) (FaultsCell, bool) {
	for _, row := range r.Rows {
		//mmv2v:exact grid lookup: intensities are exact sweep literals carried through unmodified
		if row.Intensity != intensity {
			continue
		}
		for _, c := range row.Cells {
			if c.Protocol == protocol {
				return c, true
			}
		}
	}
	return FaultsCell{}, false
}

// StatsRows exports every cell's layer statistics (when the run had
// Options.Stats), each row scoped "faults/intensity=<i>/<protocol>", sorted
// by (scope, name, kind). Nil-Obs cells contribute nothing.
func (r *FaultsResult) StatsRows() []obs.Row {
	var rows []obs.Row
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			scope := fmt.Sprintf("faults/intensity=%g/%s", row.Intensity, c.Protocol)
			rows = append(rows, c.Obs.Rows(scope)...)
		}
	}
	obs.SortRows(rows)
	return rows
}

// SeriesRows exports every cell's windowed samples (when the run had
// Options.Stats), each row scoped "faults/intensity=<i>/<protocol>",
// sorted by (scope, window, name, kind). Nil-Series cells contribute
// nothing.
func (r *FaultsResult) SeriesRows() []obs.SeriesRow {
	var rows []obs.SeriesRow
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			scope := fmt.Sprintf("faults/intensity=%g/%s", row.Intensity, c.Protocol)
			rows = append(rows, obs.SeriesRows(c.Series.Points(), scope)...)
		}
	}
	obs.SortSeriesRows(rows)
	return rows
}

// WriteTable prints the degradation table: (a) OCR, (b) time to first
// exchange, (c) ATP by intensity and protocol, plus a crash-isolation
// summary line when any trial was lost.
func (r *FaultsResult) WriteTable(w io.Writer) {
	writeHeader(w, "Fault sweep — graceful degradation under channel/radio faults")
	fmt.Fprintf(w, "density %g vpl; profile at intensity 1: %+v\n", r.Opts.DensityVPL, r.Opts.Profile)
	metricsOf := []struct {
		name string
		get  func(FaultsCell) float64
	}{
		{"(a) OCR", func(c FaultsCell) float64 { return c.Summary.MeanOCR }},
		{"(b) first-exchange latency (ms)", func(c FaultsCell) float64 { return c.MeanLatencySec * 1e3 }},
		{"(c) ATP", func(c FaultsCell) float64 { return c.Summary.MeanATP }},
	}
	for _, m := range metricsOf {
		fmt.Fprintf(w, "%s:\n%-10s", m.name, "intensity")
		for _, p := range r.Protocols {
			fmt.Fprintf(w, "  %-10s", p)
		}
		fmt.Fprintln(w)
		for _, row := range r.Rows {
			fmt.Fprintf(w, "%-10.2f", row.Intensity)
			for _, c := range row.Cells {
				if math.IsNaN(m.get(c)) {
					fmt.Fprintf(w, "  %-10s", "-")
				} else {
					fmt.Fprintf(w, "  %-10.3f", m.get(c))
				}
			}
			fmt.Fprintln(w)
		}
	}
	failed := 0
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			failed += c.Failures
		}
	}
	if failed > 0 {
		fmt.Fprintf(w, "trial health: %d failed\n", failed)
	}
}
