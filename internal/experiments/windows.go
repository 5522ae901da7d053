package experiments

import (
	"fmt"
	"io"

	"mmv2v/internal/core"
	"mmv2v/internal/metrics"
	"mmv2v/internal/sim"
)

// WarmupOptions parameterize the cold-start study (beyond the paper): the
// paper measures OCR/ATP "at the end of every second"; the first window
// starts with empty discovery tables while later windows inherit the
// working neighbor set ∪_f N_i^f. This experiment quantifies the warm-start
// benefit across consecutive windows.
type WarmupOptions struct {
	// Run.Progress reports each completed trial.
	Run
	DensityVPL float64
	Windows    int
}

// DefaultWarmupOptions returns the standard setting.
func DefaultWarmupOptions() WarmupOptions {
	return WarmupOptions{Run: Run{Seed: 1, Trials: 3}, DensityVPL: 20, Windows: 3}
}

// WarmupRow is one window's pooled metrics.
type WarmupRow struct {
	Window  int
	Summary metrics.Summary
}

// WarmupResult is the full study.
type WarmupResult struct {
	Opts WarmupOptions
	Rows []WarmupRow
}

// Warmup runs the study.
func Warmup(opts WarmupOptions) (*WarmupResult, error) {
	if opts.Trials <= 0 || opts.Windows <= 0 {
		return nil, fmt.Errorf("experiments: invalid warmup options %+v", opts)
	}
	// Trials run on the pool into a slot-per-trial buffer; the per-window
	// pools below merge in trial order, independent of completion order.
	runner := sim.NewRunner(opts.Workers)
	results := make([]*sim.Result, opts.Trials)
	err := runner.Do(opts.Trials, func(trial int) error {
		cfg := scenario(opts.DensityVPL, trialSeed(opts.Seed, trial))
		cfg.Windows = opts.Windows
		res, err := sim.Run(cfg, core.Factory(core.DefaultParams()))
		results[trial] = res
		if err == nil {
			opts.report(fmt.Sprintf("warmup trial=%d", trial))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	perWindow := make([][]metrics.VehicleStats, opts.Windows)
	for _, res := range results {
		for w, win := range res.Windows {
			perWindow[w] = append(perWindow[w], win.Stats...)
		}
	}
	out := &WarmupResult{Opts: opts}
	for w, stats := range perWindow {
		out.Rows = append(out.Rows, WarmupRow{Window: w, Summary: metrics.Summarize(stats)})
	}
	return out, nil
}

// WriteTable prints the study.
func (r *WarmupResult) WriteTable(w io.Writer) {
	writeHeader(w, "Extension — cold start vs warm windows")
	fmt.Fprintf(w, "%-8s %-8s %-8s %-8s\n", "window", "OCR", "ATP", "DTP")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-8.3f %-8.3f %-8.3f\n",
			row.Window+1, row.Summary.MeanOCR, row.Summary.MeanATP, row.Summary.MeanDTP)
	}
}
