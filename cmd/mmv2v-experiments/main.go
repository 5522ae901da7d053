// Command mmv2v-experiments regenerates the paper's evaluation figures.
//
// Usage:
//
//	mmv2v-experiments -fig 9 -trials 3          # Fig. 9 comparison
//	mmv2v-experiments -fig all -trials 2        # everything
//	mmv2v-experiments -fig 7 -format csv        # one figure as CSV
//	mmv2v-experiments -fig t2                   # Theorem 2 validation
//	mmv2v-experiments -fig ablation             # design-choice ablation
//	mmv2v-experiments -fig city                 # protocols on a city grid
//
// Results print as text tables with the same rows/series the paper plots.
// The paper repeats each experiment 100 times; -trials trades fidelity for
// runtime (full Fig. 9 at -trials 3 takes a few minutes).
//
// Trials run on a bounded worker pool; -workers caps the concurrency
// (0, the default, uses all CPU cores). Tables are bit-identical for any
// -workers value: trials are independently seeded and merged in trial
// order.
//
// -progress prints per-cell completion with elapsed wall-clock time to
// stderr while the tables build. -stats <path> additionally records
// per-layer statistics for the figures that support them (9 and the fault
// sweep) and writes them to the path as JSON Lines — or CSV when the path
// ends in .csv — with a summary table on stderr; the stdout tables are
// byte-identical with or without it. -cpuprofile/-memprofile write pprof
// profiles of the whole run.
//
// -series <path> records windowed per-layer samples for the same figures
// (9 and the fault sweep) as JSON Lines — or CSV when the path ends in
// .csv. -http <addr> serves live telemetry while the figures build:
// /healthz, /progress (completed cells; totals are unknown up front, so no
// ETA) and /debug/pprof/. The stdout tables are byte-identical with or
// without either flag.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mmv2v"
	"mmv2v/cmd/internal/telemetry"
)

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-experiments:", err)
		os.Exit(1)
	}
}

func run(w io.Writer) (err error) {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 6, 7, 8, 9, t2, ablation, trucks, warmup, faults, city, all")
		trials    = flag.Int("trials", 0, "trials per data point (0 = per-figure default)")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		format    = flag.String("format", "table", "output format: table or csv")
		workers   = flag.Int("workers", 0, "max concurrent trial simulations (0 = all CPU cores); results are identical for any value")
		faultRun  = flag.Bool("faults", false, "shorthand for -fig faults: the graceful-degradation fault sweep")
		verbose   = flag.Bool("progress", false, "print per-cell completion progress with elapsed wall-clock time to stderr")
		statsOut  = flag.String("stats", "", "record per-layer statistics (figures 9 and faults) and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
		seriesOut = flag.String("series", "", "record windowed per-layer samples (figures 9 and faults) and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
		httpAddr  = flag.String("http", "", "serve live run telemetry (/healthz /progress /debug/pprof/) on this address")
		cpuOut    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memOut    = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
	)
	flag.Parse()
	if *faultRun {
		*fig = "faults"
	}
	stopCPU, err := telemetry.StartCPUProfile(*cpuOut)
	if err != nil {
		return err
	}
	defer func() {
		if serr := stopCPU(); err == nil {
			err = serr
		}
	}()
	var srv *mmv2v.LiveServer
	if *httpAddr != "" {
		srv = mmv2v.NewLiveServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			return err
		}
		// The snapshot endpoints stay serveable until the process exits; a
		// close error here can only race process teardown, so drop it.
		defer func() { _ = srv.Close() }()
		fmt.Fprintln(os.Stderr, "mmv2v-experiments: live introspection on http://"+addr)
	}
	// Progress callbacks fire from concurrent experiment cells; serialize
	// the printer. Wall-clock time is measured here, never inside the
	// deterministic experiment layer. The live server keeps its own lock,
	// so CellDone rides the same callback without widening the mutex.
	runStart := time.Now()
	var progress func(cell string)
	if *verbose || srv != nil {
		var mu sync.Mutex
		progress = func(cell string) {
			if srv != nil {
				srv.CellDone(cell)
			}
			if *verbose {
				mu.Lock()
				defer mu.Unlock()
				fmt.Fprintf(os.Stderr, "[%v] %s\n", time.Since(runStart).Round(time.Millisecond), cell)
			}
		}
	}
	// -series samples the registry -stats exports, so either records it.
	recordStats := *statsOut != "" || *seriesOut != ""
	var statsRows []mmv2v.StatsRow
	var seriesRows []mmv2v.SeriesRow
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", *format)
	}
	if *workers < 0 {
		return fmt.Errorf("negative worker count %d", *workers)
	}
	csvMode := *format == "csv"
	// Each figure's CSV has its own header and columns, so several figures
	// in one stream would not parse as one CSV.
	if csvMode && *fig == "all" {
		return fmt.Errorf("-format csv writes one figure per run: use -fig <name> -format csv")
	}

	// setup applies the shared flags to a figure's run settings; -trials 0
	// keeps the figure's default.
	setup := func(r *mmv2v.ExperimentRun) {
		r.Seed = *seed
		r.Workers = *workers
		r.Progress = progress
		if *trials > 0 {
			r.Trials = *trials
		}
	}
	// emit prints a figure that ran without error as CSV, or as its table
	// followed by the footer lines and a blank line.
	emit := func(res figure, err error, footer ...string) error {
		if err != nil {
			return err
		}
		if csvMode {
			return res.WriteCSV(w)
		}
		res.WriteTable(w)
		for _, line := range footer {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w)
		return nil
	}

	runners := map[string]func() error{
		"6": func() error {
			opts := mmv2v.DefaultFig6Options()
			setup(&opts.Run)
			res, err := mmv2v.ReproduceFig6(opts)
			if err != nil {
				return err
			}
			return emit(res, nil, fmt.Sprintf("best C per scenario: %v (paper: C ≈ |N_i|, C = 7 as a good practice)", res.BestC()))
		},
		"7": func() error {
			opts := mmv2v.DefaultFig7Options()
			setup(&opts.Run)
			res, err := mmv2v.ReproduceFig7(opts)
			if err != nil {
				return err
			}
			return emit(res, nil, fmt.Sprintf("best K: %d (paper: K = 3)", res.Best()))
		},
		"8": func() error {
			opts := mmv2v.DefaultFig8Options()
			setup(&opts.Run)
			res, err := mmv2v.ReproduceFig8(opts)
			if err != nil {
				return err
			}
			return emit(res, nil, fmt.Sprintf("best M: %d (paper: M = 40)", res.Best()))
		},
		"9": func() error {
			opts := mmv2v.DefaultFig9Options()
			setup(&opts.Run)
			opts.Stats = recordStats
			res, err := mmv2v.ReproduceFig9(opts)
			if err != nil {
				return err
			}
			statsRows = append(statsRows, res.StatsRows()...)
			seriesRows = append(seriesRows, res.SeriesRows()...)
			return emit(res, nil,
				"paper reference @15 vpl: mmV2V 0.742, ROP 0.319, 802.11ad 0.465",
				"paper reference @30 vpl: mmV2V 0.576, ROP 0.227, 802.11ad 0.192")
		},
		"t2": func() error {
			opts := mmv2v.DefaultTheorem2Options()
			opts.Seed = *seed
			return emit(mmv2v.ValidateTheorem2(opts))
		},
		"warmup": func() error {
			opts := mmv2v.DefaultWarmupOptions()
			setup(&opts.Run)
			return emit(mmv2v.RunWarmup(opts))
		},
		"trucks": func() error {
			opts := mmv2v.DefaultTrucksOptions()
			setup(&opts.Run)
			return emit(mmv2v.RunTrucks(opts))
		},
		"faults": func() error {
			opts := mmv2v.DefaultFaultsOptions()
			setup(&opts.Run)
			opts.Stats = recordStats
			res, err := mmv2v.RunFaultSweep(opts)
			if err != nil {
				return err
			}
			statsRows = append(statsRows, res.StatsRows()...)
			seriesRows = append(seriesRows, res.SeriesRows()...)
			return emit(res, nil)
		},
		"city": func() error {
			opts := mmv2v.DefaultCityOptions()
			setup(&opts.Run)
			return emit(mmv2v.ReproduceCity(opts))
		},
		"ablation": func() error {
			opts := mmv2v.DefaultAblationOptions()
			setup(&opts.Run)
			return emit(mmv2v.RunAblation(opts))
		},
	}

	// "all" keeps its pre-fault-layer composition so full-suite output
	// stays byte-identical; run the fault sweep with -fig faults/-faults and
	// the city-grid comparison with -fig city.
	order := []string{"t2", "6", "7", "8", "9", "ablation", "trucks", "warmup"}
	if *fig != "all" {
		if _, ok := runners[*fig]; !ok {
			return fmt.Errorf("unknown figure %q (want 6, 7, 8, 9, t2, ablation, trucks, warmup, faults, city, all)", *fig)
		}
		order = []string{*fig}
	}
	for _, name := range order {
		start := time.Now()
		if err := runners[name](); err != nil {
			return fmt.Errorf("figure %s: %w", name, err)
		}
		if !csvMode {
			fmt.Fprintf(w, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		}
	}
	// The summary table goes to stderr, and the series gets no table, so
	// the stdout figure tables stay byte-identical with or without either.
	if *statsOut != "" {
		if err := telemetry.WriteStats(*statsOut, statsRows, os.Stderr); err != nil {
			return err
		}
	}
	if *seriesOut != "" {
		if err := telemetry.WriteSeries(*seriesOut, seriesRows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mmv2v-experiments: wrote %d series rows to %s\n", len(seriesRows), *seriesOut)
	}
	return telemetry.WriteMemProfile(*memOut)
}

// figure is what every experiment result prints itself as.
type figure interface {
	WriteTable(w io.Writer)
	WriteCSV(w io.Writer) error
}
