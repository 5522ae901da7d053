// Command mmv2v-sim runs one OHM scenario and prints the paper's metrics.
//
// Usage:
//
//	mmv2v-sim -density 15 -protocol mmv2v -trials 3 -seconds 1
//	mmv2v-sim -density 20 -faults 0.5            # stress at half intensity
//	mmv2v-sim -world grid -grid-vehicles 240     # protocols on a city grid
//	mmv2v-sim -world grid -drive 10              # 10k-vehicle scale drive
//
// Protocols: mmv2v (default), rop, ad, oracle, all.
//
// -world grid replaces the paper's straight road with a Manhattan road
// network (-rows × -cols intersections, -block m blocks). -drive N skips
// the radio protocol entirely and drives 5 ms traffic steps plus link-table
// refreshes every -refresh-ms simulated milliseconds for N simulated
// seconds, reporting link-table size and wall-clock per refresh — the scale
// mode for city-sized fleets (default 10000 vehicles). With no protocol to
// observe, -drive refuses -stats, -series, -trace and -runlog.
//
// -faults scales the standard fault profile (control loss, blockage bursts,
// radio churn, slot jitter; see internal/faults) by the given intensity;
// 0 (the default) is a clean channel. Trials are crash-isolated: a trial
// that panics is reported on stderr as a TrialError with a repro command,
// while the remaining trials still pool.
//
// -runlog <file> records a replayable run log of the whole pooled run —
// re-render or verify it with mmv2v-replay. A killed run is recovered by
// re-running the same command: every trial is a pure function of (flags,
// seed), so the re-run reproduces the lost windows byte for byte. See
// DESIGN.md §11.
//
// -trace <path> writes every protocol event (SND discoveries, DCM matches
// and break-ups, UDT stream starts, rates and completions, 802.11ad
// associations) as JSON Lines: protocol by protocol, trial-major, in
// emission order within a trial, so the file is identical for any number
// of cores.
//
// -stats <path> records per-layer statistics (discovery sweeps, control
// frames, SINR histograms, airtime per MCS, ...) and writes them to the
// path as JSON Lines — or CSV when the path ends in .csv — plus a summary
// table; see DESIGN.md §9 for the schema. -cpuprofile/-memprofile write
// pprof profiles of the run.
//
// -series <path> additionally samples the statistics registry at every
// window boundary and writes the per-window deltas as JSON Lines (CSV when
// the path ends in .csv), one scope per protocol. -http <addr> serves live
// run telemetry — /healthz, /metrics, /series, /progress and
// /debug/pprof/ — while the run executes; like -series it brings up the
// -stats registry (part of the scenario fingerprint) but changes nothing
// on stdout. Under -drive the HTTP surface reports per-refresh
// link-table gauges instead. See DESIGN.md §9 for the contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"mmv2v"
	"mmv2v/cmd/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-sim:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		density   = flag.Float64("density", 15, "traffic density in vehicles/lane/km (paper: 15-30)")
		protocol  = flag.String("protocol", "mmv2v", "protocol: mmv2v, rop, ad, oracle, all")
		seed      = flag.Uint64("seed", 1, "scenario seed")
		trials    = flag.Int("trials", 1, "independent trials to pool")
		seconds   = flag.Float64("seconds", 1, "measurement window length (s)")
		windows   = flag.Int("windows", 1, "number of consecutive windows")
		demand    = flag.Float64("demand", 200e6, "HRIE task demand per neighbor per window (bits)")
		k         = flag.Int("K", 3, "mmV2V discovery rounds")
		m         = flag.Int("M", 40, "mmV2V negotiation slots")
		c         = flag.Int("C", 7, "mmV2V CNS hash constant")
		jsonOut   = flag.Bool("json", false, "emit per-protocol summaries as JSON instead of a table")
		traceOut  = flag.String("trace", "", "write protocol events as JSON Lines to this file")
		intensity = flag.Float64("faults", 0, "fault-injection intensity: scales the standard stress profile (0 = clean channel, 1 = full profile)")
		statsOut  = flag.String("stats", "", "record per-layer statistics and write them to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
		cpuOut    = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memOut    = flag.String("memprofile", "", "write a pprof heap profile at the end of the run to this file")
		runlogOut = flag.String("runlog", "", "write a replayable run log to this file (requires a single -protocol; verify or re-render it with mmv2v-replay)")
		worldKind = flag.String("world", "road", "mobility substrate: road (straight 1 km road) or grid (Manhattan road network)")
		gridRows  = flag.Int("rows", 0, "grid world: intersection rows (0 = 3 for protocol runs, 12 for -drive)")
		gridCols  = flag.Int("cols", 0, "grid world: intersection columns (0 = 3 for protocol runs, 12 for -drive)")
		gridBlock = flag.Float64("block", 0, "grid world: block edge length in m (0 = 200 for protocol runs, 500 for -drive)")
		gridVeh   = flag.Int("grid-vehicles", 0, "grid world: vehicle count (0 = 240 for protocol runs, 10000 for -drive)")
		driveSec  = flag.Float64("drive", 0, "drive traffic + link refreshes for this many simulated seconds without a protocol (grid world scale mode)")
		refreshMs = flag.Float64("refresh-ms", 100, "scale drive: link-table refresh period in simulated ms (traffic always steps at 5 ms)")
		seriesOut = flag.String("series", "", "sample per-layer statistics at every window boundary and write the per-window deltas to this file (CSV if the path ends in .csv, JSON Lines otherwise)")
		httpAddr  = flag.String("http", "", "serve live run telemetry (/healthz /metrics /series /progress /debug/pprof/) on this address; implies -series sampling")
	)
	flag.Parse()
	if *worldKind != "road" && *worldKind != "grid" {
		return fmt.Errorf("unknown world %q (want road or grid)", *worldKind)
	}
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
		fmt.Fprintf(os.Stderr, "mmv2v-sim: live introspection on http://%s\n", addr)
	}
	if *driveSec > 0 {
		if *worldKind != "grid" {
			return fmt.Errorf("-drive requires -world grid")
		}
		// The drive runs no protocol: it has no registry to sample or
		// export, no protocol events to trace and no trials to log.
		for _, fl := range []struct{ name, path string }{
			{"series", *seriesOut}, {"stats", *statsOut}, {"trace", *traceOut}, {"runlog", *runlogOut},
		} {
			if fl.path != "" {
				return fmt.Errorf("-drive runs no protocol; drop -%s", fl.name)
			}
		}
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
	if *driveSec > 0 {
		if err := driveGrid(gridConfig(*gridRows, *gridCols, *gridBlock, *gridVeh, driveGridDefaults), *seed, *driveSec, *refreshMs, srv); err != nil {
			return err
		}
		return telemetry.WriteMemProfile(*memOut)
	}

	cfg := mmv2v.DefaultScenario(*density, *seed)
	if *worldKind == "grid" {
		grid := gridConfig(*gridRows, *gridCols, *gridBlock, *gridVeh, protocolGridDefaults)
		cfg = mmv2v.GridScenario(grid, *seed)
	}
	// -series and -http need the windowed series, which comes with the
	// statistics registry; all three are scenario-defining (fingerprint).
	cfg.Stats = *statsOut != "" || *seriesOut != "" || *httpAddr != ""
	cfg.Trace = *traceOut != ""
	cfg.WindowSec = *seconds
	cfg.Windows = *windows
	cfg.DemandBits = *demand
	if *intensity < 0 {
		return fmt.Errorf("negative fault intensity %v", *intensity)
	}
	if *intensity > 0 {
		profile := mmv2v.DefaultFaultConfig().Scale(*intensity)
		cfg.Faults = &profile
	}

	params := mmv2v.DefaultParams()
	params.K = *k
	params.M = *m
	params.C = *c
	if err := params.Validate(); err != nil {
		return err
	}

	factories := map[string]mmv2v.Factory{
		"mmv2v":  mmv2v.MMV2V(params),
		"rop":    mmv2v.ROP(mmv2v.DefaultROPParams()),
		"ad":     mmv2v.AD(mmv2v.DefaultADParams()),
		"oracle": mmv2v.Oracle(params),
	}
	var names []string
	if *protocol == "all" {
		names = []string{"mmv2v", "rop", "ad", "oracle"}
	} else {
		if _, ok := factories[*protocol]; !ok {
			return fmt.Errorf("unknown protocol %q", *protocol)
		}
		names = []string{*protocol}
	}
	if *runlogOut != "" {
		if len(names) > 1 {
			return fmt.Errorf("-runlog needs a single -protocol, not all")
		}
		if cfg.Stats {
			return fmt.Errorf("-runlog's recorded recipe cannot reproduce the statistics registry; drop -stats/-series/-http")
		}
	}

	if !*jsonOut {
		if cfg.Grid != nil {
			fmt.Printf("scenario: %dx%d grid, %.0f m blocks, %d vehicles, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				cfg.Grid.Rows, cfg.Grid.Cols, cfg.Grid.BlockM, cfg.Grid.Vehicles, *seed, *trials, *windows, *seconds, *demand/1e6)
		} else {
			fmt.Printf("scenario: %.0f vpl, seed %d, %d trial(s) × %d window(s) × %.2f s, demand %.0f Mb/neighbor\n",
				*density, *seed, *trials, *windows, *seconds, *demand/1e6)
		}
		fmt.Printf("%-10s %-8s %-8s %-8s %-8s %-10s\n", "protocol", "OCR", "ATP", "DTP", "avg |N|", "DES events")
	}
	type jsonRow struct {
		Protocol     string  `json:"protocol"`
		DensityVPL   float64 `json:"density_vpl"`
		OCR          float64 `json:"ocr"`
		ATP          float64 `json:"atp"`
		DTP          float64 `json:"dtp"`
		AvgNeighbors float64 `json:"avg_neighbors"`
		Events       uint64  `json:"des_events"`
	}
	var rows []jsonRow
	var statsRows []mmv2v.StatsRow
	var seriesRows []mmv2v.SeriesRow
	var events []mmv2v.TraceEvent
	if srv != nil {
		totalTrials := len(names) * *trials
		srv.SetTotals(len(names), totalTrials, totalTrials*(*windows))
	}
	for _, name := range names {
		pcfg := cfg
		if srv != nil {
			// Each protocol is one cell; trial indices restart per cell, so
			// StartRun drops the previous protocol's accumulators.
			srv.StartRun(name)
			pcfg.Monitor = srv
		}
		var res *mmv2v.Result
		var err error
		if *runlogOut != "" {
			res, err = mmv2v.RunTrialsLogged(pcfg, factories[name], *trials, runLogHeader(name, cfg, *density, *seed, *trials, *seconds, *windows, *demand, *intensity, *k, *m, *c), *runlogOut)
		} else {
			res, err = mmv2v.RunTrials(pcfg, factories[name], *trials)
		}
		if err != nil {
			return err
		}
		if *statsOut != "" {
			statsRows = append(statsRows, mmv2v.StatsRows(res.Obs, res.Protocol)...)
		}
		if *seriesOut != "" {
			seriesRows = append(seriesRows, mmv2v.SeriesRows(res.Series.Points(), res.Protocol)...)
		}
		events = append(events, res.Trace...)
		if srv != nil {
			srv.CellDone(res.Protocol)
		}
		for _, te := range res.Failures {
			fmt.Fprintf(os.Stderr, "mmv2v-sim: %v\n", te)
		}
		if len(res.Failures) > 0 {
			fmt.Fprintf(os.Stderr, "mmv2v-sim: %s: %d/%d trial(s) pooled (%d lost)\n",
				res.Protocol, res.Trials, *trials, len(res.Failures))
		}
		if *jsonOut {
			rows = append(rows, jsonRow{
				Protocol:     res.Protocol,
				DensityVPL:   *density,
				OCR:          res.Summary.MeanOCR,
				ATP:          res.Summary.MeanATP,
				DTP:          res.Summary.MeanDTP,
				AvgNeighbors: res.AvgNeighbors,
				Events:       res.Events,
			})
			continue
		}
		fmt.Printf("%-10s %-8.3f %-8.3f %-8.3f %-8.1f %-10d\n",
			res.Protocol, res.Summary.MeanOCR, res.Summary.MeanATP, res.Summary.MeanDTP,
			res.AvgNeighbors, res.Events)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			return err
		}
	}
	if *traceOut != "" {
		if err := telemetry.WriteTrace(*traceOut, events); err != nil {
			return err
		}
	}
	if *statsOut != "" {
		// The summary table goes to stdout, or to stderr under -json so
		// stdout stays parseable.
		summary := os.Stdout
		if *jsonOut {
			summary = os.Stderr
		}
		if err := telemetry.WriteStats(*statsOut, statsRows, summary); err != nil {
			return err
		}
	}
	if *seriesOut != "" {
		// Unlike -stats there is no summary table: the series is a
		// machine-readable artifact, and stdout stays byte-identical with
		// or without it.
		if err := telemetry.WriteSeries(*seriesOut, seriesRows); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mmv2v-sim: wrote %d series rows to %s\n", len(seriesRows), *seriesOut)
	}
	return telemetry.WriteMemProfile(*memOut)
}

// runLogHeader assembles the run-log scenario recipe from the CLI flags;
// RunTrialsLogged cross-checks it against the running config's fingerprint
// before simulating anything, so a recipe that would not replay this run
// fails loudly up front.
func runLogHeader(protocol string, cfg mmv2v.ScenarioConfig, density float64, seed uint64, trials int, seconds float64, windows int, demand, intensity float64, k, m, c int) mmv2v.RunLogHeader {
	h := mmv2v.RunLogHeader{
		Protocol:       protocol,
		K:              k,
		M:              m,
		C:              c,
		DensityVPL:     density,
		Seed:           seed,
		Trials:         trials,
		WindowSec:      seconds,
		Windows:        windows,
		DemandBits:     demand,
		FaultIntensity: intensity,
	}
	if cfg.Grid != nil {
		h.Grid = true
		h.DensityVPL = 0
		h.GridRows, h.GridCols = cfg.Grid.Rows, cfg.Grid.Cols
		h.GridBlockM = cfg.Grid.BlockM
		h.GridVehicles = cfg.Grid.Vehicles
	}
	return h
}

// gridDefaults are the per-mode fallbacks for unset grid geometry flags:
// protocol runs get a dense downtown grid so neighborhoods match the
// paper's 5–8 band at 240 vehicles; the scale drive gets the full city.
type gridDefaults struct {
	rows, cols int
	blockM     float64
	vehicles   int
}

var (
	protocolGridDefaults = gridDefaults{rows: 3, cols: 3, blockM: 200, vehicles: 240}
	driveGridDefaults    = gridDefaults{rows: 12, cols: 12, blockM: 500, vehicles: 10000}
)

// gridConfig assembles the grid world from the CLI flags; zero-valued flags
// fall back to the mode's defaults.
func gridConfig(rows, cols int, blockM float64, vehicles int, def gridDefaults) mmv2v.GridConfig {
	if rows == 0 {
		rows = def.rows
	}
	if cols == 0 {
		cols = def.cols
	}
	if blockM <= 0 {
		blockM = def.blockM
	}
	if vehicles == 0 {
		vehicles = def.vehicles
	}
	g := mmv2v.DefaultGridConfig(vehicles)
	g.Rows, g.Cols = rows, cols
	g.BlockM = blockM
	return g
}

// driveGrid is the protocol-free scale mode: advance traffic at the 5 ms
// mobility cadence, refresh the link table every refreshMs simulated
// milliseconds, and report table size plus wall-clock per refresh. All
// timing lives here in the CLI; the library loop is deterministic. With a
// live server attached, every refresh publishes a fresh gauge snapshot and
// tick progress, so /metrics and /progress track a 10k drive in flight.
func driveGrid(grid mmv2v.GridConfig, seed uint64, seconds, refreshMs float64, srv *mmv2v.LiveServer) error {
	buildStart := time.Now()
	g, err := mmv2v.NewGridWorld(grid, seed)
	if err != nil {
		return err
	}
	fmt.Printf("grid world: %dx%d intersections, %.0f m blocks, %d vehicles (built in %v)\n",
		grid.Rows, grid.Cols, grid.BlockM, g.NumVehicles(), time.Since(buildStart).Round(time.Millisecond))
	ticks := int(seconds / g.TickSeconds())
	every := max(int(refreshMs/(g.TickSeconds()*1000)), 1)
	refreshes := 0
	var inRefresh time.Duration
	start := time.Now()
	for t := 1; t <= ticks; t++ {
		g.StepTraffic()
		if t%every == 0 {
			rs := time.Now()
			g.RefreshLinks()
			inRefresh += time.Since(rs)
			refreshes++
			if srv != nil {
				publishDrive(srv, g, t, ticks, refreshes)
			}
		}
	}
	elapsed := time.Since(start)
	perRefresh := inRefresh / time.Duration(max(refreshes, 1))
	fmt.Printf("drove %.1f s simulated (%d ticks, link refresh every %d ms) in %v wall (%.1fx real time)\n",
		float64(ticks)*g.TickSeconds(), ticks, every*int(g.TickSeconds()*1000),
		elapsed.Round(time.Millisecond), seconds/elapsed.Seconds())
	fmt.Printf("%d link refreshes, %.2f ms/refresh\n", refreshes, float64(perRefresh.Microseconds())/1000)
	fmt.Printf("final link table: %d directed entries, avg |N| %.1f\n", g.TotalLinks(), g.AvgNeighbors())
	return nil
}

// publishDrive pushes the drive's current link-table shape to the live
// server: one snapshot per refresh, rows pre-sorted by name so /metrics is
// byte-stable between refreshes. Tick counts stand in for windows in
// /progress — the drive has no measurement windows.
func publishDrive(srv *mmv2v.LiveServer, g *mmv2v.GridWorld, tick, ticks, refreshes int) {
	avgN := g.AvgNeighbors()
	links := float64(g.TotalLinks())
	rows := []mmv2v.StatsRow{
		{Name: "drive.avg_neighbors", Kind: "gauge", Count: 1, Sum: avgN, Min: avgN, Max: avgN},
		{Name: "drive.links", Kind: "gauge", Count: 1, Sum: links, Min: links, Max: links},
		{Name: "drive.refreshes", Kind: "counter", Count: uint64(refreshes)},
		{Name: "drive.ticks", Kind: "counter", Count: uint64(tick)},
	}
	srv.Publish(rows, nil, mmv2v.ProgressState{Label: "drive", WindowsDone: tick, WindowsTotal: ticks})
}
