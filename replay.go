// Run logs and byte-identical replay (DESIGN.md §11). A run log is an
// append-only record file (internal/persist log format) that captures a
// pooled RunTrials execution completely enough to re-render its results
// without re-simulating — and to re-verify them against a live re-execution:
//
//   - a header record holding the scenario recipe (world, density or grid,
//     seed, windows, demand, fault intensity, protocol and its parameters)
//     plus the config fingerprint the recipe must reconstruct;
//   - one window record per (trial, window) in trial-major order, carrying
//     the window's results in canonical encoding plus an FNV-1a digest;
//   - one trial record per successful trial with the per-trial pooled stats
//     the trial merge needs;
//   - an end record with the successful-trial count.
//
// Every record is CRC-framed by the container, so torn tails (a crash
// mid-append) are detected and earlier records survive; interior bit flips
// surface as structured checksum errors, never panics. Replay reconstructs
// the per-trial results and re-pools them through the same merge the live
// run used, so the rendered tables are byte-identical. Verification re-runs
// every trial from the recipe and diffs per-window digests, reporting the
// first divergence in (trial, window) order.
package mmv2v

import (
	"fmt"
	"os"

	"mmv2v/internal/persist"
	"mmv2v/internal/sim"
)

// Run-log record types.
const (
	runLogHeaderRec uint8 = 1
	runLogWindowRec uint8 = 2
	runLogTrialRec  uint8 = 3
	runLogEndRec    uint8 = 4
)

// runLogMaxTrials bounds the trial count a log header may declare, so a
// corrupted header cannot demand an absurd allocation.
const runLogMaxTrials = 1 << 20

// RunLogHeader is the scenario recipe stored in a run log: everything
// needed to rebuild the exact ScenarioConfig and protocol factory of the
// recorded run. It mirrors the mmv2v-sim command line rather than the full
// config struct — the log stores how the scenario was asked for, and the
// reconstruction is cross-checked against the recorded config fingerprint
// so a recipe that no longer reproduces the config fails loudly.
type RunLogHeader struct {
	// Protocol is the factory key: "mmv2v", "rop", "ad" or "oracle".
	Protocol string
	// K, M, C are the mmV2V parameters (used by "mmv2v" and "oracle";
	// recorded verbatim for the others).
	K, M, C int
	// Grid selects the Manhattan-grid world; when false the scenario is the
	// paper's straight road at DensityVPL.
	Grid       bool
	DensityVPL float64
	// GridRows, GridCols, GridBlockM, GridVehicles size the grid world
	// (zero when Grid is false).
	GridRows, GridCols int
	GridBlockM         float64
	GridVehicles       int
	// Seed, Trials, WindowSec, Windows, DemandBits, FaultIntensity complete
	// the recipe (FaultIntensity scales DefaultFaultConfig; 0 = clean).
	Seed           uint64
	Trials         int
	WindowSec      float64
	Windows        int
	DemandBits     float64
	FaultIntensity float64
}

// Config rebuilds the scenario the header describes.
func (h RunLogHeader) Config() (ScenarioConfig, error) {
	var cfg ScenarioConfig
	if h.Grid {
		g := DefaultGridConfig(h.GridVehicles)
		g.Rows, g.Cols = h.GridRows, h.GridCols
		g.BlockM = h.GridBlockM
		cfg = GridScenario(g, h.Seed)
	} else {
		cfg = DefaultScenario(h.DensityVPL, h.Seed)
	}
	cfg.WindowSec = h.WindowSec
	cfg.Windows = h.Windows
	cfg.DemandBits = h.DemandBits
	if h.FaultIntensity < 0 {
		return cfg, fmt.Errorf("mmv2v: run log has negative fault intensity %v", h.FaultIntensity)
	}
	if h.FaultIntensity > 0 {
		profile := DefaultFaultConfig().Scale(h.FaultIntensity)
		cfg.Faults = &profile
	}
	if h.Trials <= 0 || h.Trials > runLogMaxTrials {
		return cfg, fmt.Errorf("mmv2v: run log declares invalid trial count %d", h.Trials)
	}
	return cfg, cfg.Validate()
}

// Factory rebuilds the protocol factory the header describes.
func (h RunLogHeader) Factory() (Factory, error) {
	switch h.Protocol {
	case "mmv2v", "oracle":
		p := DefaultParams()
		p.K, p.M, p.C = h.K, h.M, h.C
		if err := p.Validate(); err != nil {
			return nil, err
		}
		if h.Protocol == "oracle" {
			return Oracle(p), nil
		}
		return MMV2V(p), nil
	case "rop":
		return ROP(DefaultROPParams()), nil
	case "ad":
		return AD(DefaultADParams()), nil
	}
	return nil, fmt.Errorf("mmv2v: run log names unknown protocol %q", h.Protocol)
}

// encodeRunLogHeader writes the header record payload: the recipe plus the
// fingerprint of the config it reconstructs.
func encodeRunLogHeader(h RunLogHeader, fingerprint uint64) []byte {
	var e persist.Encoder
	e.U64(fingerprint)
	e.String(h.Protocol)
	e.Int(h.K)
	e.Int(h.M)
	e.Int(h.C)
	e.Bool(h.Grid)
	e.F64(h.DensityVPL)
	e.Int(h.GridRows)
	e.Int(h.GridCols)
	e.F64(h.GridBlockM)
	e.Int(h.GridVehicles)
	e.U64(h.Seed)
	e.Int(h.Trials)
	e.F64(h.WindowSec)
	e.Int(h.Windows)
	e.F64(h.DemandBits)
	e.F64(h.FaultIntensity)
	return e.Bytes()
}

// decodeRunLogHeader reads the header record payload.
func decodeRunLogHeader(d *persist.Decoder) (RunLogHeader, uint64) {
	fingerprint := d.U64()
	h := RunLogHeader{
		Protocol: d.String(),
		K:        d.Int(),
		M:        d.Int(),
		C:        d.Int(),
		Grid:     d.Bool(),
	}
	h.DensityVPL = d.F64()
	h.GridRows = d.Int()
	h.GridCols = d.Int()
	h.GridBlockM = d.F64()
	h.GridVehicles = d.Int()
	h.Seed = d.U64()
	h.Trials = d.Int()
	h.WindowSec = d.F64()
	h.Windows = d.Int()
	h.DemandBits = d.F64()
	h.FaultIntensity = d.F64()
	return h, fingerprint
}

// encodeTrialTail writes a trial record payload: the per-trial fields the
// trial merge consumes beyond the window records.
func encodeTrialTail(trial int, r *Result) []byte {
	var e persist.Encoder
	e.Int(trial)
	e.String(r.Protocol)
	sim.EncodeVehicleStats(&e, r.Stats)
	e.F64(r.AvgNeighbors)
	e.F64(r.LatencySumSec)
	e.Int(r.LatencyPairs)
	e.U64(r.Events)
	return e.Bytes()
}

// RunTrialsLogged runs like RunTrials and additionally writes a run log to
// path: the scenario recipe in h, then every successful trial's per-window
// results with digests. h must reconstruct exactly the scenario being run —
// mismatches fail before any simulation, because a log that cannot replay
// its own run is worse than no log. The file is written atomically after
// the pool drains.
func RunTrialsLogged(cfg ScenarioConfig, f Factory, trials int, h RunLogHeader, path string) (*Result, error) {
	if h.Trials != trials {
		return nil, fmt.Errorf("mmv2v: run-log header declares %d trials, running %d", h.Trials, trials)
	}
	hcfg, err := h.Config()
	if err != nil {
		return nil, err
	}
	fingerprint := sim.Fingerprint(cfg)
	if got := sim.Fingerprint(hcfg); got != fingerprint {
		return nil, fmt.Errorf("mmv2v: run-log header does not reconstruct this scenario (recipe fingerprint %#x, config %#x)", got, fingerprint)
	}
	if _, err := h.Factory(); err != nil {
		return nil, err
	}
	log := persist.NewLog()
	log = persist.AppendRecord(log, runLogHeaderRec, encodeRunLogHeader(h, fingerprint))
	res, err := sim.NewRunner(cfg.Workers).RunTrialsEach(cfg, f, trials, func(tr int, r *sim.Result) {
		for _, w := range r.Windows {
			var e persist.Encoder
			e.Int(tr)
			e.U64(sim.WindowDigest(tr, w))
			sim.EncodeWindowResult(&e, w)
			log = persist.AppendRecord(log, runLogWindowRec, e.Bytes())
		}
		log = persist.AppendRecord(log, runLogTrialRec, encodeTrialTail(tr, r))
	})
	if err != nil {
		return nil, err
	}
	var e persist.Encoder
	e.Int(res.Trials)
	log = persist.AppendRecord(log, runLogEndRec, e.Bytes())
	if err := persist.WriteFileAtomic(path, log); err != nil {
		return nil, fmt.Errorf("mmv2v: run log %s: %w", path, err)
	}
	return res, nil
}

// RunLog is a parsed run log.
type RunLog struct {
	// Header is the scenario recipe; Fingerprint is the recorded config
	// fingerprint the recipe reconstructed when the log was written.
	Header      RunLogHeader
	Fingerprint uint64
	// PerTrial holds the reconstructed per-trial results, indexed by trial;
	// nil slots are trials the recorded run lost (or that a torn tail cut
	// off). Digests holds the recorded per-window digests per trial.
	PerTrial []*Result
	Digests  [][]uint64
	// Truncated reports that the log ended in a torn tail (crash mid-
	// append); the records before the tear are still loaded.
	Truncated bool
}

// ReadRunLog parses and validates a run log file. Window records are
// re-digested on load, so any corruption that slipped past the per-record
// CRC still surfaces as a structured error. Corrupted input returns an
// error, never panics.
func ReadRunLog(path string) (*RunLog, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("mmv2v: run log: %w", err)
	}
	recs, truncated, err := persist.ReadLog(data)
	if err != nil {
		return nil, fmt.Errorf("mmv2v: run log %s: %w", path, err)
	}
	if len(recs) == 0 || recs[0].Type != runLogHeaderRec {
		return nil, fmt.Errorf("mmv2v: run log %s: %w: missing header record", path, persist.ErrCorrupt)
	}
	hd := persist.NewDecoder(recs[0].Payload)
	header, fingerprint := decodeRunLogHeader(hd)
	if err := hd.Err(); err != nil {
		return nil, fmt.Errorf("mmv2v: run log %s header: %w", path, err)
	}
	if header.Trials <= 0 || header.Trials > runLogMaxTrials {
		return nil, fmt.Errorf("mmv2v: run log %s: %w: invalid trial count %d", path, persist.ErrCorrupt, header.Trials)
	}
	if header.Windows <= 0 {
		return nil, fmt.Errorf("mmv2v: run log %s: %w: invalid window count %d", path, persist.ErrCorrupt, header.Windows)
	}
	rl := &RunLog{
		Header:      header,
		Fingerprint: fingerprint,
		PerTrial:    make([]*Result, header.Trials),
		Digests:     make([][]uint64, header.Trials),
		Truncated:   truncated,
	}
	// windows accumulates per-trial window records until the trial record
	// seals them into PerTrial.
	windows := make([][]sim.WindowResult, header.Trials)
	digests := make([][]uint64, header.Trials)
	sealed := 0
	ended := false
	for i, rec := range recs[1:] {
		if ended {
			return nil, fmt.Errorf("mmv2v: run log %s: %w: record after end record", path, persist.ErrCorrupt)
		}
		d := persist.NewDecoder(rec.Payload)
		switch rec.Type {
		case runLogWindowRec:
			tr := d.Int()
			digest := d.U64()
			w := sim.DecodeWindowResult(d)
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w", path, i+1, err)
			}
			if tr < 0 || tr >= header.Trials {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: trial %d outside [0, %d)", path, i+1, persist.ErrCorrupt, tr, header.Trials)
			}
			if rl.PerTrial[tr] != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: window record after trial %d was sealed", path, i+1, persist.ErrCorrupt, tr)
			}
			if w.Window != len(windows[tr]) || w.Window >= header.Windows {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: trial %d window %d out of sequence (have %d of %d)",
					path, i+1, persist.ErrCorrupt, tr, w.Window, len(windows[tr]), header.Windows)
			}
			if got := sim.WindowDigest(tr, w); got != digest {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: trial %d window %d digest %#x, recorded %#x",
					path, i+1, persist.ErrChecksum, tr, w.Window, got, digest)
			}
			windows[tr] = append(windows[tr], w)
			digests[tr] = append(digests[tr], digest)
		case runLogTrialRec:
			tr := d.Int()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w", path, i+1, err)
			}
			if tr < 0 || tr >= header.Trials {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: trial %d outside [0, %d)", path, i+1, persist.ErrCorrupt, tr, header.Trials)
			}
			if rl.PerTrial[tr] != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: duplicate trial record %d", path, i+1, persist.ErrCorrupt, tr)
			}
			if len(windows[tr]) != header.Windows {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: trial %d sealed with %d of %d windows",
					path, i+1, persist.ErrCorrupt, tr, len(windows[tr]), header.Windows)
			}
			res := &Result{Protocol: d.String(), Windows: windows[tr], Trials: 1}
			res.Stats = sim.DecodeVehicleStats(d)
			res.AvgNeighbors = d.F64()
			res.LatencySumSec = d.F64()
			res.LatencyPairs = d.Int()
			res.Events = d.U64()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w", path, i+1, err)
			}
			rl.PerTrial[tr] = res
			rl.Digests[tr] = digests[tr]
			sealed++
		case runLogEndRec:
			count := d.Int()
			if err := d.Err(); err != nil {
				return nil, fmt.Errorf("mmv2v: run log %s record %d: %w", path, i+1, err)
			}
			if count != sealed {
				return nil, fmt.Errorf("mmv2v: run log %s: %w: end record counts %d trials, log carries %d", path, persist.ErrCorrupt, count, sealed)
			}
			ended = true
		default:
			return nil, fmt.Errorf("mmv2v: run log %s record %d: %w: unknown record type %d", path, i+1, persist.ErrCorrupt, rec.Type)
		}
	}
	if !ended {
		// A torn tail legitimately loses the end record (and possibly the
		// last trial's seal); anything else is corruption.
		if !truncated {
			return nil, fmt.Errorf("mmv2v: run log %s: %w: missing end record without a torn tail", path, persist.ErrCorrupt)
		}
	}
	if sealed == 0 {
		return nil, fmt.Errorf("mmv2v: run log %s: %w: no complete trial", path, persist.ErrCorrupt)
	}
	return rl, nil
}

// Result re-pools the logged per-trial results through the same trial merge
// a live RunTrials uses, re-rendering the recorded run byte-identically.
func (rl *RunLog) Result() *Result {
	return sim.MergeTrials(rl.PerTrial)
}

// Divergence locates the first difference between a run log and a live
// re-execution, in (trial, window) order. Window == -1 means the trial's
// window count or presence differed rather than a specific window's bytes.
type Divergence struct {
	Trial, Window  int
	Recorded, Live uint64
}

// String renders the divergence for reports.
func (v *Divergence) String() string {
	if v.Window < 0 {
		return fmt.Sprintf("trial %d diverged: window count or trial outcome differs from the log", v.Trial)
	}
	return fmt.Sprintf("trial %d window %d diverged: recorded digest %#x, live %#x", v.Trial, v.Window, v.Recorded, v.Live)
}

// Verify re-executes the logged run from its recipe on a pool of the given
// worker count (0 = GOMAXPROCS) and diffs the live per-window digests
// against the recorded ones. It returns the first divergence in (trial,
// window) order, or nil when every recorded digest matches — the replay
// contract of DESIGN.md §11. Trials the recorded run lost are skipped.
func (rl *RunLog) Verify(workers int) (*Divergence, error) {
	cfg, err := rl.Header.Config()
	if err != nil {
		return nil, err
	}
	if got := sim.Fingerprint(cfg); got != rl.Fingerprint {
		return nil, fmt.Errorf("mmv2v: run-log recipe no longer reconstructs the recorded scenario (recipe fingerprint %#x, recorded %#x)", got, rl.Fingerprint)
	}
	factory, err := rl.Header.Factory()
	if err != nil {
		return nil, err
	}
	cfg.Workers = workers
	live := make([][]uint64, rl.Header.Trials)
	if _, err := sim.NewRunner(workers).RunTrialsEach(cfg, factory, rl.Header.Trials, func(tr int, r *sim.Result) {
		ds := make([]uint64, len(r.Windows))
		for i, w := range r.Windows {
			ds[i] = sim.WindowDigest(tr, w)
		}
		live[tr] = ds
	}); err != nil {
		return nil, err
	}
	for tr, recorded := range rl.Digests {
		if rl.PerTrial[tr] == nil {
			continue // the recorded run lost this trial; nothing to compare
		}
		got := live[tr]
		for i, want := range recorded {
			if i >= len(got) {
				return &Divergence{Trial: tr, Window: -1}, nil
			}
			if got[i] != want {
				return &Divergence{Trial: tr, Window: i, Recorded: want, Live: got[i]}, nil
			}
		}
		if len(got) != len(recorded) {
			return &Divergence{Trial: tr, Window: -1}, nil
		}
	}
	return nil, nil
}
