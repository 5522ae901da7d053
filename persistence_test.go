// End-to-end tests of persistence by re-execution (DESIGN.md §11): a run
// log must re-render its run byte-identically and verify against a live
// re-execution from its recipe, and every decode path must turn corrupted
// input into structured errors, never panics.
package mmv2v_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mmv2v"
	"mmv2v/internal/persist"
	"mmv2v/internal/sim"
)

// persistScenario is the small scenario run-log tests run: several windows
// so every trial logs more than one window record, short windows so the
// suite stays fast.
func persistScenario(seed uint64) mmv2v.ScenarioConfig {
	cfg := mmv2v.DefaultScenario(10, seed)
	cfg.WindowSec = 0.2
	cfg.Windows = 3
	return cfg
}

// comparableResult strips a Result to the deterministic fields the
// byte-identity contract covers (Obs holds pointers and Failures describe
// the execution, not the outcome).
type comparableResult struct {
	Protocol      string
	Windows       []mmv2v.WindowResult
	Stats         []mmv2v.VehicleStats
	Summary       mmv2v.Summary
	AvgNeighbors  float64
	LatencySumSec float64
	LatencyPairs  int
	Events        uint64
	Trials        int
}

func stripResult(r *mmv2v.Result) comparableResult {
	return comparableResult{
		Protocol:      r.Protocol,
		Windows:       r.Windows,
		Stats:         r.Stats,
		Summary:       r.Summary,
		AvgNeighbors:  r.AvgNeighbors,
		LatencySumSec: r.LatencySumSec,
		LatencyPairs:  r.LatencyPairs,
		Events:        r.Events,
		Trials:        r.Trials,
	}
}

func requireSameResult(t *testing.T, label string, want, got *mmv2v.Result) {
	t.Helper()
	if !reflect.DeepEqual(stripResult(want), stripResult(got)) {
		t.Fatalf("%s: results differ\nwant: %+v\ngot:  %+v", label, stripResult(want), stripResult(got))
	}
}

// TestRunLogRoundTrip pins the replay contract end to end: a logged run
// re-renders byte-identically, verifies against live re-execution at
// several worker counts, detects tampering, and survives torn tails.
func TestRunLogRoundTrip(t *testing.T) {
	cfg := persistScenario(31)
	h := mmv2v.RunLogHeader{
		Protocol: "mmv2v", K: 3, M: 40, C: 7,
		DensityVPL: 10, Seed: 31, Trials: 2,
		WindowSec: cfg.WindowSec, Windows: cfg.Windows, DemandBits: cfg.DemandBits,
	}
	path := filepath.Join(t.TempDir(), "run.log")
	live, err := mmv2v.RunTrialsLogged(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()), 2, h, path)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := mmv2v.ReadRunLog(path)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "replayed vs live", live, rl.Result())
	for _, workers := range []int{1, 4} {
		div, err := rl.Verify(workers)
		if err != nil {
			t.Fatal(err)
		}
		if div != nil {
			t.Fatalf("verify (workers=%d) diverged: %s", workers, div)
		}
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// A torn tail (the end record loses bytes) still replays the complete
	// records before it.
	torn := filepath.Join(t.TempDir(), "torn.log")
	if err := os.WriteFile(torn, data[:len(data)-5], 0o600); err != nil {
		t.Fatal(err)
	}
	trl, err := mmv2v.ReadRunLog(torn)
	if err != nil {
		t.Fatal(err)
	}
	if !trl.Truncated {
		t.Error("torn log not flagged truncated")
	}
	requireSameResult(t, "torn-tail replay", live, trl.Result())

	// An interior bit flip is real corruption: a structured error, never a
	// panic, and never a silently different table.
	bad := filepath.Join(t.TempDir(), "bad.log")
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x10
	if err := os.WriteFile(bad, flipped, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := mmv2v.ReadRunLog(bad); err == nil {
		t.Error("bit-flipped log decoded cleanly")
	}

	// A forged window record (contents and digest rewritten consistently,
	// record CRC re-stamped) parses — and -verify catches it as the first
	// divergence against live re-execution.
	forged := forgeWindowRecord(t, data)
	forgedPath := filepath.Join(t.TempDir(), "forged.log")
	if err := os.WriteFile(forgedPath, forged, 0o600); err != nil {
		t.Fatal(err)
	}
	frl, err := mmv2v.ReadRunLog(forgedPath)
	if err != nil {
		t.Fatalf("forged log should parse (tampering is semantically valid): %v", err)
	}
	div, err := frl.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if div == nil {
		t.Fatal("verify missed the forged window")
	}
	if div.Trial != 0 || div.Window != 0 {
		t.Errorf("first divergence at (%d, %d), want (0, 0)", div.Trial, div.Window)
	}
}

// forgeWindowRecord rewrites the first window record of a run log: it
// perturbs the window's AvgNeighbors, recomputes the digest so the log
// stays self-consistent, and re-stamps the record CRC.
func forgeWindowRecord(t *testing.T, data []byte) []byte {
	t.Helper()
	recs, truncated, err := persist.ReadLog(data)
	if err != nil || truncated {
		t.Fatalf("ReadLog: %v (truncated=%v)", err, truncated)
	}
	log := persist.NewLog()
	forgedOne := false
	for _, rec := range recs {
		payload := append([]byte(nil), rec.Payload...)
		if rec.Type == 2 && !forgedOne { // first window record
			d := persist.NewDecoder(payload)
			tr := d.Int()
			_ = d.U64()
			w := sim.DecodeWindowResult(d)
			if err := d.Err(); err != nil {
				t.Fatal(err)
			}
			w.AvgNeighbors++
			var e persist.Encoder
			e.Int(tr)
			e.U64(sim.WindowDigest(tr, w))
			sim.EncodeWindowResult(&e, w)
			payload = e.Bytes()
			forgedOne = true
		}
		log = persist.AppendRecord(log, rec.Type, payload)
	}
	if !forgedOne {
		t.Fatal("no window record found to forge")
	}
	return log
}

// TestGoldenRunLogReplays pins the committed golden run log: the current
// build must re-render it and re-execute it digest-identically — the CI
// replay gate against silent determinism regressions. Regenerate with
//
//	go run ./cmd/mmv2v-sim -density 10 -seed 7 -trials 2 -seconds 0.2 \
//	    -windows 2 -runlog testdata/golden.runlog
//
// only when a change intentionally alters simulation results.
func TestGoldenRunLogReplays(t *testing.T) {
	rl, err := mmv2v.ReadRunLog(filepath.Join("testdata", "golden.runlog"))
	if err != nil {
		t.Fatal(err)
	}
	if rl.Truncated {
		t.Error("golden log has a torn tail")
	}
	res := rl.Result()
	if res.Trials != rl.Header.Trials {
		t.Errorf("golden log replays %d trials, header declares %d", res.Trials, rl.Header.Trials)
	}
	div, err := rl.Verify(0)
	if err != nil {
		t.Fatal(err)
	}
	if div != nil {
		t.Fatalf("this build diverges from the golden run log: %s", div)
	}
}

// TestRunLogHeaderMustReconstructScenario pins that RunTrialsLogged refuses
// to write a log that could not replay the run it records.
func TestRunLogHeaderMustReconstructScenario(t *testing.T) {
	cfg := persistScenario(31)
	h := mmv2v.RunLogHeader{
		Protocol: "mmv2v", K: 3, M: 40, C: 7,
		DensityVPL: 12, // does not match cfg's density 10
		Seed:       31, Trials: 1,
		WindowSec: cfg.WindowSec, Windows: cfg.Windows, DemandBits: cfg.DemandBits,
	}
	path := filepath.Join(t.TempDir(), "run.log")
	if _, err := mmv2v.RunTrialsLogged(cfg, mmv2v.MMV2V(mmv2v.DefaultParams()), 1, h, path); err == nil {
		t.Fatal("mismatched header accepted")
	} else if !strings.Contains(err.Error(), "reconstruct") {
		t.Errorf("unexpected error: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("log file written despite header mismatch")
	}
}

// FuzzRunLogHeader mutates every field of a run-log recipe header. The
// header is input from outside the program (a log file), so rebuilding its
// scenario and protocol must return a value or an error, never panic.
func FuzzRunLogHeader(f *testing.F) {
	rl, err := mmv2v.ReadRunLog(filepath.Join("testdata", "golden.runlog"))
	if err != nil {
		f.Fatal(err)
	}
	add := func(h mmv2v.RunLogHeader) {
		f.Add(h.Protocol, h.K, h.M, h.C, h.Grid, h.DensityVPL,
			h.GridRows, h.GridCols, h.GridBlockM, h.GridVehicles,
			h.Seed, h.Trials, h.WindowSec, h.Windows, h.DemandBits, h.FaultIntensity)
	}
	add(rl.Header)
	huge := rl.Header
	huge.Grid = true
	huge.GridRows, huge.GridCols = 1<<31, 1<<31
	huge.GridBlockM, huge.GridVehicles = 200, 240
	add(huge)
	f.Fuzz(func(t *testing.T, protocol string, k, m, c int, grid bool, density float64,
		rows, cols int, blockM float64, vehicles int,
		seed uint64, trials int, windowSec float64, windows int, demand, intensity float64) {
		h := mmv2v.RunLogHeader{
			Protocol: protocol, K: k, M: m, C: c,
			Grid: grid, DensityVPL: density,
			GridRows: rows, GridCols: cols, GridBlockM: blockM, GridVehicles: vehicles,
			Seed: seed, Trials: trials, WindowSec: windowSec, Windows: windows,
			DemandBits: demand, FaultIntensity: intensity,
		}
		_, _ = h.Config()
		if fac, err := h.Factory(); err == nil && fac == nil {
			t.Fatal("Factory returned neither a factory nor an error")
		}
	})
}
