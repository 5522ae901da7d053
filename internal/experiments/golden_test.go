package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"mmv2v/internal/faults"
	"mmv2v/internal/obs"
	"mmv2v/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files")

// renderLegacyTables renders a reduced-scale version of every legacy
// straight-road figure (the -fig all composition) into one byte stream:
// table plus CSV for each. The options are scaled down so the whole suite
// runs in test time, but every rendering code path of the full suite is
// exercised.
func renderLegacyTables(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer

	t2, err := Theorem2(Theorem2Options{
		Seed: 1, Pairs: 5000, KValues: []int{1, 3}, PValues: []float64{0.5},
		MeasureInSim: true, ConvergenceFrames: 2, DensityVPL: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	t2.WriteTable(&buf)
	if err := t2.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f6, err := Fig6(Fig6Options{
		Seed: 1, Trials: 1, Densities: []float64{12},
		CValues: []int{1, 7}, MaxSlots: 40, Frames: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f6.WriteTable(&buf)
	if err := f6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f7, err := Fig7(Fig7Options{
		Seed: 1, Trials: 1, DensityVPL: 12, KValues: []int{1, 3}, M: 40, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f7.WriteTable(&buf)
	if err := f7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f8, err := Fig8(Fig8Options{
		Seed: 1, Trials: 1, DensityVPL: 12, MValues: []int{20, 40}, K: 3, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f8.WriteTable(&buf)
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f9, err := Fig9(Fig9Options{Seed: 1, Trials: 1, Densities: []float64{12, 15}})
	if err != nil {
		t.Fatal(err)
	}
	f9.WriteTable(&buf)
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	abl, err := Ablation(AblationOptions{Seed: 1, Trials: 1, DensityVPL: 10})
	if err != nil {
		t.Fatal(err)
	}
	abl.WriteTable(&buf)
	if err := abl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	tr, err := Trucks(TrucksOptions{
		Seed: 1, Trials: 1, DensityVPL: 12, Fractions: []float64{0, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.WriteTable(&buf)
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	wu, err := Warmup(WarmupOptions{Seed: 1, Trials: 1, DensityVPL: 12, Windows: 2})
	if err != nil {
		t.Fatal(err)
	}
	wu.WriteTable(&buf)

	return buf.Bytes()
}

// TestLegacyTablesByteIdentical is the road-graph refactor's byte-compat
// guard: the straight-road world is now the trivial one-road special case of
// the network/spatial-hash stack, and every legacy table must stay
// byte-identical to the goldens captured before the refactor. Regenerate
// (only for an intentional, reviewed output change) with
//
//	go test ./internal/experiments -run TestLegacyTablesByteIdentical -update
func TestLegacyTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the reduced full-figure suite")
	}
	checkGolden(t, "legacy_tables.golden", renderLegacyTables(t))
}

// renderFaultTables renders the reduced fault sweep (the same options as
// TestFaultSweepByteIdenticalAcrossWorkers) with statistics on: the table,
// its CSV, and every cell's stats rows, including the faults.* and medium.*
// counters.
func renderFaultTables(t *testing.T) []byte {
	t.Helper()
	res, err := FaultSweep(FaultsOptions{
		Seed:        1,
		Trials:      2,
		DensityVPL:  12,
		WindowSec:   0.2,
		Intensities: []float64{0, 1},
		Profile:     faults.DefaultConfig(),
		Stats:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteCSV(&buf, res.StatsRows()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultTablesByteIdentical pins the bytes of faulted runs: radio churn,
// frame loss and slot jitter exercise medium paths the clean-channel
// goldens never reach, so a fast path that changed them would otherwise go
// unnoticed. Regenerate only for an intentional, reviewed output change
// (same -update flag as TestLegacyTablesByteIdentical).
func TestFaultTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced fault sweep")
	}
	checkGolden(t, "faults_tables.golden", renderFaultTables(t))
}

// checkGolden compares got against testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden bytes to %s", len(got), path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update at a known-good commit): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the golden (%d vs %d bytes)\n--- got ---\n%s",
			name, len(got), len(want), got)
	}
}

// TestDefaultScenarioUnchanged pins the legacy scenario constructor: the
// straight-road config the golden tables are built from must keep producing
// the same road geometry (1 km, 3 lanes/dir) regardless of how the traffic
// substrate is reorganized.
func TestDefaultScenarioUnchanged(t *testing.T) {
	cfg := sim.DefaultConfig(15, 1)
	if cfg.Traffic.Length != 1000 || cfg.Traffic.LanesPerDir != 3 {
		t.Fatalf("legacy scenario geometry changed: %+v", cfg.Traffic)
	}
}
