package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
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
// exercised. Every experiment reports its cells to progress.
func renderLegacyTables(t *testing.T, progress func(string)) []byte {
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
		Run:       Run{Seed: 1, Trials: 1, Progress: progress},
		Densities: []float64{12}, CValues: []int{1, 7}, MaxSlots: 40, Frames: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	f6.WriteTable(&buf)
	if err := f6.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f7, err := Fig7(Fig7Options{
		Run:        Run{Seed: 1, Trials: 1, Progress: progress},
		DensityVPL: 12, KValues: []int{1, 3}, M: 40, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f7.WriteTable(&buf)
	if err := f7.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f8, err := Fig8(Fig8Options{
		Run:        Run{Seed: 1, Trials: 1, Progress: progress},
		DensityVPL: 12, MValues: []int{20, 40}, K: 3, CurvePoints: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	f8.WriteTable(&buf)
	if err := f8.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	f9, err := Fig9(Fig9Options{Run: Run{Seed: 1, Trials: 1, Progress: progress}, Densities: []float64{12, 15}})
	if err != nil {
		t.Fatal(err)
	}
	f9.WriteTable(&buf)
	if err := f9.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	abl, err := Ablation(AblationOptions{Run: Run{Seed: 1, Trials: 1, Progress: progress}, DensityVPL: 10})
	if err != nil {
		t.Fatal(err)
	}
	abl.WriteTable(&buf)
	if err := abl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	tr, err := Trucks(TrucksOptions{
		Run:        Run{Seed: 1, Trials: 1, Progress: progress},
		DensityVPL: 12, Fractions: []float64{0, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.WriteTable(&buf)
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}

	wu, err := Warmup(WarmupOptions{Run: Run{Seed: 1, Trials: 1, Progress: progress}, DensityVPL: 12, Windows: 2})
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
	var cells progressLog
	checkGolden(t, "legacy_tables.golden", renderLegacyTables(t, cells.record))
	checkLabels(t, &cells, []string{
		"ablation GPS sync error ±5 µs",
		"ablation beam tracking in UDT",
		"ablation explicit on-air refinement",
		"ablation fairness-biased matching (+10 dB)",
		"ablation homogeneous narrow beams (α=12°)",
		"ablation homogeneous wide beams (β=30°)",
		"ablation log-normal shadowing σ=4 dB",
		"ablation mmV2V (paper config)",
		"ablation oracle (centralized greedy)",
		"ablation role probability p=0.3",
		"ablation role probability p=0.7",
		"ablation single discovery round (K=1)",
		"ablation sparse negotiation (M=10)",
		"fig6 density=12 C=1",
		"fig6 density=12 C=7",
		"fig7 K=1",
		"fig7 K=3",
		"fig8 M=20",
		"fig8 M=40",
		"fig9 density=12 802.11ad",
		"fig9 density=12 ROP",
		"fig9 density=12 mmV2V",
		"fig9 density=15 802.11ad",
		"fig9 density=15 ROP",
		"fig9 density=15 mmV2V",
		"trucks fraction=0 mmV2V",
		"trucks fraction=0.2 mmV2V",
		"warmup trial=0",
	})
}

// renderFaultTables renders the reduced fault sweep (the same options as
// TestFaultSweepByteIdenticalAcrossWorkers) with statistics on: the table,
// its CSV, and every cell's stats rows, including the faults.* and medium.*
// counters.
func renderFaultTables(t *testing.T, progress func(string)) []byte {
	t.Helper()
	res, err := FaultSweep(FaultsOptions{
		Run:         Run{Seed: 1, Trials: 2, Progress: progress},
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
	var cells progressLog
	checkGolden(t, "faults_tables.golden", renderFaultTables(t, cells.record))
	checkLabels(t, &cells, []string{
		"faults intensity=0 802.11ad",
		"faults intensity=0 ROP",
		"faults intensity=0 mmV2V",
		"faults intensity=1 802.11ad",
		"faults intensity=1 ROP",
		"faults intensity=1 mmV2V",
	})
}

// renderCityTables renders a reduced city-grid comparison (one trial on
// the default 3×3 grid with 120 vehicles): the table and its CSV.
func renderCityTables(t *testing.T, progress func(string)) []byte {
	t.Helper()
	opts := DefaultCityOptions()
	opts.Trials = 1
	opts.Grid.Vehicles = 120
	opts.Progress = progress
	res, err := City(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCityTablesByteIdentical pins the bytes of the road-graph protocol
// comparison, the one experiment the other goldens do not render.
// Regenerate only for an intentional, reviewed output change (same -update
// flag as TestLegacyTablesByteIdentical).
func TestCityTablesByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced city-grid comparison")
	}
	var cells progressLog
	checkGolden(t, "city_tables.golden", renderCityTables(t, cells.record))
	checkLabels(t, &cells, []string{"city 802.11ad", "city ROP", "city mmV2V"})
}

// progressLog collects the labels an experiment reports from its
// concurrent cells.
type progressLog struct {
	mu     sync.Mutex
	labels []string
}

func (p *progressLog) record(cell string) {
	p.mu.Lock()
	p.labels = append(p.labels, cell)
	p.mu.Unlock()
}

// checkLabels compares the reported labels, sorted because cells complete
// in any order, against want: one label per cell, none twice.
func checkLabels(t *testing.T, p *progressLog, want []string) {
	t.Helper()
	p.mu.Lock()
	got := append([]string(nil), p.labels...)
	p.mu.Unlock()
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("progress labels = %q\nwant %q", got, want)
	}
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
