package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: mmv2v/internal/world
cpu: Example CPU @ 3.00GHz
BenchmarkRefresh15vpl-8   	     100	  11859939 ns/op	   12345 B/op	      67 allocs/op
PASS
ok  	mmv2v/internal/world	2.011s
pkg: mmv2v/internal/obs
BenchmarkNilRegistryCounterInc-8 	1000000000	         0.2504 ns/op
ok  	mmv2v/internal/obs	0.412s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Env["goos"]; got != "linux" {
		t.Errorf("env goos = %q, want linux", got)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Pkg != "mmv2v/internal/world" || b.Name != "Refresh15vpl" || b.Procs != 8 {
		t.Errorf("benchmark[0] = %+v, want Refresh15vpl-8 in internal/world", b)
	}
	if b.Iterations != 100 || b.Metrics["ns/op"] != 11859939 ||
		b.Metrics["B/op"] != 12345 || b.Metrics["allocs/op"] != 67 {
		t.Errorf("benchmark[0] metrics = %+v", b)
	}
	o := rep.Benchmarks[1]
	if o.Pkg != "mmv2v/internal/obs" || o.Metrics["ns/op"] != 0.2504 {
		t.Errorf("benchmark[1] = %+v, want obs no-op result", o)
	}
}

func TestParseSubBenchmarkName(t *testing.T) {
	rep, err := parse(strings.NewReader("BenchmarkHistogram/observe-16 500 3.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Benchmarks[0]
	if b.Name != "Histogram/observe" || b.Procs != 16 {
		t.Errorf("sub-benchmark parsed as %+v", b)
	}
}

func TestParseMalformedLine(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 1 ns/op\n")); err == nil {
		t.Error("malformed iteration count did not error")
	}
}

func TestRunEmitsJSON(t *testing.T) {
	var out strings.Builder
	if _, err := run(strings.NewReader(sample), &out, "2026-08-06", "abc1234"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"date": "2026-08-06"`, `"commit": "abc1234"`, `"name": "Refresh15vpl"`, `"ns/op": 11859939`} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("JSON output missing %s:\n%s", want, out.String())
		}
	}
}

// TestRunOmitsEmptyCommit keeps local runs (no -commit) byte-compatible with
// pre-commit-stamp reports: the field must vanish, not appear empty.
func TestRunOmitsEmptyCommit(t *testing.T) {
	var out strings.Builder
	if _, err := run(strings.NewReader(sample), &out, "2026-08-06", ""); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), `"commit"`) {
		t.Errorf("empty commit stamp serialized:\n%s", out.String())
	}
}

// bench builds a one-metric benchmark entry for gate tests.
func bench(pkg, name string, ns float64) Benchmark {
	return Benchmark{Pkg: pkg, Name: name, Metrics: map[string]float64{"ns/op": ns}}
}

// TestCompareGate covers the baseline regression gate: slowdowns beyond the
// threshold regress, slowdowns within it pass, speedups pass, and baseline
// entries the fresh run did not measure are skipped rather than failed.
func TestCompareGate(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		bench("mmv2v", "Fig6CapacityVsSlots", 1000),
		bench("mmv2v", "Theorem2Validation", 1000),
		bench("mmv2v/internal/world", "Refresh15vpl", 1000),
		bench("mmv2v", "Ablation", 1000),
	}}
	fresh := &Report{Benchmarks: []Benchmark{
		bench("mmv2v", "Fig6CapacityVsSlots", 1300),        // +30%: regression
		bench("mmv2v", "Theorem2Validation", 1100),         // +10%: within threshold
		bench("mmv2v/internal/world", "Refresh15vpl", 700), // speedup
		// Ablation not measured this run: skipped.
		bench("mmv2v", "BrandNew", 9999), // not in baseline: ignored
	}}
	regressions, compared := compare(base, fresh, 0.15, -1)
	if compared != 3 {
		t.Errorf("compared = %d, want 3 (Ablation skipped)", compared)
	}
	if len(regressions) != 1 || !strings.Contains(regressions[0], "Fig6CapacityVsSlots") {
		t.Errorf("regressions = %v, want exactly the +30%% Fig6 entry", regressions)
	}
	if !strings.Contains(regressions[0], "+30.0%") {
		t.Errorf("regression message %q missing the slowdown percentage", regressions[0])
	}

	if regs, _ := compare(base, fresh, 0.5, -1); len(regs) != 0 {
		t.Errorf("50%% threshold should pass a +30%% slowdown, got %v", regs)
	}
}

// membench builds a benchmark entry with -benchmem metrics for gate tests.
func membench(pkg, name string, ns, bytes, allocs float64) Benchmark {
	return Benchmark{Pkg: pkg, Name: name, Metrics: map[string]float64{
		"ns/op": ns, "B/op": bytes, "allocs/op": allocs,
	}}
}

// TestCompareAllocGate covers the -alloc-threshold gate: allocs/op and B/op
// growth beyond the threshold regresses, growth within it passes, a
// zero-alloc baseline fails on any fresh allocation at every threshold, and
// a negative threshold disables the gate entirely.
func TestCompareAllocGate(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh15vpl", 1000, 2000, 20),
		membench("mmv2v/internal/world", "LinkLookup", 10, 0, 0),
		membench("mmv2v/internal/traffic", "Step15vpl", 1000, 2000, 20),
	}}
	fresh := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh15vpl", 1000, 2100, 30), // +50% allocs: regression
		membench("mmv2v/internal/world", "LinkLookup", 10, 16, 1),        // zero baseline: any alloc fails
		membench("mmv2v/internal/traffic", "Step15vpl", 1000, 2200, 22),  // +10%: within threshold
	}}
	regressions, compared := compare(base, fresh, 0.15, 0.25)
	if compared != 3 {
		t.Errorf("compared = %d, want 3", compared)
	}
	if len(regressions) != 3 {
		t.Fatalf("regressions = %v, want Refresh allocs/op plus both LinkLookup metrics", regressions)
	}
	joined := strings.Join(regressions, "\n")
	for _, want := range []string{
		"Refresh15vpl: 20 allocs/op -> 30 allocs/op",
		"LinkLookup: 0 B/op -> 16 B/op",
		"LinkLookup: 0 allocs/op -> 1 allocs/op",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("regressions missing %q:\n%s", want, joined)
		}
	}

	// The zero-alloc contract holds at any threshold.
	if regs, _ := compare(base, fresh, 10, 10); len(regs) != 2 {
		t.Errorf("huge thresholds must still fail the zero-alloc baseline, got %v", regs)
	}
	// Negative threshold turns the allocation gate off.
	if regs, _ := compare(base, fresh, 10, -1); len(regs) != 0 {
		t.Errorf("disabled alloc gate still regressed: %v", regs)
	}
}

// TestCompareAllocGateSkipsUnmeasured keeps partial runs partial: a fresh
// run without -benchmem metrics gates only ns/op even with the allocation
// gate enabled.
// TestCompareBytesFloor: B/op noise within one smallest size class passes
// over a 0 B/op baseline, while a real allocation fails on both metrics.
func TestCompareBytesFloor(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh30vpl", 1000, 0, 0),
		membench("mmv2v/internal/traffic", "Step60vpl", 1000, 2, 0),
	}}
	noise := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh30vpl", 1000, 1, 0),
		membench("mmv2v/internal/traffic", "Step60vpl", 1000, 10, 0),
	}}
	if regs, compared := compare(base, noise, 0.15, 0); compared != 2 || len(regs) != 0 {
		t.Errorf("compared = %d, regressions = %v; want 2 compared, none regressed", compared, regs)
	}
	alloc := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh30vpl", 1000, 16, 1),
	}}
	regs, _ := compare(base, alloc, 0.15, 0.25)
	joined := strings.Join(regs, "\n")
	for _, want := range []string{
		"Refresh30vpl: 0 B/op -> 16 B/op",
		"Refresh30vpl: 0 allocs/op -> 1 allocs/op",
	} {
		if !strings.Contains(joined, want) {
			t.Errorf("regressions missing %q:\n%s", want, joined)
		}
	}
	if len(regs) != 2 {
		t.Errorf("regressions = %v, want both Refresh30vpl metrics", regs)
	}
}

func TestCompareAllocGateSkipsUnmeasured(t *testing.T) {
	base := &Report{Benchmarks: []Benchmark{
		membench("mmv2v/internal/world", "Refresh15vpl", 1000, 2000, 20),
	}}
	fresh := &Report{Benchmarks: []Benchmark{
		bench("mmv2v/internal/world", "Refresh15vpl", 1000),
	}}
	regressions, compared := compare(base, fresh, 0.15, 0)
	if compared != 1 || len(regressions) != 0 {
		t.Errorf("compared = %d, regressions = %v; want 1 compared, none regressed", compared, regressions)
	}
}

// TestCompareAgainstCommittedBaseline keeps the gate wired to the real
// committed baseline: the pinned hot paths must parse out of the repo's
// BENCH_*.json with usable ns/op values.
func TestCompareAgainstCommittedBaseline(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_2026-10-17.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	if len(base.Benchmarks) == 0 {
		t.Fatal("committed baseline has no benchmarks")
	}
	// A fresh run identical to the baseline must pass at any threshold,
	// with the allocation gate enabled at zero tolerance.
	regressions, compared := compare(&base, &base, 0, 0)
	if len(regressions) != 0 {
		t.Errorf("self-comparison regressed: %v", regressions)
	}
	if compared == 0 {
		t.Error("self-comparison compared no benchmarks; ns/op metrics missing from baseline")
	}
}
