// Command mmv2v-bench2json converts `go test -bench` text output into a
// structured JSON document, so benchmark runs can be archived and diffed
// (see `make bench-json`, which snapshots a run as BENCH_<date>.json).
//
// Usage:
//
//	go test -bench=. -benchmem ./... | mmv2v-bench2json -date 2026-08-06
//	go test -bench=. ./... | mmv2v-bench2json -baseline BENCH_2026-08-08.json -threshold 0.15
//
// The converter reads stdin, groups benchmark lines under the pkg: headers
// `go test` prints per package, splits the -N GOMAXPROCS suffix off each
// name, and carries every value/unit pair (ns/op, B/op, allocs/op, custom
// units) into a metrics map. Non-benchmark lines (PASS, ok, failures) are
// ignored, so piping a full `make bench` run through it just works.
//
// -commit stamps the report with the source revision it measured; CI passes
// its checkout SHA so archived reports are traceable. The converter never
// execs git itself — provenance is the caller's claim, not a subprocess.
//
// With -baseline, the converted run doubles as a regression gate: each
// fresh (pkg, name) ns/op is compared against the committed baseline
// report, and the command exits nonzero when any pinned hot path slowed by
// more than the -threshold fraction. Baseline entries missing from the
// fresh run are skipped — partial bench runs gate only what they measured.
//
// -alloc-threshold (off when negative, the default) additionally gates
// allocs/op and B/op by the same fractional rule. Unlike the ns/op gate,
// zero baselines are not skipped: a hot path measured at 0 allocs/op is a
// contract, and any fresh allocation on it fails at every threshold. B/op
// growth must also exceed bytesFloor (8 B/op, one smallest size class):
// benchmarks at 0 allocs/op read a byte or two per op from run to run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Pkg        string             `json:"pkg,omitempty"`
	Name       string             `json:"name"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the whole converted run.
type Report struct {
	Date       string            `json:"date,omitempty"`
	Commit     string            `json:"commit,omitempty"`
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
}

func main() {
	date := flag.String("date", time.Now().Format("2006-01-02"), "date stamp for the report")
	commit := flag.String("commit", "", "commit hash to stamp into the report (CI passes its checkout SHA; the converter never execs git)")
	baseline := flag.String("baseline", "", "baseline report JSON to gate ns/op against; exit 1 on regression")
	threshold := flag.Float64("threshold", 0.15, "allowed fractional ns/op slowdown over the baseline")
	allocThreshold := flag.Float64("alloc-threshold", -1, "allowed fractional allocs/op and B/op growth over the baseline; negative disables the allocation gate")
	flag.Parse()
	rep, err := run(os.Stdin, os.Stdout, *date, *commit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-bench2json:", err)
		os.Exit(1)
	}
	if *baseline == "" {
		return
	}
	data, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmv2v-bench2json:", err)
		os.Exit(1)
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Fprintf(os.Stderr, "mmv2v-bench2json: %s: %v\n", *baseline, err)
		os.Exit(1)
	}
	regressions, compared := compare(&base, rep, *threshold, *allocThreshold)
	fmt.Fprintf(os.Stderr, "mmv2v-bench2json: compared %d benchmark(s) against %s (threshold %+.0f%%)\n",
		compared, *baseline, *threshold*100)
	for _, r := range regressions {
		fmt.Fprintln(os.Stderr, "mmv2v-bench2json: REGRESSION:", r)
	}
	if len(regressions) > 0 {
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, date, commit string) (*Report, error) {
	rep, err := parse(in)
	if err != nil {
		return nil, err
	}
	rep.Date = date
	rep.Commit = commit
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return rep, enc.Encode(rep)
}

// allocUnits are the -benchmem metrics the allocation gate covers.
var allocUnits = []string{"allocs/op", "B/op"}

// bytesFloor is the B/op growth the allocation gate ignores at any
// threshold: one smallest size class. A benchmark at 0 allocs/op still
// reads 1–2 B/op on some runs (runtime allocations amortized over b.N), so
// a 0 B/op baseline cannot gate every byte. allocs/op has no floor.
const bytesFloor = 8

// compare gates the fresh run against a baseline report: every baseline
// (pkg, name) whose ns/op the fresh run also measured must not be slower by
// more than the nsThreshold fraction, and — when allocThreshold is
// non-negative — its allocs/op and B/op must not grow by more than the
// allocThreshold fraction. It returns one message per regression and the
// number of benchmarks compared on at least one metric; baseline entries
// the fresh run did not exercise are skipped. Zero ns/op baselines are
// skipped as unmeasured, but zero allocation baselines gate: 0 allocs/op is
// a contract, and any fresh allocation on such a path fails at every
// threshold. B/op fails only when it also grew by more than bytesFloor.
func compare(base, fresh *Report, nsThreshold, allocThreshold float64) (regressions []string, compared int) {
	measured := make(map[string]map[string]float64, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		measured[b.Pkg+" "+b.Name] = b.Metrics
	}
	for _, b := range base.Benchmarks {
		now, ok := measured[b.Pkg+" "+b.Name]
		if !ok {
			continue
		}
		hit := false
		if was, ok := b.Metrics["ns/op"]; ok && was > 0 {
			if ns, ok := now["ns/op"]; ok {
				hit = true
				if ns > was*(1+nsThreshold) {
					regressions = append(regressions, fmt.Sprintf(
						"%s %s: %.0f ns/op -> %.0f ns/op (%+.1f%%, allowed %+.0f%%)",
						b.Pkg, b.Name, was, ns, (ns/was-1)*100, nsThreshold*100))
				}
			}
		}
		if allocThreshold >= 0 {
			for _, unit := range allocUnits {
				was, ok := b.Metrics[unit]
				if !ok {
					continue
				}
				v, ok := now[unit]
				if !ok {
					continue
				}
				hit = true
				limit := was * (1 + allocThreshold)
				if unit == "B/op" {
					limit = max(limit, was+bytesFloor)
				}
				if v > limit {
					regressions = append(regressions, fmt.Sprintf(
						"%s %s: %g %s -> %g %s (allowed %+.0f%%)",
						b.Pkg, b.Name, was, unit, v, unit, allocThreshold*100))
				}
			}
		}
		if hit {
			compared++
		}
	}
	return regressions, compared
}

// envKeys are the `key: value` header lines `go test -bench` prints; pkg is
// handled separately because it changes per package section.
var envKeys = map[string]bool{"goos": true, "goarch": true, "cpu": true}

// parse consumes `go test -bench` output and keeps only what a diff needs.
func parse(in io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if key, val, ok := strings.Cut(line, ": "); ok && !strings.Contains(key, " ") {
			switch {
			case key == "pkg":
				pkg = val
			case envKeys[key]:
				if rep.Env == nil {
					rep.Env = map[string]string{}
				}
				rep.Env[key] = val
			}
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		b, err := parseBenchLine(line)
		if err != nil {
			return nil, err
		}
		b.Pkg = pkg
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, sc.Err()
}

// parseBenchLine splits "BenchmarkName-8  100  123 ns/op  4 B/op ..." into
// its name, GOMAXPROCS suffix, iteration count and value/unit metric pairs.
func parseBenchLine(line string) (Benchmark, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields)%2 != 0 {
		return Benchmark{}, fmt.Errorf("malformed benchmark line %q", line)
	}
	b := Benchmark{Name: strings.TrimPrefix(fields[0], "Benchmark")}
	if i := strings.LastIndexByte(b.Name, '-'); i >= 0 {
		if procs, err := strconv.Atoi(b.Name[i+1:]); err == nil {
			b.Name, b.Procs = b.Name[:i], procs
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, fmt.Errorf("benchmark line %q: bad iteration count: %w", line, err)
	}
	b.Iterations = iters
	b.Metrics = make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, fmt.Errorf("benchmark line %q: bad metric value %q: %w", line, fields[i], err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}
