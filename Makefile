# Development targets for the mmV2V reproduction.

GO ?= go

.PHONY: all build vet lint unitcheck sharecheck alloccheck test test-short perf-digests race bench bench-json bench-gate profile experiments examples faults city replay fuzz-smoke clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Determinism & simulation-hygiene analyzer (DESIGN.md §8). Exits non-zero
# on any contract violation; see cmd/mmv2v-lint -list for the pass catalog.
lint:
	$(GO) run ./cmd/mmv2v-lint ./...

# Physical-units pass alone (fast iteration while refactoring physics code;
# make lint runs the full catalog).
unitcheck:
	$(GO) run ./cmd/mmv2v-lint -passes unitcheck ./...

# Shared-mutable-state pass alone (fast iteration on goroutine-facing code).
sharecheck:
	$(GO) run ./cmd/mmv2v-lint -passes sharecheck ./...

# Hot-path allocation-discipline pass alone (fast iteration while tuning the
# //mmv2v:hotpath call closures; DESIGN.md §8).
alloccheck:
	$(GO) run ./cmd/mmv2v-lint -passes alloccheck ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The end-to-end benchmark's digest check (~30 s). cmd/mmv2v-perf is its own
# module, so `go test ./...` at the root skips its tests, which hash every
# protocol window and the whole 10k-vehicle link table against digests/.
perf-digests:
	cd cmd/mmv2v-perf && $(GO) test ./...

# Race-detector pass over the parallel trial runner and experiment fan-out.
race:
	$(GO) test -race -short ./...

# One benchmark per paper table/figure plus simulator workloads.
bench:
	$(GO) test -bench=. -benchmem ./...

# Snapshot a full benchmark run as structured JSON for archiving/diffing.
bench-json:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/mmv2v-bench2json > BENCH_$$(date +%F).json

# Regression gate: re-run the benchmarks and fail on any ns/op slowdown of
# more than 15% — or any allocs/op or B/op growth of more than 25% — against
# the committed baseline snapshot. Zero-alloc baselines fail on any fresh
# allocation; B/op growth of at most 8 B/op (run-to-run noise at 0
# allocs/op) never fails. CI enforces this gate; its thresholds are tunable via the
# BENCH_GATE_THRESHOLD and BENCH_ALLOC_GATE_THRESHOLD repository variables
# when a runner generation turns out noisy (see README).
bench-gate:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/mmv2v-bench2json \
		-baseline BENCH_2026-10-17.json -threshold 0.15 -alloc-threshold 0.25 > /dev/null

# CPU + heap profiles of a representative pooled run with statistics on,
# which runs the same refresh schedule as a run without them; inspect with
# `go tool pprof cpu.pprof` / `go tool pprof mem.pprof`.
profile:
	$(GO) run ./cmd/mmv2v-sim -density 20 -trials 4 -stats stats.jsonl \
		-cpuprofile cpu.pprof -memprofile mem.pprof

# Regenerate the paper's full evaluation (minutes; see -trials).
experiments:
	$(GO) run ./cmd/mmv2v-experiments -fig all

# Graceful-degradation fault sweep at a small trial count (minutes).
faults:
	$(GO) run ./cmd/mmv2v-experiments -fig faults -trials 1

# City-grid scale mode: 10k-vehicle mobility + link-table drive, then the
# protocol comparison on a small city grid (minutes; see -trials).
city:
	$(GO) run ./cmd/mmv2v-sim -world grid -drive 10
	$(GO) run ./cmd/mmv2v-experiments -fig city -trials 1

# Replay the committed golden run log and diff a live re-execution against
# its recorded per-window digests; fails on the first divergence (the
# byte-identical replay gate, DESIGN.md §11).
replay:
	$(GO) run ./cmd/mmv2v-replay -verify testdata/golden.runlog

# Short fuzzing pass over the geometry, channel and spatial-index kernels,
# the run-log record reader and the run-log recipe header (mirrors CI).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzSegmentBlocked -fuzztime=10s ./internal/geom/
	$(GO) test -run='^$$' -fuzz=FuzzSINR -fuzztime=10s ./internal/channel/
	$(GO) test -run='^$$' -fuzz=FuzzCellCoord -fuzztime=10s ./internal/world/
	$(GO) test -run='^$$' -fuzz=FuzzGainKernel -fuzztime=10s ./internal/world/
	$(GO) test -run='^$$' -fuzz=FuzzRunLogHeader -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzDecodeLog -fuzztime=10s ./internal/persist/

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/platoon
	$(GO) run ./examples/tuning
	$(GO) run ./examples/tracing
	$(GO) run ./examples/densitysweep

clean:
	$(GO) clean ./...
