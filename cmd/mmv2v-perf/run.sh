#!/usr/bin/env bash
# Builds mmv2v-perf from this checkout's source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash cmd/mmv2v-perf/run.sh --workload mmv2v-15vpl --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache, temporary files and the go command's
# config directory all live under .bench_build/ at the repository root, so
# a run reads and writes nothing outside the checkout. The first run
# compiles the standard library into that cache. The module needs nothing
# beyond the standard library and the repository itself, so module
# downloads are switched off.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off GOSUMDB=off
(cd "$here" && go build -o "$out/mmv2v-perf" .)
exec "$out/mmv2v-perf" "$@"
