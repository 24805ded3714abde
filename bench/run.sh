#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes stays under .bench_build/ at the root of the
# checkout (binary, Go build cache), so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/ramsisbench" ./cmd/ramsisbench)
exec "$out/ramsisbench" "$@"
