#!/usr/bin/env bash
# Builds sndbench and sndserve from this checkout and runs the benchmark
# from the checkout root (relative paths in the arguments resolve there).
# Arguments go to sndbench (see bench/README.md):
#
#   bash bench/run.sh --workload dense-paper --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# checkout root: Go's build cache, the binaries, and service-jobs' state.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/bench"
go build -o "$out/bin/" ./cmd/sndbench snd/cmd/sndserve
cd "$root"
exec "$out/bin/sndbench" "$@"
