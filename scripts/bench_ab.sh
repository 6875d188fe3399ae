#!/usr/bin/env bash
# A/B benchmark gate. Builds the root package's benchmark binary twice,
# once from a base revision and once from the working tree, runs the gated
# benchmark families with the two binaries alternating sample by sample on
# the same host, and gates the working tree's results against the base's
# with `benchsnap -compare`. Both sides see the same CPU, load and Go
# toolchain, so the gate holds on any host; a committed absolute baseline
# does not.
#
#   scripts/bench_ab.sh [BASE_REV]    # BASE_REV defaults to HEAD
#
# In CI, BASE_REV is the merge base of the pull request. Locally, running
# it with no argument on a dirty tree compares the edits against HEAD.
#
# Files written to $BENCH_AB_OUT (default: the current directory):
#   bench.txt        the working tree's results
#   bench-base.txt   the base's results
#   bench-base.json  the base snapshot the gate compares against
#
# The exit status is benchsnap's: 1 when a gated benchmark's ns/op or
# allocs/op exceeds the base's by more than the tolerance.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
base_rev="$(git -C "$root" rev-parse "${1:-HEAD}^{commit}")"
out="$(mkdir -p "${BENCH_AB_OUT:-.}" && cd "${BENCH_AB_OUT:-.}" && pwd)"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "== building the benchmark binaries: base ${base_rev:0:12} and the working tree"
git -C "$root" archive --format=tar --prefix=base/ "$base_rev" | tar -x -C "$work"
(cd "$work/base" && go test -c -o "$work/base.test" .)
(cd "$root" && go test -c -o "$work/pr.test" .)

: > "$out/bench-base.txt"
: > "$out/bench.txt"

# family SAMPLES BENCH BENCHTIME: takes SAMPLES samples of the benchmarks
# matching BENCH from each binary, one per round, alternating which binary
# runs first so that a drift in the host's speed falls on both alike. Each
# binary runs in its own source tree, as `go test` would run it.
family() {
	local samples=$1 bench=$2 benchtime=$3 i
	local args=(-test.run '^$' -test.bench "$bench" -test.benchtime "$benchtime" -test.count 1 -test.benchmem -test.timeout 30m)
	for ((i = 0; i < samples; i++)); do
		if ((i % 2 == 0)); then
			(cd "$work/base" && "$work/base.test" "${args[@]}") | tee -a "$out/bench-base.txt"
			(cd "$root" && "$work/pr.test" "${args[@]}") | tee -a "$out/bench.txt"
		else
			(cd "$root" && "$work/pr.test" "${args[@]}") | tee -a "$out/bench.txt"
			(cd "$work/base" && "$work/base.test" "${args[@]}") | tee -a "$out/bench-base.txt"
		fi
	done
}

# The micro family (Broadcast, TruthGraph) takes 5 samples of 100 fixed
# iterations each; benchsnap aggregates to the fastest sample. The runner
# family keeps one iteration per sample (each is a full multi-second
# sweep). The million-node TruthGraph bench runs once, as a
# did-it-stay-in-seconds smoke. E1Scale runs one full n=10⁵ experiment
# trial per sample; ProtocolTrial runs one message-level protocol trial
# per sample at n=2000, at n=10⁴ and on the dense Figure 3 field.
family 5 'Broadcast$|TruthGraph$' 100x
family 5 'Runner' 1x
family 1 'TruthGraphMillion' 1x
family 3 'E1Scale' 1x
family 3 'ProtocolTrial' 1x

cd "$root"
go run ./cmd/benchsnap -sha "$base_rev" -o "$out/bench-base.json" "$out/bench-base.txt"
go run ./cmd/benchsnap -compare "$out/bench-base.json" \
	-gate 'Broadcast|TruthGraph|E1Scale|ProtocolTrial' -tolerance 0.30 "$out/bench.txt"
