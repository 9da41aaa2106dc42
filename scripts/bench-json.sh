#!/usr/bin/env bash
# Regenerates the router benchmarks BENCH_router.json tracks:
#
#   scripts/bench-json.sh [-quick] OUT
#
# The root package's bench_test.go defines every entry. This compiles its
# test binary once and runs the tracked benchmarks five times, round-robin
# (every entry once, then every entry again, ...), so that machine drift
# over the run spreads across all entries instead of landing on whichever
# ran during it; scripts/bench-fold.sh folds the runs into OUT. -quick
# times only the micro entries, once each (CI's smoke run).
#
# Commit the code first, then regenerate BENCH_router.json and commit it on
# its own: its git_commit then names the commit whose code was timed.
set -euo pipefail

# The tracked entries, in file order: the micro entries, then the
# whole-circuit routes. CI checks that each pattern lists exactly the
# committed file's entries.
full='^Benchmark(IKMB_|CandidateScan|SSSP_|RouteBusc|MinWidth|RouteZ03)'
quick='^Benchmark(IKMB_|CandidateScan|SSSP_)'

pattern=$full runs=5
if [ "${1-}" = -quick ]; then
	pattern=$quick runs=1
	shift
fi
if [ $# -ne 1 ]; then
	echo "usage: scripts/bench-json.sh [-quick] OUT" >&2
	exit 2
fi
case $1 in
/*) out=$1 ;;
*) out=$PWD/$1 ;;
esac

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go test -c -o "$tmp/bench.test" .
for ((r = 1; r <= runs; r++)); do
	echo "bench-json: run $r/$runs" >&2
	"$tmp/bench.test" -test.run '^$' -test.bench "$pattern" -test.benchmem -test.timeout 10m
done | tee "$tmp/raw.txt" >&2
scripts/bench-fold.sh <"$tmp/raw.txt" >"$tmp/out.json"
cp "$tmp/out.json" "$out"
echo "benchmark results written to $1" >&2
