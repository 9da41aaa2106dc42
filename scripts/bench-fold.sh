#!/usr/bin/env bash
# Folds raw `go test -bench -benchmem` output into a BENCH_router.json
# document: the output on stdin, the JSON on stdout.
#
#   scripts/bench-fold.sh < raw.txt > BENCH.json
#
# Each benchmark becomes one entry, in the order it first appears. Its runs
# fold into the median run, the one at index floor(n/2) of the runs sorted
# by ns/op, which gives the entry's iteration count, allocations and work
# counters; the fastest and slowest runs' ns/op give its spread. The
# entry's gomaxprocs is the -N suffix go test appends to the name (a name
# without one ran at GOMAXPROCS 1), and the document's is the first
# entry's. The document is stamped with the time, the Go version and the
# checkout's commit, marked -dirty when tracked files other than
# BENCH_router.json differ from it.
set -euo pipefail

root=$(dirname "$0")/..
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) || commit=unknown
if [ "$commit" != unknown ] && ! git -C "$root" diff --quiet HEAD -- . ':(exclude)BENCH_router.json'; then
	commit=$commit-dirty
fi

exec jq -Rn \
	--arg generated_at "$(date -u +%Y-%m-%dT%H:%M:%SZ)" \
	--arg git_commit "$commit" \
	--arg go_version "$(go env GOVERSION)" '
# The work counters the benchmarks report with b.ReportMetric: the unit go
# test prints, and the entry key it folds into, in entry order.
{"evals/op": "evals_per_op", "expanded/op": "expanded_nodes_per_op",
 "iterations/op": "iterations_per_op", "ripped/op": "edges_ripped_per_op",
 "retained/op": "edges_retained_per_op"} as $counters
| ["ns/op", "B/op", "allocs/op"] as $standard

# A result line is the name, the iteration count and value-unit pairs.
# With -v, go test first prints each name alone on a line.
| [inputs
   | select(test("^Benchmark\\S*\\s+[0-9]+\\s"))
   | [splits("\\s+") | select(. != "")] as $f
   | ($f[0] | capture("^(?<name>.+?)(-(?<procs>[0-9]+))?$")) as $n
   | {name: $n.name, gomaxprocs: ($n.procs // "1" | tonumber), iterations: ($f[1] | tonumber),
      units: (reduce range(2; $f | length; 2) as $i ({}; .[$f[$i + 1]] = ($f[$i] | tonumber)))}
   | (.units | keys - $standard - ($counters | keys)) as $unknown
   | if $unknown != [] then error("bench-fold: \(.name): unknown units \($unknown)") else . end]
| if . == [] then error("bench-fold: no benchmark results on stdin") else . end

| {generated_at: $generated_at, git_commit: $git_commit, go_version: $go_version,
   gomaxprocs: .[0].gomaxprocs,
   results: [reduce .[] as $r ({}; .[$r.name] += [$r]) | .[]
     | sort_by(.units["ns/op"]) as $s | $s[length / 2 | floor] as $m
     | {name: $m.name, runs: length, iterations: $m.iterations, ns_per_op: $m.units["ns/op"],
        ns_per_op_min: $s[0].units["ns/op"], ns_per_op_max: $s[-1].units["ns/op"],
        allocs_per_op: $m.units["allocs/op"], bytes_per_op: $m.units["B/op"], gomaxprocs: $m.gomaxprocs}
       + ($counters | with_entries(select(.key | in($m.units)) | {key: .value, value: $m.units[.key]}))]}'
