#!/bin/sh
# Refreshes the "current" section of BENCH_analysis.json from a live run
# of the analysis benchmarks. The "baseline" section (the pre-trie
# per-pair pipeline, measured on the same machine) is preserved verbatim
# so future PRs can compare against a fixed reference.
#
# Numbers are machine-relative: regenerate baseline and current on the
# SAME box, or compare only the interleaved PairBounds /
# PairBoundsReference pair, which shares whatever noise the machine has.
#
# Each sample runs for at least 100ms (-benchtime 100ms) rather than a
# fixed iteration count: at 10 iterations the µs-scale benchmarks
# (ChainIndex, EnumerateChains, ChainIndexFleet, the last the
# denominator of the WCRTFleet and ReadGraphFleet ratio pairs) were
# dominated by noise, while the slowest (PairBoundsDenseReference, ~150
# ms/op) still run once per sample.
#
# Usage: sh tools/bench_analysis_json.sh [count]   (default 5, best-of)
# BENCH_OUT_DIR redirects the output file (the CI bench gate writes a
# fresh copy to .bench/ and diffs it against the checked-in baseline).
set -e

cd "$(dirname "$0")/.."
COUNT="${1:-5}"
OUT="${BENCH_OUT_DIR:-.}/BENCH_analysis.json"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

go test -run '^$' \
	-bench 'BenchmarkPairBounds$|BenchmarkPairBoundsReference$|BenchmarkChainIndex$|BenchmarkAnalyzePDiff$|BenchmarkAnalyzeSDiff$|BenchmarkEnumerateChains$|BenchmarkBoundsSweep$|BenchmarkChainIndexFleet$|BenchmarkWCRTFleet$|BenchmarkReadGraphFleet$|BenchmarkPairBoundsFleet$|BenchmarkPairBoundsFleetReference$|BenchmarkPairBoundsDense$|BenchmarkPairBoundsDenseReference$|BenchmarkGreedyDense$' \
	-benchtime 100ms -count "$COUNT" -benchmem . | tee "$TMP"

# Best-of-count per benchmark: min ns/op and the allocs/op (identical
# across runs of the same binary, so min is fine).
current="$(awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)
		ns = $3 + 0
		allocs = ""
		for (i = 4; i <= NF; i++) if ($i == "allocs/op") allocs = $(i-1) + 0
		if (!(name in best) || ns < best[name]) { best[name] = ns; al[name] = allocs }
	}
	END {
		printf "{"
		sep = ""
		for (name in best) {
			printf "%s\"%s\":{\"ns_op\":%d,\"allocs_op\":%s}", sep, name, best[name], al[name] == "" ? "null" : al[name]
			sep = ","
		}
		printf "}"
	}' "$TMP")"

if [ -f "$OUT" ]; then
	jq --argjson cur "$current" \
		--arg go "$(go version | awk '{print $3 " " $4}')" \
		'.current = $cur | .machine.go = $go' "$OUT" >"$OUT.new"
	mv "$OUT.new" "$OUT"
else
	jq -n --argjson cur "$current" \
		--arg go "$(go version | awk '{print $3 " " $4}')" \
		'{machine: {go: $go}, baseline: null, current: $cur}' >"$OUT"
fi

echo "wrote $OUT"
