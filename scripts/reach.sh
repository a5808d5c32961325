#!/bin/sh
# Reachability census (make reach). Builds every front end — each cmd/
# binary, the four examples and the benchmark — with coverage counters
# over the whole module, drives each one over its default inputs in a
# temporary directory, and prints the internal/ functions that no run
# executed (0.0% in `go tool covdata func`), one per line.
#
# Not a gate: error paths, String methods, test oracles and test seams
# also show up, and stay. A capability whose every function is listed
# is a removal candidate. Takes a few minutes; the bigscale run peaks
# at ≈650 MB.
set -eu

GO=${GO:-go}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
out=$tmp/out
GOCOVERDIR=$tmp/cov
export GOCOVERDIR
mkdir -p "$bin" "$out" "$GOCOVERDIR"

# -coverpkg=./... rather than a comma-separated list of import paths:
# with go1.24 the list form writes no counter files.
$GO build -cover -coverpkg=./... -o "$bin/" ./cmd/... ./examples/... ./benchmark

run() {
	echo "reach: $*" >&2
	"$@" >"$out/last.log" 2>&1 || { cat "$out/last.log" >&2; exit 1; }
}

run "$bin/experiments" -scale small -out "$out/artifacts"
run "$bin/experiments" -scale small -only bigscale -out "$out/bigscale"
# The soak has known failing cells (ROADMAP item 1), so its exit status
# is not the point here; its coverage is.
echo "reach: $bin/simtest -seed 1 -cells 100" >&2
"$bin/simtest" -seed 1 -cells 100 >/dev/null 2>&1 || true
run "$bin/quickstart"
run "$bin/structextract"
run "$bin/splitdriver"
run "$bin/halo3d" -nodes 2 -rpn 4 -steps 3
# Every id with a traced cell (the report.Artifacts entries with a
# Trace), each exported and validated.
for id in fig4 fig6a verbs reliability failover tenancy; do
	run "$bin/experiments" -only "$id" -trace "$out/$id.json"
	run "$bin/tracecheck" "$out/$id.json"
done
for shards in 1 2; do
	run "$bin/snapcheck" -mode checkpoint -shards "$shards" -snap "$out/snap$shards"
	run "$bin/snapcheck" -mode resume -shards "$shards" -snap "$out/snap$shards"
done
run "$bin/dwarf-extract-struct" -hfi -list
run "$bin/benchmark" -seconds 1

echo "reach: internal/ functions no run executed:" >&2
$GO tool covdata func -i="$GOCOVERDIR" |
	awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" { print $1, $2 }' | sort
