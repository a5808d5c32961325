#!/bin/sh
# Reachability gate (make reach). Builds every front end — each cmd/
# binary, the four examples, the benchmark, and the simtest (the soak
# and the failure repro), experiments and report test binaries —
# with coverage counters over the whole module, drives each one over the
# inputs below, and prints the internal/ functions that no run executed
# (0.0% in `go tool covdata func`) as `file: function`, one per line.
#
# It then compares that list with scripts/reach.allow, whose lines read
# `file: function — reason`, and exits non-zero on any difference. A
# function no run reaches is deleted, reached by a run added here, or
# named in the allowlist; an allowlisted function that a run now reaches
# loses its line. report.TestReachAllowResolves checks in tier-1 that
# every allowlist line names a function declared in its file.
#
# ≈2 min on 2 vCPUs; the bigscale run peaks at ≈63 MB. Binaries,
# counters and outputs go to a directory made by mktemp under $TMPDIR,
# removed on exit.
set -eu

GO=${GO:-go}
allow=$(dirname "$0")/reach.allow
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
$GO test -c -cover -coverpkg=./... -o "$bin/simtest.test" ./internal/simtest
$GO test -c -cover -coverpkg=./... -o "$bin/experiments.test" ./internal/experiments
$GO test -c -cover -coverpkg=./... -o "$bin/report.test" ./internal/report

run() {
	echo "reach: $*" >&2
	"$@" >"$out/last.log" 2>&1 || { cat "$out/last.log" >&2; exit 1; }
}

run "$bin/experiments" -scale small -out "$out/artifacts"
run "$bin/experiments" -scale small -only bigscale -out "$out/bigscale"
# A resumable manifest, written and then read back: the second run
# finds the file and prints the recorded table.
run "$bin/experiments" -only fig4 -checkpoint "$out/fig4.ckpt" -out "$out/ckpt"
run "$bin/experiments" -only fig4 -checkpoint "$out/fig4.ckpt" -out "$out/resumed"
run cmp "$out/ckpt/fig4.txt" "$out/resumed/fig4.txt"
# The soak: TestSimHarness over the 810-cell grid.
run "$bin/simtest.test" -test.run 'TestSimHarness$' -seed=1 -cells=100 -test.gocoverdir="$GOCOVERDIR"
# The failure workflow, on the deliberate fault cell: the repro command
# simtest.Repro prints (TestSimHarness on one cell, which shrinks the
# failing workload), then the same repro with -cell-trace, whose trace
# of the failed run must validate.
fault() {
	echo "reach: simtest.test TestSimHarness -cell Linux/!tid/0 $*" >&2
	if "$bin/simtest.test" -test.run 'TestSimHarness$' -seed=1 -cell='Linux/!tid/0' "$@" \
		-test.gocoverdir="$GOCOVERDIR" >"$out/last.log" 2>&1; then
		echo "reach: the fault cell Linux/!tid/0 passed" >&2
		exit 1
	fi
	grep -q 'RcvArray exhausted' "$out/last.log" || { cat "$out/last.log" >&2; exit 1; }
}
fault
fault -cell-trace="$out/fault.json"
run "$bin/tracecheck" "$out/fault.json"
run "$bin/quickstart"
run "$bin/structextract"
run "$bin/splitdriver"
run "$bin/halo3d" -nodes 2 -rpn 4 -steps 3
# Three ranks: a reduction over a non-power-of-two communicator.
run "$bin/halo3d" -nodes 3 -rpn 1 -steps 1
# Every id with a traced cell (the report.Artifacts entries with a
# Trace), each exported and validated.
for id in fig4 fig6a verbs reliability failover tenancy; do
	run "$bin/experiments" -only "$id" -trace "$out/$id.json"
	run "$bin/tracecheck" "$out/$id.json"
done
# The shard gate's bisect report, on the one pair known to diverge (a
# Shards=1 and a Shards=2 snapshot compared across layouts).
run "$bin/experiments.test" -test.run 'TestBigscaleNamesFirstDivergence$' -test.gocoverdir="$GOCOVERDIR"
# LAMMPS-RMA, the one application that drives MPI RMA windows over the
# verbs path, traced (its TestDeterminismGates row).
run "$bin/report.test" -test.run 'TestDeterminismGates$/^lammps-rma-2x4$' -test.gocoverdir="$GOCOVERDIR"
run "$bin/dwarf-extract-struct" -hfi -list
run "$bin/benchmark" -seconds 1
# The traced pass also runs the per-layer rungs.
run "$bin/benchmark" -layers -seconds 1 -tracefile "$out/layers.json"

echo "reach: internal/ functions no run executed:" >&2
$GO tool covdata func -i="$GOCOVERDIR" |
	awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" {
		sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, ":", $1); print $1, $2 }' |
	sort -u >"$out/unreached"
cat "$out/unreached"
sed 's/ — .*//' "$allow" | sort >"$out/allowed"
if ! diff -u "$out/allowed" "$out/unreached" >"$out/diff"; then
	echo "reach: the unreached list differs from $allow (- allowed, + unreached):" >&2
	sed '1,2d' "$out/diff" >&2
	exit 1
fi
echo "reach: every unreached function is in $allow" >&2
