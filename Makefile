# picodriver-sim build targets.

GO ?= go

.PHONY: all build test vet check bench bench-gate simtest trace-smoke verbs-trace-smoke reliability-smoke failover-smoke tenancy-smoke snapshot-smoke shard-smoke artifacts artifacts-paper examples clean

all: build test

build:
	$(GO) build ./...

# Static gate: go vet, plus formatting — any file gofmt would rewrite
# fails the target (and so `check` and CI).
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# Full static + race gate: the parallel experiment runner makes ./...
# the first real concurrent exercise of cross-engine isolation. -short
# keeps the simtest battery at its default 36 cells.
check: vet
	$(GO) test -race -short ./...

# Property-based simulation testing. Default: the short battery (one
# randomized cell grid across all three OS configs). SOAK=1 runs the
# long parallel soak via cmd/simtest; SEED overrides the base seed.
SEED ?= 1
simtest:
ifeq ($(SOAK),1)
	$(GO) run ./cmd/simtest -seed $(SEED) -cells 100
else
	$(GO) test ./internal/simtest -count=1 -seed=$(SEED) -v -run 'TestSim'
endif

# Trace export smoke test: two same-seed traced runs must be
# byte-identical Chrome trace JSON, and the output must pass the
# tracecheck validator (parses, non-empty, Perfetto-required fields).
trace-smoke:
	$(GO) run ./cmd/profile -what none -nodes 2 -rpn 4 -trace /tmp/picodriver-trace-a.json >/dev/null
	$(GO) run ./cmd/profile -what none -nodes 2 -rpn 4 -trace /tmp/picodriver-trace-b.json >/dev/null
	cmp /tmp/picodriver-trace-a.json /tmp/picodriver-trace-b.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-trace-a.json
	rm -f /tmp/picodriver-trace-a.json /tmp/picodriver-trace-b.json

# Same gate over the one-sided RDMA path: a traced LAMMPS-RMA run
# exercises the verbs doorbell/dma/cqe spans, and two same-seed runs
# must serialize to byte-identical Chrome traces.
verbs-trace-smoke:
	$(GO) run ./cmd/profile -what none -nodes 2 -rpn 4 -trace-app LAMMPS-RMA -trace /tmp/picodriver-verbs-a.json >/dev/null
	$(GO) run ./cmd/profile -what none -nodes 2 -rpn 4 -trace-app LAMMPS-RMA -trace /tmp/picodriver-verbs-b.json >/dev/null
	cmp /tmp/picodriver-verbs-a.json /tmp/picodriver-verbs-b.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-verbs-a.json
	rm -f /tmp/picodriver-verbs-a.json /tmp/picodriver-verbs-b.json

# Lossy-fabric reliability gate: two same-seed traced ping-pong runs at
# 5% packet loss must produce byte-identical bandwidth tables (payloads
# are verified against a reference pattern inside the experiment) and
# byte-identical Chrome traces containing the recovery spans. 5% (not
# lower) so the traced 64KB cell's fixed RNG stream observes drops —
# the retransmit-span grep below is meaningless on a drop-free trace.
reliability-smoke:
	$(GO) run ./cmd/pingpong -sizes 32K -reps 6 -loss 0.05 -trace /tmp/picodriver-rel-a.json | sed 's/-> .*//' > /tmp/picodriver-rel-a.txt
	$(GO) run ./cmd/pingpong -sizes 32K -reps 6 -loss 0.05 -trace /tmp/picodriver-rel-b.json | sed 's/-> .*//' > /tmp/picodriver-rel-b.txt
	cmp /tmp/picodriver-rel-a.txt /tmp/picodriver-rel-b.txt
	cmp /tmp/picodriver-rel-a.json /tmp/picodriver-rel-b.json
	grep -q retransmit /tmp/picodriver-rel-a.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-rel-a.json
	rm -f /tmp/picodriver-rel-a.json /tmp/picodriver-rel-b.json /tmp/picodriver-rel-a.txt /tmp/picodriver-rel-b.txt

# Live-failover gate: two same-seed traced dual-rail failover cells
# must print byte-identical measurement tables and serialize
# byte-identical Chrome traces containing the health machine's
# failover and fallback spans; and a no-fault run must still emit the
# checked-in Figure 4 artifact byte-for-byte (the health machine is
# invisible on a loss-free fabric).
failover-smoke:
	$(GO) run ./cmd/pingpong -failover -trace /tmp/picodriver-fo-a.json | sed 's/-> .*//' > /tmp/picodriver-fo-a.txt
	$(GO) run ./cmd/pingpong -failover -trace /tmp/picodriver-fo-b.json | sed 's/-> .*//' > /tmp/picodriver-fo-b.txt
	cmp /tmp/picodriver-fo-a.txt /tmp/picodriver-fo-b.txt
	cmp /tmp/picodriver-fo-a.json /tmp/picodriver-fo-b.json
	grep -q '"failover"' /tmp/picodriver-fo-a.json
	grep -q '"fallback"' /tmp/picodriver-fo-a.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-fo-a.json
	rm -rf /tmp/picodriver-fo-nofault
	$(GO) run ./cmd/experiments -only fig4 -out /tmp/picodriver-fo-nofault >/dev/null
	cmp artifacts/fig4.txt /tmp/picodriver-fo-nofault/fig4.txt
	rm -rf /tmp/picodriver-fo-a.json /tmp/picodriver-fo-b.json \
		/tmp/picodriver-fo-a.txt /tmp/picodriver-fo-b.txt /tmp/picodriver-fo-nofault

# Multi-tenancy gate: two same-seed tenancy sweeps must emit
# byte-identical interference tables (text and CSV), and the traced
# packed noisy-neighbor cell (pingpong -neighbor) must be deterministic
# and pass the tracecheck validator. The sweep's own hard checks assert
# nonzero packed p99 inflation, spread recovering below packed, and
# congestion-control activity (marks/stalls) on the packed cell.
tenancy-smoke:
	rm -rf /tmp/picodriver-ten-a /tmp/picodriver-ten-b
	$(GO) run ./cmd/experiments -only tenancy -out /tmp/picodriver-ten-a >/dev/null
	$(GO) run ./cmd/experiments -only tenancy -out /tmp/picodriver-ten-b >/dev/null
	cmp /tmp/picodriver-ten-a/tenancy.txt /tmp/picodriver-ten-b/tenancy.txt
	cmp /tmp/picodriver-ten-a/tenancy.csv /tmp/picodriver-ten-b/tenancy.csv
	$(GO) run ./cmd/pingpong -neighbor -trace /tmp/picodriver-ten-a.json | sed 's/-> .*//' > /tmp/picodriver-ten-a.txt
	$(GO) run ./cmd/pingpong -neighbor -trace /tmp/picodriver-ten-b.json | sed 's/-> .*//' > /tmp/picodriver-ten-b.txt
	cmp /tmp/picodriver-ten-a.txt /tmp/picodriver-ten-b.txt
	cmp /tmp/picodriver-ten-a.json /tmp/picodriver-ten-b.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-ten-a.json
	rm -rf /tmp/picodriver-ten-a /tmp/picodriver-ten-b \
		/tmp/picodriver-ten-a.json /tmp/picodriver-ten-b.json \
		/tmp/picodriver-ten-a.txt /tmp/picodriver-ten-b.txt

# Checkpoint/restore gate: a traced Figure 4 cell checkpointed at half
# its virtual time and resumed from the snapshot must print the same
# statistics and serialize a byte-identical Chrome trace as the
# straight run; and the experiment-level -checkpoint/-resume manifest
# must re-emit byte-identical artifacts without re-running.
snapshot-smoke:
	$(GO) run ./cmd/snapcheck -mode straight -trace /tmp/picodriver-snap-a.json > /tmp/picodriver-snap-a.txt
	$(GO) run ./cmd/snapcheck -mode checkpoint -snap /tmp/picodriver-mid.snap
	$(GO) run ./cmd/snapcheck -mode resume -snap /tmp/picodriver-mid.snap -trace /tmp/picodriver-snap-b.json > /tmp/picodriver-snap-b.txt
	cmp /tmp/picodriver-snap-a.txt /tmp/picodriver-snap-b.txt
	cmp /tmp/picodriver-snap-a.json /tmp/picodriver-snap-b.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-snap-a.json
	rm -rf /tmp/picodriver-ckpt-a /tmp/picodriver-ckpt-b /tmp/picodriver.ckpt
	$(GO) run ./cmd/experiments -only fig4 -out /tmp/picodriver-ckpt-a -checkpoint /tmp/picodriver.ckpt >/dev/null
	$(GO) run ./cmd/experiments -only fig4 -out /tmp/picodriver-ckpt-b -checkpoint /tmp/picodriver.ckpt -resume >/dev/null
	cmp /tmp/picodriver-ckpt-a/fig4.txt /tmp/picodriver-ckpt-b/fig4.txt
	cmp /tmp/picodriver-ckpt-a/fig4.csv /tmp/picodriver-ckpt-b/fig4.csv
	rm -rf /tmp/picodriver-snap-a.txt /tmp/picodriver-snap-b.txt /tmp/picodriver-snap-a.json \
		/tmp/picodriver-snap-b.json /tmp/picodriver-mid.snap \
		/tmp/picodriver-ckpt-a /tmp/picodriver-ckpt-b /tmp/picodriver.ckpt

# Sharded-engine gate. Three legs: the bigscale sweep runs one seeded
# UMT2013 workload at Shards=1/2/4 and fails internally on any digest
# divergence; a user-visible check that a sharded ping-pong run prints
# the same table as the single-engine run; and two same-seed sharded
# traced runs must serialize byte-identical Chrome traces that pass
# the tracecheck validator (the shard round-robin makes span emission
# order a pure function of workload and shard count).
shard-smoke:
	rm -rf /tmp/picodriver-shard
	$(GO) run ./cmd/experiments -only bigscale -out /tmp/picodriver-shard >/dev/null
	$(GO) run ./cmd/pingpong -sizes 64K -reps 4 | sed 's/-> .*//' > /tmp/picodriver-shard-1.txt
	$(GO) run ./cmd/pingpong -sizes 64K -reps 4 -shards 2 | sed 's/-> .*//' > /tmp/picodriver-shard-2.txt
	cmp /tmp/picodriver-shard-1.txt /tmp/picodriver-shard-2.txt
	$(GO) run ./cmd/profile -what none -nodes 4 -rpn 2 -shards 4 -trace /tmp/picodriver-shard-a.json >/dev/null
	$(GO) run ./cmd/profile -what none -nodes 4 -rpn 2 -shards 4 -trace /tmp/picodriver-shard-b.json >/dev/null
	cmp /tmp/picodriver-shard-a.json /tmp/picodriver-shard-b.json
	$(GO) run ./cmd/tracecheck /tmp/picodriver-shard-a.json
	rm -rf /tmp/picodriver-shard /tmp/picodriver-shard-1.txt /tmp/picodriver-shard-2.txt \
		/tmp/picodriver-shard-a.json /tmp/picodriver-shard-b.json

# One testing.B benchmark per paper table/figure, plus ablations.
# Writes BENCH_pr6.json; BENCH_seed.json is the frozen pre-pooling
# baseline and must not be regenerated. -benchtime 3x keeps allocs/op
# stable for the sub-second benches (allocs are averaged per op).
bench:
	$(GO) test -bench . -benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_pr6.json

# Allocation regression gate: same run as `bench`, but fails when any
# benchmark's allocs/op exceeds its checked-in ceiling in
# bench_budget.json.
bench-gate:
	$(GO) test -bench . -benchtime 3x -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_pr6.json -budget bench_budget.json

# Regenerate every table/figure (text + CSV) at the default scale.
artifacts:
	$(GO) run ./cmd/experiments -scale small -out artifacts

# The paper's full sweeps (slow).
artifacts-paper:
	$(GO) run ./cmd/experiments -scale paper -out artifacts-paper

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/structextract
	$(GO) run ./examples/splitdriver
	$(GO) run ./examples/halo3d -nodes 2 -rpn 4 -steps 3

clean:
	rm -rf artifacts artifacts-paper
