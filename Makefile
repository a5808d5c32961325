# picodriver-sim build targets.

GO ?= go

.PHONY: all build test vet check simtest soak-digests artifacts artifacts-paper examples reach clean

all: build test

build:
	$(GO) build ./...

# Static gate: go vet, plus formatting — any file gofmt would rewrite
# fails the target (and so `check` and CI).
vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Tier-1. Besides the unit tests this rebuilds all 14 default artifacts
# and byte-compares them with artifacts/ (~25 s), and runs every
# determinism gate: go test ./internal/report -run 'Gates|Artifacts'.
test:
	$(GO) test ./...

# Full static + race gate: the parallel experiment runner makes ./...
# the first real concurrent exercise of cross-engine isolation. One
# simulation is single-threaded by construction: one driver goroutine
# per engine, and processes are coroutines resumed only by it. -short
# narrows the artifact comparison to its six sub-second ids and skips
# the bigscale gate row; the 72-cell simtest battery runs in full.
# -shuffle=on: determinism is the currency here, so a test that only
# passes after its neighbour has run must fail the gate.
check: vet
	$(GO) test -race -short -shuffle=on ./...

# Property-based simulation testing. Default: the short battery (one
# randomized cell grid across all three OS configs). SOAK=1 runs the
# soak: TestSimHarness over the 810-cell grid (-cells=100), in parallel
# (go test -parallel N); -count=1 keeps a cached pass from standing in
# for a run. SEED overrides the base seed.
SEED ?= 1
simtest:
ifeq ($(SOAK),1)
	$(GO) test ./internal/simtest -count=1 -run 'TestSimHarness$$' -seed=$(SEED) -cells=100
else
	$(GO) test ./internal/simtest -count=1 -seed=$(SEED) -v -run 'TestSim'
endif

# The soak's cell digests, one sorted "cell <id>: <n> msgs, digest <d>,
# <t> virtual time" line per cell, for SEED (default 1). A change meant
# to move no simulated result leaves them equal: run it on both trees
# and diff the two outputs. A failing soak prints its log and fails.
soak-digests:
	@out="$$($(GO) test ./internal/simtest -count=1 -run 'TestSimHarness$$' -seed=$(SEED) -cells=100 -v 2>&1)" || \
		{ echo "$$out"; exit 1; }; \
	echo "$$out" | sed -n 's/^ *simtest_test\.go:[0-9]*: \(cell .* digest .*\)$$/\1/p' | sort

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

# Reachability gate (CI, ≈2 min): every front end built with coverage
# and run, then the internal/ functions no run executed, compared with
# scripts/reach.allow; any difference fails. See scripts/reach.sh.
reach:
	GO=$(GO) sh scripts/reach.sh

clean:
	rm -rf artifacts artifacts-paper
