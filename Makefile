GO ?= go

# BENCH_ID names the combined trajectory file bench-json writes
# (BENCH_$(BENCH_ID).json); bump it per PR so trajectories accumulate.
# BENCH_BASE is the previous snapshot bench-diff gates against.
BENCH_ID ?= pr10
BENCH_BASE ?= pr9

.PHONY: verify verify-race build vet test race bench bench-json bench-diff bench-diff-ci e2e-pairs example-recovery docs-check scenario-smoke

# bench is part of verify as a smoke run (-benchtime 1x): benchmark code
# must keep compiling and running between trajectory snapshots.
verify: build vet test bench docs-check scenario-smoke

# verify-race runs the full suite under the race detector — the gate for
# changes touching MDS sharding, repair/drain, or client retry
# concurrency. CI (.github/workflows/ci.yml) runs both verify targets on
# every push and pull request.
verify-race: build vet race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx ./...

# bench-json regenerates the benchmark trajectory snapshot checked in at
# the repo root: the repair and fig8b experiments, the wire-codec /
# transport microbenchmarks, the storage engine, and the MDS scale table
# (with its durable op-log rows), all in one combined JSON file.
bench-json:
	$(GO) run ./cmd/tsuebench -exp repair,fig8b,codec,storage,mds-scale -combined BENCH_$(BENCH_ID).json

# bench-diff gates the committed trajectory: the current snapshot
# (BENCH_$(BENCH_ID).json, from make bench-json) must not regress beyond
# tight same-machine tolerance against the previous one. See
# cmd/benchdiff and docs/OPERATIONS.md for how to read the output.
bench-diff:
	$(GO) run ./cmd/benchdiff -base BENCH_$(BENCH_BASE).json -new BENCH_$(BENCH_ID).json

# bench-diff-ci is the CI flavor: regenerate the trajectory on whatever
# hardware the runner provides, then diff against the committed snapshot
# with wide smoke tolerances (time/rate bands absorb hardware deltas;
# B/op and allocs/op stay gated because they are machine-independent).
bench-diff-ci:
	$(GO) run ./cmd/tsuebench -exp repair,fig8b,codec,storage,mds-scale -combined BENCH_ci.json
	$(GO) run ./cmd/benchdiff -mode smoke -base BENCH_$(BENCH_ID).json -new BENCH_ci.json
	rm -f BENCH_ci.json

# e2e-pairs is the pairing rule for a wall-clock claim in one command:
# build ./benchmark at BASE (in a throwaway git worktree) and at the
# working tree, run ten alternating base/head pairs of every workload
# (odd pairs base first, even pairs head first), each run appended to a
# -out file (line i of base.jsonl and head.jsonl is pair i), then print
# `benchmark -compare`: medians, quartile spreads, bounds, verdicts. Ten
# pairs of the four workloads take about half an hour; see
# docs/OPERATIONS.md.
#   make e2e-pairs BASE=HEAD~1 [E2E_SEED=1] [E2E_WORKLOADS="ali-tsue-mem ali-fo-mem"]
E2E_SEED ?= 1
E2E_WORKLOADS ?= ali-tsue-mem ali-fo-mem ten-tsue-durable seq-write-read
E2E_DIR := $(CURDIR)/.bench_build/e2e-pairs

e2e-pairs:
	@test -n "$(BASE)" || { echo "usage: make e2e-pairs BASE=<git ref>"; exit 2; }
	-git worktree remove --force $(E2E_DIR)/base 2>/dev/null
	rm -rf $(E2E_DIR) && mkdir -p $(E2E_DIR)
	git worktree add --detach $(E2E_DIR)/base $(BASE)
	cd $(E2E_DIR)/base && $(GO) build -o $(E2E_DIR)/base.bin ./benchmark
	$(GO) build -o $(E2E_DIR)/head.bin ./benchmark
	@set -e; for w in $(E2E_WORKLOADS); do for i in $$(seq 1 10); do \
		if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
		for side in $$order; do \
			echo "$$w pair $$i/10: $$side"; \
			if [ $$side = base ]; then dir=$(E2E_DIR)/base; else dir=$(CURDIR); fi; \
			(cd $$dir && $(E2E_DIR)/$$side.bin -workload $$w -seed $(E2E_SEED) -out $(E2E_DIR)/$$side.jsonl >/dev/null); \
		done; \
	done; done
	git worktree remove --force $(E2E_DIR)/base
	$(GO) run ./benchmark -compare $(E2E_DIR)/base.jsonl $(E2E_DIR)/head.jsonl

# docs-check lints the documentation: every relative Markdown link must
# resolve, and every exported client, file-handle, repair and scheduler
# symbol must carry godoc (see cmd/docscheck). Part of make verify and
# the CI verify job.
docs-check:
	$(GO) run ./cmd/docscheck

# scenario-smoke runs a seeded two-tenant soak (OSD kill +
# drain-cancel-resume under the race detector, every phase checkpoint
# verifying parity, epochs, acknowledged writes, and the repair ledger).
# See docs/SCENARIOS.md. Part of make verify and the CI verify job.
scenario-smoke:
	$(GO) test -race -run 'TestScenarioSmoke' -count=1 ./internal/scenario/

example-recovery:
	$(GO) run ./examples/recovery
