GO ?= go

# BENCH_ID names the one committed bench snapshot, BENCH_$(BENCH_ID).json.
BENCH_ID ?= pr21
BENCH_EXPS := repair,fig8b,fig5

.PHONY: verify verify-race build vet test race bench bench-json bench-diff e2e-pairs example-recovery docs-check scenario-smoke

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

# bench-json regenerates the committed bench snapshot: the repair,
# fig8b and fig5 experiments in one combined JSON file. Every gated
# number is in modeled (virtual) time; the repair rows' ungated
# hot_reads, degraded, last_degr_% and foreground_MBps race the rebuild
# in wall time.
bench-json:
	$(GO) run ./cmd/tsuebench -exp $(BENCH_EXPS) -combined BENCH_$(BENCH_ID).json

# bench-diff is the one bench gate (CI runs it): regenerate the snapshot
# into a temporary file and diff it against the committed one with
# cmd/benchdiff's tolerance band. See docs/OPERATIONS.md for how to read
# the output.
bench-diff:
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/tsuebench -exp $(BENCH_EXPS) -combined $$tmp >/dev/null && \
	$(GO) run ./cmd/benchdiff -base BENCH_$(BENCH_ID).json -new $$tmp; \
	status=$$?; rm -f $$tmp; exit $$status

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
# resolve, and every exported client, file-handle, MDS, repair and scheduler
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
