# Convenience targets for the Locus transaction facility reproduction.

GO ?= go

.PHONY: all test race bench-check ledger-check ledger-pairs chaos matrix seed87 vtime telemetry golden golden-telemetry golden-ledger probe trace experiments examples tools lines clean

all: test

test:            ## run the full test suite
	$(GO) test ./...

race:            ## run the suite under the race detector
	$(GO) test -race ./...

bench-check:     ## regenerate the snapshot and gate it against BENCH_BASELINE.json
	$(GO) run ./cmd/locus bench -check BENCH_BASELINE.json

ledger-check:    ## rerun the four 2 s ledger runs and diff their simulated metrics against testdata/golden/ledger.json (exact functions of the seed)
	$(MAKE) golden-ledger
	git diff --exit-code testdata/golden/ledger.json

# Paired ledger runs: how a host-speed claim is measured (ROADMAP.md, "fixed
# points"; benchmark/README.md, "-compare").  The parent commit is unpacked next to the build
# output, then each workload runs N alternating parent/child pairs (pair i on
# seed i, odd pairs parent first) so a slow spell of the shared host falls on
# both sides, and the two sets are compared under BENCHMARK.json's bounds.
N ?= 10
PARENT ?= HEAD~1
ledger-pairs:    ## N alternating parent/child ledger runs per workload (PARENT=<commit>), then the -compare verdicts
	@set -e; out=$$PWD/.bench_build/pairs; rm -rf $$out; mkdir -p $$out/parent; \
	git archive $(PARENT) | tar -x -C $$out/parent; \
	for w in local_transfer remote_2pc shared_page_mix skew_tuned; do \
		for i in $$(seq 1 $(N)); do \
			order="parent child"; [ $$((i % 2)) -eq 0 ] && order="child parent"; \
			for side in $$order; do \
				dir=$$PWD; [ $$side = parent ] && dir=$$out/parent; \
				(cd $$dir && bash benchmark/run.sh --workload $$w --seed $$i --trace 0 --out $$out/$$side-$$w-$$i.json | tail -1 \
					| jq -r --arg s $$side --arg w $$w --arg i $$i '"\($$w) pair \($$i) \($$s): \(.metrics.host_txn_per_s.value | floor) txn/s  \(.metrics.host_cpu_us_per_txn.value * 10 | round / 10) us/txn  \(.metrics.host_bytes_per_txn.value | floor) B/txn  \(.metrics.host_allocs_per_txn.value | floor) allocs/txn"'); \
			done; \
		done; \
	done; \
	for side in parent child; do \
		jq -s '.[0] + {workloads: (map(.workloads | to_entries[]) | group_by(.key) | map({key: .[0].key, value: (.[0].value + {runs: map(.value.runs[])})}) | from_entries)}' \
			$$out/$$side-*.json > $$out/$$side.json; \
	done; \
	$(GO) run ./benchmark -compare $$out/parent.json $$out/child.json

chaos:           ## 20-seed fault-injection sweep with the section 5 audit
	$(GO) run ./cmd/locus chaos -sweep 20 -duration 1s
	$(GO) run ./cmd/locus chaos -fastpaths -schedule 150ms:partition:2,450ms:heal,700ms:partition:3,1000ms:heal -duration 2s
	$(GO) run ./cmd/locus chaos -leases -schedule 200ms:partition:2,600ms:heal,900ms:partition:3,1300ms:heal -duration 2s

# The optional-layer matrix: no layer, each layer alone, every pair, all
# four.  One row per line; a new layer is one more flag in this table.
define MATRIX
-
-groupcommit 5ms
-fastpaths
-leases
-placement
-groupcommit 5ms -fastpaths
-groupcommit 5ms -leases
-groupcommit 5ms -placement
-fastpaths -leases
-fastpaths -placement
-leases -placement
-groupcommit 5ms -fastpaths -leases -placement
endef
export MATRIX

matrix:          ## 50-seed chaos sweep of every row of the layer matrix (RACE=-race for the detector); red rows are listed, not skipped
	@rm -f matrix-red.txt; n=0; echo "$$MATRIX" | while IFS= read -r layers; do \
		n=$$((n+1)); [ "$$layers" = "-" ] && layers=""; \
		echo "== matrix row $$n: $${layers:-(no optional layer)}"; \
		$(GO) run $(RACE) ./cmd/locus chaos -sweep 50 -duration 2s -forensics matrix-$$n-forensics.txt $$layers \
			|| echo "RED row $$n: $${layers:-(no optional layer)}" >> matrix-red.txt; \
	done; \
	if [ -s matrix-red.txt ]; then cat matrix-red.txt; rm -f matrix-red.txt; exit 1; fi

seed87:          ## EXPERIMENTS.md E25's reproducer: no disk fault in the menu, money created on 3 runs in 4 before the in-doubt rule was fixed; the seed replays the interleaving, so one run decides
	@$(GO) run $(RACE) ./cmd/locus chaos -seed 87 -duration 2s -faults crash,partition,block,drop,dup,latency > seed87-forensics.txt \
		|| { cat seed87-forensics.txt; echo "seed87: failed"; exit 1; }; \
	rm -f seed87-forensics.txt; echo "seed87: passed"

vtime:           ## the layer-matrix chaos sweeps, the seed-87 reproducer + the group-commit bench in simulated time (DESIGN.md section 11)
	$(MAKE) matrix
	$(MAKE) seed87
	$(GO) run ./cmd/locus bench -exp concurrent

telemetry:       ## rerun the telemetry document and diff it against testdata/golden/telemetry.json
	$(MAKE) golden-telemetry
	git diff --exit-code testdata/golden/telemetry.json

# The golden directory: outputs a pure refactor must leave byte-identical.
# `make golden` rewrites them; `git diff testdata/golden` shows what moved.
golden: golden-telemetry golden-ledger ## regenerate testdata/golden/ (the seed-7 chaos reports, bare and all-layer, the bench gate's report, the telemetry document, the ledger's simulated metrics, the canonical traces, the crash-point matrix)
	$(GO) run ./cmd/locus chaos -seed 7 -duration 2s -stats > testdata/golden/chaos-seed7.txt
	$(GO) run ./cmd/locus chaos -seed 7 -duration 2s -stats -groupcommit 5ms -fastpaths -leases -placement > testdata/golden/chaos-seed7-all.txt
	$(GO) run ./cmd/locus bench -check BENCH_BASELINE.json > testdata/golden/bench-check.txt
	$(GO) run ./cmd/locus trace -canonical > testdata/golden/trace-canonical.txt
	$(GO) run ./cmd/locus trace -canonical -drop commit2 > testdata/golden/trace-canonical-drop-commit2.txt
	$(GO) run ./cmd/locus probe -json > testdata/golden/probe.json

golden-telemetry: ## the 4-client concurrent pair's locusbench-telemetry/v1 document
	$(GO) run ./cmd/locus bench -telemetry -clients 4 -txns 8 -json testdata/golden/telemetry.json

# Host metrics and setup time are the host's, so only the simulated half of
# each run is kept.
golden-ledger:   ## the simulated end-to-end metrics of --seed 1 --seconds 2 ledger runs of all four workloads (needs jq)
	@mkdir -p .bench_build
	bash benchmark/run.sh --seed 1 --seconds 2 --trace 0 --out .bench_build/golden-ledger.json > /dev/null
	jq '.workloads | map_values(.runs[0].end_to_end | with_entries(select(.key | startswith("host_") or . == "setup_s" | not)))' \
		.bench_build/golden-ledger.json > testdata/golden/ledger.json

probe:           ## exhaustive crash-point matrix (DESIGN.md section 9), race-enabled
	$(GO) run -race ./cmd/locus probe -forensics probe-forensics.txt
	$(GO) test -race ./internal/crashprobe

trace:           ## causal timeline of a small cross-site workload + Chrome export
	$(GO) run ./cmd/locus trace -txns 3
	$(GO) run ./cmd/locus trace -txns 3 -chrome trace-chrome.json

experiments:     ## print every experiment as paper-style tables
	$(GO) run ./cmd/locus bench

experiments.md:  ## refresh the measured tables in EXPERIMENTS.md format
	$(GO) run ./cmd/locus bench -markdown

examples:        ## run all runnable examples
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/banking
	$(GO) run ./examples/migration
	$(GO) run ./examples/deadlock
	$(GO) run ./examples/sharedlog
	$(GO) run ./examples/minidb

tools:           ## build the command-line tool, ./locus
	$(GO) build ./cmd/...

lines:           ## the non-test line counts ROADMAP.md and the issues quote, so a line budget is one command
	@count() { cat $$(ls "$$@" | grep -v _test.go) | wc -l; }; \
	echo "harness (cmd/ + internal/{bench,chaos,crashprobe,scenario,invariant}): $$(count cmd/*/*.go internal/bench/*.go internal/chaos/*.go internal/crashprobe/*.go internal/scenario/*.go internal/invariant/*.go)"; \
	echo "internal/cluster: $$(count internal/cluster/*.go)"; \
	echo "commit path (internal/tpc + internal/cluster/{txnops,recovery}.go + internal/vtime): $$(count internal/tpc/*.go internal/cluster/txnops.go internal/cluster/recovery.go internal/vtime/*.go)"; \
	echo "copy protocols (internal/cluster/placement.go, replica.go): $$(count internal/cluster/placement.go) + $$(count internal/cluster/replica.go)"; \
	echo "wire ops (handle registrations in internal/cluster/handlers.go): $$(grep -c 'handle(s, "' internal/cluster/handlers.go)"; \
	echo "all non-test Go outside benchmark/: $$(git ls-files '*.go' | grep -v -e _test.go -e '^benchmark/' | xargs cat | wc -l)"

cover:           ## coverage summary per package
	$(GO) test -cover ./internal/...
