# EF-dedup build targets. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race race-core bench bench-smoke bench-check figures figures-quick vet cover lint wire-lock wire-lock-check fuzz-short chaos examples ci clean

all: build test

# What CI runs (.github/workflows/ci.yml).
ci: build vet lint wire-lock-check test race fuzz-short chaos examples bench-smoke

# Race-detect the resilience-critical packages only (quick local loop;
# CI races the whole module). The agent's tests include TestBudgetProperty,
# the byte-budget property test.
race-core:
	$(GO) test -race ./internal/codec ./internal/transport ./internal/reclog ./internal/kvstore ./internal/cloudstore ./internal/agent ./internal/netem ./internal/retrypolicy

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Project-specific static analysis (lint/): the invariants no test,
# fuzzer or `go vet` check catches — locks across I/O and lock order
# (interprocedural), error classification, determinism, metric and
# context hygiene, goroutine exits, fsync ordering, codec-only body reads
# and the wire.lock pin (DESIGN.md §9's ledger names each one's
# mutation). Fails on any diagnostic, on a //lint:ignore naming no
# analyzer, and on any file gofmt would change (testdata included). One
# invocation covers the main module AND the lint module itself
# (self-lint); the `go list` load is cached per run, so the second
# pattern costs one typecheck, not a second list. Also runs the linter's
# own analyzer test suites. The on-disk listing cache (keyed on go.sum +
# source content) is shared between the test step, the lint step, and
# repeat runs.
lint: export EFDEDUP_LINT_LISTCACHE ?= $(CURDIR)/.lint-listcache
lint:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; echo "gofmt: the files above are not formatted"; exit 1; }
	$(GO) test ./lint/...
	$(GO) run ./lint/cmd/efdedup-lint ./... ./lint/...

# Regenerate lint/wire.lock from the code: the wirelock analyzer (and
# wire-lock-check in CI) fail when the RPC surface or a codec layout
# drifts from the checked-in file, so every wire-format change is an
# explicit `make wire-lock` + review of the diff.
wire-lock:
	$(GO) run ./lint/cmd/efdedup-lint -write-wire-lock lint/wire.lock ./...

# Fail with a readable diff when lint/wire.lock is stale.
wire-lock-check:
	@$(GO) run ./lint/cmd/efdedup-lint -write-wire-lock .wire.lock.tmp ./... 2>/dev/null
	@diff -u lint/wire.lock .wire.lock.tmp \
		|| { rm -f .wire.lock.tmp; \
		     echo "lint/wire.lock is stale: the wire format changed. Review the diff above, then run 'make wire-lock'."; \
		     exit 1; }
	@rm -f .wire.lock.tmp

# Short coverage-guided fuzz pass over the chunker, record-log open, wire
# codec, transport frame and cloud handler invariants (the seed corpora alone run in every `make test`),
# plus a one-iteration bench smoke so bit-rot in the chunk benchmarks
# surfaces here, not in the nightly full bench.
fuzz-short:
	$(GO) test ./internal/chunk -fuzz FuzzGearRoundTrip -fuzztime 10s
	$(GO) test ./internal/chunk -fuzz FuzzFixedRoundTrip -fuzztime 10s
	$(GO) test ./internal/chunk -fuzz FuzzGearVectorizedEquivalence -fuzztime 10s
	$(GO) test ./internal/reclog -fuzz 'FuzzLogOpen$$' -fuzztime 10s
	$(GO) test ./internal/kvstore -fuzz 'FuzzKVCodecs$$' -fuzztime 10s
	$(GO) test ./internal/kvstore -fuzz 'FuzzRepairCodecs$$' -fuzztime 10s
	$(GO) test ./internal/cloudstore -fuzz 'FuzzCloudCodecs$$' -fuzztime 10s
	$(GO) test ./internal/cloudstore -fuzz 'FuzzHandlers$$' -fuzztime 10s
	$(GO) test ./internal/transport -fuzz 'FuzzDecodeRequest$$' -fuzztime 10s
	$(GO) test ./internal/transport -fuzz 'FuzzDecodeResponse$$' -fuzztime 10s
	$(GO) test -bench=. -benchtime=1x ./internal/chunk

# Crash/recovery suite under the race detector: kill-restart-rejoin
# e2e (torn WAL tail, anti-entropy convergence, membership growth), the
# link-emulating conn's delivery goroutine racing cuts and Close, the
# WAL/snapshot durability and repair unit tests, and container reads
# racing the appends and seals of the open container (and outliving the
# reuse of its buffer).
chaos:
	$(GO) test -race -count=2 -run 'TestDurableRingSurvivesKillRestartRejoin|TestAgentSurvives|TestRestoreSurvives|TestShaped|TestPartition|TestIsolate|TestComposesWithNetem' ./internal/netem
	$(GO) test -race -count=2 -run 'TestWAL|TestSnapshot|TestRepair|TestProbe' ./internal/kvstore
	$(GO) test -race -count=2 -run 'TestConcurrentUploadsAndReads|TestRestoresRunBesideUploadsAndSeals|TestRestoreSurvivesSealMidRestore|TestOpenReadsSurviveBufferReuse' ./internal/cloudstore

# Build every example program and run it end to end: each drives the
# public facade over an in-process deployment and exits non-zero on any
# failure (about 2 s in all).
examples:
	rm -rf bin/examples
	$(GO) build -o bin/examples/ ./examples/...
	@for e in bin/examples/*; do echo "== $$e"; $$e || exit 1; done

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark (bench/, its own module, hence GOWORK=off) at
# 1/100 scale: every workload, the correctness oracle, and the metric
# names against BENCHMARK.json. Also in CI.
bench-smoke:
	GOWORK=off $(GO) -C bench test .

# Two full benchmark runs that must agree with each other within
# BENCHMARK.json's bounds; see bench/README.md.
bench-check:
	bash bench/run.sh -repeat 2 -check

# Regenerate every figure of the paper's evaluation at full size.
figures:
	$(GO) run ./cmd/efdedup-bench -fig all -out results_full.txt

# CI-sized figures (seconds).
figures-quick:
	$(GO) run ./cmd/efdedup-bench -fig all -quick

clean:
	$(GO) clean ./...
