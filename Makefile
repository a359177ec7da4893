# Tier-1 verification is `make check`: everything CI needs to trust a change.

GO ?= go

.PHONY: check build test race vet fmt fuzz chaos docs-check benchmark ab

check: vet race

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -l . && test -z "$$(gofmt -l .)"

# Documentation gate: formatting, vet, and a doc-comment lint over the
# packages whose godoc is the operations/API reference (see ARCHITECTURE.md).
docs-check: vet
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed on:"; gofmt -l .; exit 1; }
	$(GO) run ./cmd/docscheck ./internal/crypto ./internal/kvstore ./internal/ledger ./internal/ledger/disk ./internal/snapshot ./internal/transport ./internal/chaos ./internal/byzantine ./internal/mempool ./internal/rpc ./internal/config ./internal/fabric ./internal/proto ./internal/detsim .

# Short fuzz pass over the wire codec (decode must never panic), the ledger
# importer (rejected ranges must leave the chain untouched), block-store
# recovery (corrupt/torn segment files must yield a clean prefix or a clean
# error — never a panic, never an unverified block), and the snapshot
# manifest (mutated checkpoint manifests must be rejected cleanly and keep a
# stable identity key through wire round-trips).
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 30s ./internal/types/
	$(GO) test -run '^$$' -fuzz FuzzLedgerImport -fuzztime 30s ./internal/ledger/
	$(GO) test -run '^$$' -fuzz FuzzDiskRecovery -fuzztime 30s ./internal/ledger/disk/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotManifest -fuzztime 30s ./internal/snapshot/

# Seeded fault-injection scenario suite, race-instrumented: the crash/
# partition/restart scenarios, the bounded-history scenarios (a fresh
# replica joining a GC'd 100k-block chain via verified snapshot transfer),
# a certificate receiver down for the whole run, plus the Byzantine suite
# (equivocating primary, forged certificate shares, forged forwards inside
# a cluster, forged votes from a backup and from a primary, view-change
# spam, tampered catch-up, starved catch-up peer, tampered snapshot server),
# all over the full seed matrix — `make check` runs the same scenarios on
# their first seed, and the per-round signature budget and share-vouching
# tests of internal/core — and the harness's
# own teeth test (a >f coalition must demonstrably break the safety
# checks). Replay one failure byte-for-byte with CHAOS_SEED=<seed> make
# chaos. See README "Failure model & recovery".
chaos:
	CHAOS_MATRIX=full $(GO) test -race -v -count=1 -run 'TestChaosScenarios|TestByzantine|TestRunEnforcesFaultBound' ./internal/chaos/

# The repository benchmark (benchmark/, BENCHMARK.json): one run of the real
# fabric through the correctness gate; the last stdout line is the result
# JSON. ARGS goes to benchmark/run.sh, e.g.
#   make benchmark ARGS='-workload mem-sat -seed 1'
benchmark:
	bash benchmark/run.sh $(ARGS)

# Alternated parent-vs-change benchmark runs (what a perf claim rests on):
# archives PARENT, runs benchmark/run.sh from it and from this tree N times
# each on workload W with the order flipped every pair, prints q1/median/q3
# per metric and the pairs won. W=all runs the four workloads in turn, one
# table each, and still exits non-zero if any run failed the gate. ARGS goes
# to the benchmark on both sides (ARGS='-trace 1' for the per-layer table).
# See scripts/ab.sh.
#   make ab PARENT=HEAD~1 W=mem-sat N=10
#   make ab PARENT=HEAD~1 W=all N=10
ab:
	bash scripts/ab.sh $(PARENT) $(W) $(N) $(ARGS)
