# Tier-1 verification is `make check`: everything CI needs to trust a change.

GO ?= go

.PHONY: check build test race vet fmt fuzz bench bench-wan chaos docs-check ab

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
	$(GO) run ./cmd/docscheck ./internal/ledger ./internal/ledger/disk ./internal/snapshot ./internal/transport ./internal/chaos ./internal/byzantine ./internal/mempool ./internal/rpc ./internal/config .

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

# Performance suite: fabric macro-benchmark (Real crypto, Mem + TCP loopback,
# serial vs verify pool, plus the 10k-client admission-saturation shape),
# the snapshot-bootstrap column (verify+install cost of joining from a
# checkpoint across state sizes) and codec micro-benchmarks; writes
# BENCH_PR7.json with txn/s, allocs/op, drop counts and the peak mempool
# length. See README "Performance" for how to read the numbers (especially
# on 1-core hosts). Durability micro-benchmarks (ledger append under each
# fsync policy, disk bootstrap) live in ./internal/ledger/disk:
#   go test -run '^$' -bench . ./internal/ledger/disk/
bench:
	$(GO) run ./cmd/fabricbench -out BENCH_PR7.json

# WAN benchmark: a geo-emulated deployment — one authenticated TCP transport
# per replica and per client, with Table 1 (Google Cloud) latency shaped
# between cluster regions — measuring per-region client commit latency, the
# injected cross-cluster RTT matrix certificate sharing pays, and throughput
# versus uniformly injected RTT; writes BENCH_WAN.json. See README
# "Operations" for the workflow (and the 1-core caveat when reading absolute
# numbers).
bench-wan:
	$(GO) run ./cmd/wanbench -clusters 3 -replicas 4 -duration 3s \
		-sweep 0ms,50ms,100ms,200ms -out BENCH_WAN.json

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
