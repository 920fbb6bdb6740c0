# Build/test entry points. `make ci` is the full gate: vet, build, unit
# tests under both the SIMD and `noasm` builds, the race-detector pass
# (which also runs every coder's concurrent conformance hammering), and
# short fuzz smoke runs of the checked-in corpora plus 5s of fresh
# exploration per target.

GO ?= go
FUZZTIME ?= 5s
# Where the bench-pr7/9/10 targets write their reports: the checked-in
# BENCH_PR*.json by default. `ci` points it at a temp dir, so the gates
# run without rewriting tracked files and `git status` stays clean.
BENCH_DIR ?= .

.PHONY: all build vet lint errvet test test-noasm test-cpus race race-hammer chaos net-chaos topo-chaos crash fuzz bench-pr1 bench-pr2 bench-pr6 bench-pr7 bench-pr9 bench-pr10 stress metrics-bench ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# errcheck-style gate: a call statement in the audited packages that
# drops an error result fails the build (see cmd/errvet; `_ =` marks
# deliberate discards). internal/net and internal/resilience are in the
# set because network and retry code is where errors get dropped.
errvet:
	$(GO) run ./cmd/errvet ./internal/store ./internal/net ./internal/resilience ./internal/tier ./internal/place

# vet plus staticcheck when it is installed (skipped silently offline —
# the container image does not bundle it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

test:
	$(GO) test ./...

# Same suite with the assembly GF(2^8) kernels compiled out: proves the
# pure-Go fallback (and therefore every non-SIMD platform) passes.
test-noasm:
	$(GO) test -tags noasm ./...

# The two tier-1 hangs only exist with more than one P: nested
# parallel.Run needs busy pool workers, and two repair workers must be
# journaling at once for one to strand the other. The pool is sized
# once per process from GOMAXPROCS, so each setting is its own `go
# test` run (-count=1: the test cache does not key on GOMAXPROCS), and
# the timeout turns a reintroduced deadlock into a failure. Set
# explicitly, these run the multi-P schedules even when `ci` is
# recorded on a 1-CPU host.
test-cpus:
	GOMAXPROCS=2 $(GO) test -count=1 -timeout 180s ./internal/parallel ./internal/core ./internal/store
	GOMAXPROCS=4 $(GO) test -count=1 -timeout 180s ./internal/parallel ./internal/core ./internal/store

race:
	$(GO) test -race ./...

# Seeded chaos suite: full ingest → fault → degraded-read → repair →
# scrub cycles through the fault injector, under the race detector.
# Deterministic per seed; see internal/chaos and DESIGN.md §7. The retry/
# hedge/health wrapper those cycles run through has its own scripted
# tests (hedge races, cancellation, goroutine accounting), race-checked
# here too.
chaos:
	$(GO) test -race -run 'TestChaos' ./internal/store/ ./internal/chaos/...
	$(GO) test -race ./internal/resilience/

# Socket-level chaos suite: the same exact-or-flagged invariants, but
# the store's backend is a netio.Client talking to live TCP DataNodes
# through fault-injecting proxies (crash/latency/corrupt/torn/
# partition), plus the heartbeat-liveness and end-to-end kill/rejoin
# tests, all under the race detector. See internal/net and DESIGN.md
# §13.
net-chaos:
	$(GO) test -race -run 'TestChaosNet|TestLiveness|TestEndToEnd|TestPartitionHeartbeatPath' ./internal/net/

# Correlated-failure chaos suite: topology-aware placement under whole-
# rack loss, zone partitions, rolling upgrades and disk-batch faults —
# in-process (internal/store) and over live TCP through per-rack chaos
# proxies (internal/net) — plus the placement checker, domain-gated
# injector and rack-local fabric-simulator tests, all under the race
# detector. See internal/place and DESIGN.md §15.
topo-chaos:
	$(GO) test -race -run 'TestChaos(Net)?(RackLoss|ZonePartition|RollingUpgrade|DiskBatch)|TestPlacementSnapshotRoundTrip' ./internal/store/ ./internal/net/
	$(GO) test -race -run 'TestDomainRuleMatching|TestForParams|TestCheck|TestScatter|TestSimulateRackLocality|TestSimulateFlatFabricUnchanged|TestRackFailure' ./internal/chaos/ ./internal/place/ ./internal/cluster/ ./internal/hdfssim/

# Crash-consistency matrix: the journaled-store workload is killed at
# every registered crash point (torn journal appends, mid-write, each
# snapshot step, repair checkpoints) and recovered from the directory
# alone, asserting acknowledged operations survive byte-exact; the
# DataNode's column log gets the same treatment (torn appends, before
# each sync, mid-compaction, and a truncation sweep over its records).
# See internal/chaos/crashtest and DESIGN.md §10, §13.
crash:
	$(GO) test -run 'TestCrash|TestRepairResume|TestTruncation' ./internal/store/ ./internal/net/

# Each fuzz target runs alone (go test allows one -fuzz pattern per
# package invocation), seeded by testdata/fuzz corpora.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzGF256MulInv -fuzztime=$(FUZZTIME) ./internal/gf256/
	$(GO) test -run=^$$ -fuzz=FuzzSliceKernels -fuzztime=$(FUZZTIME) ./internal/gf256/
	$(GO) test -run=^$$ -fuzz=FuzzSIMDKernels -fuzztime=$(FUZZTIME) ./internal/gf256/
	$(GO) test -run=^$$ -fuzz=FuzzRSRoundTrip -fuzztime=$(FUZZTIME) ./internal/rs/
	$(GO) test -run=^$$ -fuzz=FuzzCoreRoundTrip -fuzztime=$(FUZZTIME) ./internal/core/
	$(GO) test -run=^$$ -fuzz=FuzzParseSchedule -fuzztime=$(FUZZTIME) ./internal/chaos/
	$(GO) test -run=^$$ -fuzz=FuzzJournalRecords -fuzztime=$(FUZZTIME) ./internal/store/
	$(GO) test -run=^$$ -fuzz=FuzzNetioDecode -fuzztime=$(FUZZTIME) ./internal/net/
	$(GO) test -run=^$$ -fuzz=FuzzColumnLog -fuzztime=$(FUZZTIME) ./internal/net/

# Focused concurrency hammer, repeated under the race detector: Stats
# vs the mutating paths, UpdateSegment vs FailNodes, the obs registry's
# concurrent counter/histogram/export use, lock-free reads vs
# UpdateSegment on one object (the read-vs-update rule, at two and four
# Ps), and a long (4s per pass) run of the mixed-workload stress suite
# and model-based property test.
race-hammer:
	$(GO) test -race -count=3 -run 'TestUpdateSegmentFailNodesRace|TestStatsConcurrentMonotonic|TestConcurrentUse' ./internal/store/ ./internal/obs/
	GOMAXPROCS=2 $(GO) test -race -count=2 -run 'TestReadRacingUpdateIsNotCorruption' ./internal/store/
	GOMAXPROCS=4 $(GO) test -race -count=2 -run 'TestReadRacingUpdateIsNotCorruption' ./internal/store/
	STORE_STRESS_SECONDS=4 $(GO) test -race -count=2 -run 'TestConcurrentStress|TestSlowGetDoesNotBlockPut|TestAdmissionControl|TestStorePropertyVsModel' ./internal/store/

# Short mixed-workload stress pass under the race detector (the long
# version runs inside race-hammer; STORE_STRESS_SECONDS scales it).
stress:
	$(GO) test -race -run 'TestConcurrentStress|TestSlowGetDoesNotBlockPut|TestAdmissionControl|TestStorePropertyVsModel|TestJournal' ./internal/store/

# Observability overhead gate: Get on a store with the default disabled
# registry must stay within 2% of one with all metric handles stripped
# (the pre-instrumentation baseline). See TestMetricsOverheadGate.
metrics-bench:
	METRICS_GATE=1 $(GO) test -run TestMetricsOverheadGate -v ./internal/store/

# Regenerates BENCH_PR1.json (serial vs parallel striping engine).
bench-pr1:
	$(GO) run ./cmd/apprbench -exp pr1 -iters 7

# Regenerates BENCH_PR2.json (SIMD kernels + cached decode plans).
bench-pr2:
	$(GO) run ./cmd/apprbench -exp pr2 -iters 3

# Regenerates BENCH_PR6.json (concurrent load generator: closed/open
# loop workloads plus the group-commit vs per-op-fsync comparison; the
# >= 2x gate is evaluated only on >= 4 cores, report-only below).
bench-pr6:
	$(GO) run ./cmd/apprbench -exp pr6 -iters 3

# Regenerates BENCH_PR7.json (minimal-read repair and degraded reads:
# repair survivor-traffic A/B vs the full-stripe baseline, segment-read
# bytes moved, degraded-read latency, locality-aware cluster sim; the
# latency gate is evaluated only on >= 4 cores, report-only below).
bench-pr7:
	$(GO) run ./cmd/apprbench -exp pr7 -iters 3 -pr7 $(BENCH_DIR)/BENCH_PR7.json

# Regenerates BENCH_PR9.json (popularity-adaptive tiering: Zipf replay
# against the all-warm baseline then the tiered fleet, per-tier
# cost/latency frontier, fleet overhead vs 3x all-replication; the
# cached-vs-decode latency gate is evaluated only on >= 4 cores,
# report-only below).
bench-pr9:
	$(GO) run ./cmd/apprbench -exp pr9 -iters 3 -pr9 $(BENCH_DIR)/BENCH_PR9.json

# Regenerates BENCH_PR10.json (topology-aware placement: healthy vs
# whole-rack-loss degraded read latency with the survival invariant
# held, repair traffic rack-local vs the scatter/flat baselines; all
# targets deterministic, the latency ratio is report-only).
bench-pr10:
	$(GO) run ./cmd/apprbench -exp pr10 -iters 3 -pr10 $(BENCH_DIR)/BENCH_PR10.json

# The full gate. The bench gates come last, writing to a temp dir (see
# BENCH_DIR) so a ci run leaves the checked-in reports alone.
ci: lint errvet build test test-noasm test-cpus race race-hammer stress chaos net-chaos topo-chaos crash fuzz metrics-bench
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
		$(MAKE) bench-pr7 bench-pr9 bench-pr10 BENCH_DIR="$$dir"
