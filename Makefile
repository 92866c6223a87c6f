# Lossless smoothing of MPEG video — build and reproduction targets.

GO ?= go

.PHONY: all build test test-race vet bench benchtest muxbench ingestbench chaos datagram dgfuzz dgbench fadingsweep crash cluster replfuzz journal protocol results examples loc clean

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The batch runner (SmoothAll) shards streams across a worker pool;
# the race detector guards the sharding and the shared Config values.
test-race:
	$(GO) test -race ./...

# The chaos suite: fault-injected soaks (corruption, resets, stalls)
# under the race detector — resumable streams must complete byte-exact.
chaos:
	$(GO) test -race -v -run 'Chaos|Resum|Stall|Fault|Malformed|Partition' ./internal/server/ ./internal/transport/ ./internal/faultnet/

# The datagram acceptance soak: resumable streams over the selective-
# repeat ARQ transport, with packet drops, Gilbert–Elliott burst
# outages, duplication, and reordering injected in BOTH directions
# across fixed seeds — byte-exact completion, exactly-once admission,
# zero leaked reservations, race-mode.
datagram:
	$(GO) test -race -v -run 'TestDatagramChaosSoak' -count=1 ./internal/server/

# The datagram frame fuzzer: arbitrary bytes against the packet codec
# (decode must never panic, accepted packets re-encode byte-identically)
# and as hostile delivery scripts against a receiving ARQ flow (the
# stream layer must only ever see an in-order prefix).
dgfuzz:
	$(GO) test -run '^$$' -fuzz FuzzDatagramFrame -fuzztime 10s ./internal/transport/

# The datagram ARQ micro-benchmark: one 64 KiB picture per op through a
# client flow and the listener over UDP loopback, on a clean and a
# 2%-lossy packet channel, reporting allocs, DATA packets, ACKs and
# retransmits per picture.
dgbench:
	$(GO) test -run '^$$' -bench BenchmarkDGConnTransfer -benchmem ./internal/transport/

# Regenerate the fading-channel sweep: admissible load for raw vs
# smoothed schedules under block fading with deadline-bound ARQ.
fadingsweep:
	$(GO) run ./cmd/experiments -fig fading -out results

# The kill-and-restart chaos harness: the server is killed mid-stream
# (journal abandoned, connections dropped) and restarted from the
# journal on the same address, repeatedly, across fixed seeds. Byte-
# exact delivery, exactly one admission per client across generations,
# zero leaked reservations.
crash:
	$(GO) test -race -v -run 'TestCrash' -count=1 ./internal/server/

# The multi-node failover harness: WAL replication to a warm-standby
# follower, promotion after the primary process is killed AND its
# journal dir deleted, sharded redirect placement, and the quorum-2
# chaos schedules (kill-primary with no catch-up gate, kill-follower,
# partition-then-heal with epoch fencing) — all race-mode — plus the
# OS-process failover and quorum smokes driving the real binary.
cluster:
	$(GO) test -race -v -run 'TestFailover|TestFollower|TestSharded|TestRing|TestQuorum|TestTwoFollower' -count=1 ./internal/cluster/
	$(GO) test -v -run 'TestClusterFailoverSmoke|TestClusterQuorumSmoke' -count=1 ./cmd/smoothd/

# The replication-frame parser fuzzer: arbitrary bytes against the MSRP
# framing (truncations, CRC flips, oversized payloads) must never
# panic or over-read.
replfuzz:
	$(GO) test -run '^$$' -fuzz FuzzReplFrame -fuzztime 10s ./internal/cluster/

# The journal's own suite: CRC-framed WAL round-trips, torn-write and
# fsync-error fault injection, deterministic tail truncation, replay
# idempotence, segment rotation/compaction — plus a fuzz smoke over
# the replay path.
journal:
	$(GO) test -race -v -count=1 ./internal/journal/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime 10s ./internal/journal/

# The exactly-once protocol property harness: every handshake message
# class dropped and corrupted, on both sides of the wire — single
# faults, curated compound schedules, and seeded random compound
# schedules — across 8 fixed seeds. No double reservation, no byte
# divergence, no spurious rejection.
protocol:
	$(GO) test -race -v -run 'TestProtocolExactlyOnce|TestProtocolRandomizedCompound' ./internal/server/

# Regenerate every figure of the paper's evaluation (plus extensions)
# into results/ as CSV, with console summaries.
results:
	$(GO) run ./cmd/experiments -fig all -out results

# Time the regeneration of every figure and the core primitives,
# without re-running the unit tests.
bench:
	$(GO) test -bench=. -benchmem -run='^$$' ./...

# The smoothd benchmark's own unit tests. smoothbench is a separate Go
# module (the root module's test run skips it) that compiles against
# the transport, server and cluster APIs, so an API break fails here
# rather than in a benchmark run.
benchtest:
	cd smoothbench && $(GO) test ./...

# The event-engine scale benchmark: the seed heap scheduler vs the
# timing-wheel engine (per-cell and fluid) on the 1000-source
# multiplexing workload, recorded to BENCH_netsim.json. MUXBENCH_FLAGS
# can pass -short for the CI-sized workload.
muxbench:
	$(GO) test $(MUXBENCH_FLAGS) -run TestMuxBenchArtifact -count=1 \
		./internal/netsim/ -muxbench-out $(CURDIR)/BENCH_netsim.json
	@cat BENCH_netsim.json

# The ingest hot-path benchmark: journal-backed server ingest (the
# group-commit before/after) plus the cluster local and quorum-2
# variants, recorded to BENCH_ingest.json against the committed
# pre-group-commit baseline in BENCH_ingest.baseline.json.
ingestbench:
	$(GO) test $(INGESTBENCH_FLAGS) -run TestIngestBenchArtifact -count=1 -v \
		./internal/cluster/ -ingestbench-out $(CURDIR)/BENCH_ingest.json
	@cat BENCH_ingest.json

# Every program under examples/, run to completion.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/livepipe
	$(GO) run ./examples/livesmoother
	$(GO) run ./examples/multiplex
	$(GO) run ./examples/encodepipeline

# Production and test lines of Go outside smoothbench/ (the
# benchmark's own module).
GOFILES = find . \( -path ./smoothbench -o -path ./.git -o -path ./.bench_build \) -prune -o -name '*.go'
loc:
	@printf 'production %6d\n' $$($(GOFILES) ! -name '*_test.go' -print | xargs cat | wc -l)
	@printf 'test       %6d\n' $$($(GOFILES) -name '*_test.go' -print | xargs cat | wc -l)

clean:
	rm -f test_output.txt bench_output.txt
