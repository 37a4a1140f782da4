GO ?= go

.PHONY: all check build test race test-race bench bench-query bench-frozen bench-serve bench-planner bench-load bench-load-rep bench-scale vet fmt-check fuzz fuzz-wire fuzz-qcache fuzz-arena smoke debug-smoke lsm-smoke experiments examples clean

all: build vet test

check: build vet fmt-check test test-race fuzz-wire fuzz-qcache fuzz-arena

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean, listing the offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Race-detector pass over everything; the concurrency-heavy packages (the
# MapReduce runtime, the serving layer's server/client, the parallel
# builders) are all covered by running the whole module.
test-race:
	$(GO) test -race ./...

# Query-engine microbenchmarks (alloc counts must report 0 allocs/op for
# steady-state Searcher use) plus the SearchBatch throughput experiment,
# which writes BENCH_query.json.
bench: bench-query
	$(GO) test -bench=. -benchmem ./...

bench-query:
	$(GO) test -run=NONE -bench='Searcher|SearchBatch' -benchmem ./internal/core/
	$(GO) run ./cmd/habench -exp query

# Frozen-index microbenchmarks: freeze (compile) time, flat-walk search and
# top-k, and the v4 encode and eager decode, then the pointer-vs-frozen
# experiment rows (BENCH_query.json gains a "frozen" field per run).
bench-frozen:
	$(GO) test -run=NONE -bench='Freeze|Frozen' -benchmem ./internal/core/
	$(GO) run ./cmd/habench -exp query

# Serving-layer throughput experiment: QPS and latency against in-process
# shard servers across shard counts and batch sizes; writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/habench -exp serve

# Planner experiment: threshold sweep across the HA walk, MIH, and the brute
# scan at 64-bit codes, the engine crossovers, the planner's hit rate, and
# the auto-vs-forced-ha comparison; writes BENCH_planner.json.
bench-planner:
	$(GO) run ./cmd/habench -exp planner

# Traffic-shaped serving experiment: open-loop zipfian load against a real
# loopback deployment — result-cache hit rate and tail latency at 0.75x
# capacity, and the goodput collapse/survival sweep past saturation with
# admission shedding off and on; writes BENCH_load.json.
bench-load:
	$(GO) run ./cmd/habench -exp load

# Replica-routing experiment: the same zipfian workload against a replicated
# deployment under three routing policies (single replica, rendezvous
# affinity, naive split) plus a cold-failover window that kills one replica
# under load; writes the "replicated" section of BENCH_load.json.
bench-load-rep:
	$(GO) run ./cmd/habench -exp load-rep

# Zero-copy arena experiment at multi-million-code scale: streaming-build
# wall/peak-heap at two sizes, then mmap-vs-eager serving over the same v4
# snapshot (load-to-first-query, heap/mapped bytes, RSS growth, query
# latency); writes BENCH_scale.json.
bench-scale:
	$(GO) run ./cmd/habench -exp scale

fuzz:
	$(GO) test -fuzz=FuzzDecodeDynamic -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeIndex -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzDecodeFrozen -fuzztime=30s ./internal/core/
	$(GO) test -fuzz=FuzzFromString -fuzztime=15s ./internal/bitvec/
	$(GO) test -fuzz=FuzzParseMutationFrames -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzStatsResp -fuzztime=30s ./internal/wire/

# Short fuzz smoke of the mutation-frame decoders and the StatsResp
# encode/parse round trip — cheap enough to run on every check. Each -fuzz
# pattern must match exactly one target, so the two fuzzers run as separate
# invocations.
fuzz-wire:
	$(GO) test -run=NONE -fuzz=FuzzParseMutationFrames -fuzztime=5s ./internal/wire/
	$(GO) test -run=NONE -fuzz=FuzzStatsResp -fuzztime=5s ./internal/wire/

# Short fuzz smoke of the result-cache key packing: distinct (code,
# threshold, engine, shard, epoch) tuples must never collide to one key.
fuzz-qcache:
	$(GO) test -run=NONE -fuzz=FuzzKeyPacking -fuzztime=5s ./internal/qcache/

# Short fuzz smoke of the HADX v4 arena section table: byte-level splats and
# truncations over the mmap-native layout must be rejected (or decode to an
# index that answers searches), never crash — in both alias and copy modes.
fuzz-arena:
	$(GO) test -run=NONE -fuzz=FuzzSectionTable -fuzztime=5s ./internal/core/

# End-to-end smoke of the serving stack: build the CLIs, generate a tiny
# dataset, shard it, start two haserve processes (one fault-injected), query
# through haquery, and diff against the in-process oracle.
smoke:
	./scripts/smoke.sh

# Smoke plus the observability surface: shard 0 serves its HTTP debug
# endpoint, and the script asserts /debug/obs reports non-empty latency
# histograms and nonzero request/fault counters.
debug-smoke:
	SMOKE_DEBUG=1 ./scripts/smoke.sh

# Smoke of the mutable (LSM) serving tier: restart the shards with -mutable,
# insert, delete, seal, and compact through haquery, and verify searches see
# every mutation.
lsm-smoke:
	SMOKE_LSM=1 ./scripts/smoke.sh

experiments:
	$(GO) run ./cmd/habench -exp all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/dedup
	$(GO) run ./examples/imagesearch
	$(GO) run ./examples/chemsearch
	$(GO) run ./examples/streaming
	$(GO) run ./examples/mrpipeline

clean:
	$(GO) clean ./...
