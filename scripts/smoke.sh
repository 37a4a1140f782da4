#!/bin/sh
# End-to-end smoke test of the sharded serving stack:
#   hagen -> haidx shard -> 2x haserve (one replica fault-injected) ->
#   haquery with the in-process oracle diff.
# Exits nonzero if any step fails or the distributed answers differ from a
# single-index oracle.
#
# Shard 0 serves with a result cache and sheds one deterministic request;
# the query rows run twice, so the second pass is answered from the cache
# (the oracle diff proves cached answers stay byte-identical) after riding
# out the shed with the router's polite backoff.
#
# With SMOKE_DEBUG=1 (make debug-smoke), shard 0 also binds its HTTP debug
# endpoint; after the queries run, /debug/obs is fetched and must report a
# non-empty request-latency histogram, nonzero request/fault counters, and —
# since haserve defaults to -engine auto — nonzero planner strategy counters
# plus per-engine latency samples, and nonzero qcache hit/miss and shed
# counters from the repeat pass.
#
# With SMOKE_LSM=1 (make lsm-smoke), the snapshots are additionally served
# by mutable (LSM) shards, and insert -> seal -> compact -> upsert -> delete
# are driven through haquery with searches verifying every step.
set -eu

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
PIDS=""
cleanup() {
    for pid in $PIDS; do kill "$pid" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

echo "smoke: building CLIs into $WORK/bin"
go build -o "$WORK/bin/" ./cmd/hagen ./cmd/haidx ./cmd/haserve ./cmd/haquery

echo "smoke: generating and sharding a tiny dataset"
"$WORK/bin/hagen" -profile NUS-WIDE -n 2000 -seed 7 -o "$WORK/data.csv"
"$WORK/bin/haidx" shard -data "$WORK/data.csv" -bits 32 -parts 2 -o "$WORK/shards"

SMOKE_DEBUG=${SMOKE_DEBUG:-0}
DEBUG_FLAGS=""
if [ "$SMOKE_DEBUG" = "1" ]; then
    DEBUG_FLAGS="-debug-addr 127.0.0.1:0 -debug-port-file $WORK/s0.debug"
fi

echo "smoke: starting two shard servers (shard 0 fails request 0, sheds request 3, caches results)"
# shellcheck disable=SC2086 # DEBUG_FLAGS is intentionally word-split
"$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00000.hasn" -addr 127.0.0.1:0 \
    -port-file "$WORK/s0.addr" -fail-requests 0 -shed-requests 3 -cache 1024 $DEBUG_FLAGS &
PIDS="$PIDS $!"
"$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00001.hasn" -addr 127.0.0.1:0 \
    -port-file "$WORK/s1.addr" &
PIDS="$PIDS $!"

for f in s0.addr s1.addr; do
    tries=0
    while [ ! -s "$WORK/$f" ]; do
        tries=$((tries + 1))
        [ "$tries" -gt 100 ] && { echo "smoke: $f never appeared" >&2; exit 1; }
        sleep 0.1
    done
done
ADDR0=$(cat "$WORK/s0.addr")
ADDR1=$(cat "$WORK/s1.addr")

echo "smoke: querying rows 0-49 through the router (h=3, top-5), diffing vs oracle"
"$WORK/bin/haquery" -shards "$ADDR0,$ADDR1" \
    -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
    -oracle "$WORK/shards" -trace

echo "smoke: same rows again: shard 0 sheds the search, then serves it from cache"
"$WORK/bin/haquery" -shards "$ADDR0,$ADDR1" \
    -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
    -oracle "$WORK/shards" -priority interactive

if [ "$SMOKE_DEBUG" = "1" ]; then
    DEBUG_ADDR=$(cat "$WORK/s0.debug")
    echo "smoke: fetching http://$DEBUG_ADDR/debug/obs"
    if command -v curl >/dev/null 2>&1; then
        curl -fsS "http://$DEBUG_ADDR/debug/obs" > "$WORK/obs.json"
    elif command -v wget >/dev/null 2>&1; then
        wget -qO "$WORK/obs.json" "http://$DEBUG_ADDR/debug/obs"
    else
        go run ./scripts/fetch "http://$DEBUG_ADDR/debug/obs" > "$WORK/obs.json"
    fi
    grep -q '"req.search_ns"' "$WORK/obs.json" || {
        echo "smoke: debug snapshot has no search-latency histogram" >&2; exit 1; }
    REQS=$(sed -n 's/^ *"requests": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$REQS" ] && [ "$REQS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no served requests" >&2; exit 1; }
    FAULTS=$(sed -n 's/^ *"faults_injected": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$FAULTS" ] && [ "$FAULTS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no injected faults" >&2; exit 1; }
    # haserve defaults to -engine auto, so every search must leave a planner
    # decision counter and a per-engine latency histogram behind.
    PLANNED=$(grep -o '"planner\.[a-z]*": [0-9]*' "$WORK/obs.json" \
        | awk -F': ' '{s+=$2} END{print s+0}')
    [ "$PLANNED" -gt 0 ] || {
        echo "smoke: debug snapshot has no planner strategy counters" >&2; exit 1; }
    ENGINE=$(awk '/"engine\./{f=1} f && /"count":/{gsub(/[^0-9]/,""); s+=$0; f=0} END{print s+0}' \
        "$WORK/obs.json")
    [ "$ENGINE" -gt 0 ] || {
        echo "smoke: debug snapshot has no per-engine latency samples" >&2; exit 1; }
    # The repeat pass must have left cache traffic (misses from the first
    # pass, hits from the second) and one shed behind.
    QHITS=$(sed -n 's/^ *"qcache.hits": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$QHITS" ] && [ "$QHITS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no result-cache hits" >&2; exit 1; }
    QMISS=$(sed -n 's/^ *"qcache.misses": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$QMISS" ] && [ "$QMISS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no result-cache misses" >&2; exit 1; }
    SHEDS=$(sed -n 's/^ *"sheds": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$SHEDS" ] && [ "$SHEDS" -gt 0 ] || {
        echo "smoke: debug snapshot reports no shed requests" >&2; exit 1; }
    # haidx shard writes mmap-native snapshots and haserve defaults to -mmap,
    # so the served arena must be page-cache-backed (index.mapped_bytes > 0).
    # haserve also defaults to -engine auto, whose MIH engine and scan tuple
    # copies live on the heap, so index.heap_bytes must count them (> 0).
    MAPPED=$(sed -n 's/^ *"index.mapped_bytes": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    HEAP=$(sed -n 's/^ *"index.heap_bytes": \([0-9]*\).*/\1/p' "$WORK/obs.json" | head -n 1)
    [ -n "$MAPPED" ] && [ -n "$HEAP" ] || {
        echo "smoke: debug snapshot is missing the index byte gauges" >&2; exit 1; }
    [ "$MAPPED" -gt 0 ] || {
        echo "smoke: served shard is not mmap-backed (index.mapped_bytes=$MAPPED)" >&2; exit 1; }
    [ "$HEAP" -gt 0 ] || {
        echo "smoke: auto-mode shard reports no engine heap (index.heap_bytes=$HEAP)" >&2; exit 1; }
    echo "smoke: debug endpoint OK ($REQS requests, $FAULTS faults, $PLANNED planned, $ENGINE engine samples, $QHITS/$QMISS cache hits/misses, $SHEDS sheds, $MAPPED mapped bytes, $HEAP heap bytes)"
fi

SMOKE_LSM=${SMOKE_LSM:-0}
if [ "$SMOKE_LSM" = "1" ]; then
    echo "smoke: starting two mutable (LSM) shard servers from the same snapshots"
    "$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00000.hasn" -addr 127.0.0.1:0 \
        -port-file "$WORK/m0.addr" -mutable -memtable-max 64 &
    PIDS="$PIDS $!"
    "$WORK/bin/haserve" -snapshot "$WORK/shards/shard-00001.hasn" -addr 127.0.0.1:0 \
        -port-file "$WORK/m1.addr" -mutable -memtable-max 64 &
    PIDS="$PIDS $!"
    for f in m0.addr m1.addr; do
        tries=0
        while [ ! -s "$WORK/$f" ]; do
            tries=$((tries + 1))
            [ "$tries" -gt 100 ] && { echo "smoke: $f never appeared" >&2; exit 1; }
            sleep 0.1
        done
    done
    MADDR="$(cat "$WORK/m0.addr"),$(cat "$WORK/m1.addr")"

    echo "smoke: mutable tier must still match the oracle before any mutation"
    "$WORK/bin/haquery" -shards "$MADDR" \
        -codes-file "$WORK/shards/codes.txt" -rows 0-49 -h 3 -topk 5 \
        -oracle "$WORK/shards"

    # Two distinct codes from the dataset: the insert target and the upsert
    # destination (which may live in a different Gray partition).
    C0=$(sed -n '1p' "$WORK/shards/codes.txt")
    C1=$(grep -v -x "$C0" "$WORK/shards/codes.txt" | sed -n '1p')
    [ -n "$C1" ] || { echo "smoke: dataset has only one distinct code" >&2; exit 1; }

    echo "smoke: insert a fresh tuple, verify it is searchable"
    "$WORK/bin/haquery" -shards "$MADDR" -insert "90001:$C0"
    "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001 || {
        echo "smoke: inserted tuple 90001 not found" >&2; exit 1; }

    echo "smoke: seal + compact, tuple must survive the frozen segments"
    "$WORK/bin/haquery" -shards "$MADDR" -seal-compact
    "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001 || {
        echo "smoke: tuple 90001 lost across seal+compact" >&2; exit 1; }

    echo "smoke: upsert moves the tuple to a new code"
    "$WORK/bin/haquery" -shards "$MADDR" -insert "90001:$C1"
    "$WORK/bin/haquery" -shards "$MADDR" -codes "$C1" -h 0 -v | grep -q 90001 || {
        echo "smoke: upserted tuple 90001 not at its new code" >&2; exit 1; }
    if "$WORK/bin/haquery" -shards "$MADDR" -codes "$C0" -h 0 -v | grep -q 90001; then
        echo "smoke: upsert left a stale copy of tuple 90001 at the old code" >&2; exit 1
    fi

    echo "smoke: delete the tuple, verify it is gone"
    "$WORK/bin/haquery" -shards "$MADDR" -delete 90001
    if "$WORK/bin/haquery" -shards "$MADDR" -codes "$C1" -h 0 -v | grep -q 90001; then
        echo "smoke: deleted tuple 90001 still searchable" >&2; exit 1
    fi
    echo "smoke: LSM mutable tier OK"
fi

echo "smoke: OK"
