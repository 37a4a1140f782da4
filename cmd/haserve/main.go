// Command haserve hosts one HA-Index shard over the wire protocol. It loads
// a partition snapshot written by "haidx shard" (or internal/wire directly),
// binds a TCP listener, and answers batched Hamming-select, top-k, and stats
// requests until interrupted.
//
// Usage:
//
//	haserve -snapshot shards/shard-00000.hasn -addr 127.0.0.1:7070
//	haserve -snapshot shards/shard-00001.hasn -addr 127.0.0.1:0 -port-file s1.addr
//
// With -addr ending in :0 the kernel picks a free port; -port-file writes
// the bound address for scripts to pick up. The -fail-requests,
// -drop-requests, and -shed-requests flags inject deterministic faults (by
// server-wide request number) for smoke tests of client retry, failover,
// and shed backoff. -debug-addr binds a loopback HTTP endpoint exposing the
// shard's latency histograms (/debug/obs), recent request traces
// (/debug/traces), and pprof.
//
// -cache N gives the shard a bounded result cache keyed on (query,
// threshold, engine, index epoch) — repeat queries under zipfian traffic
// are answered without consuming an admission ticket. -shed-after DUR
// bounds how long a request may wait for admission before the shard sheds
// it with a polite overload frame that clients retry with backoff instead
// of counting as a replica failure.
//
// -engine picks the search access path for immutable serving: the default
// "auto" builds the full engine set (HA walk, multi-index hashing, brute
// scan) and routes each request through the measured cost-based planner;
// "ha", "mih", or "scan" pin one engine. Clients can override per request
// with their own -engine hint.
//
// -mmap (default on) serves the snapshot zero-copy: the arena is aliased
// out of an mmap of the file, so startup cost and heap footprint are
// independent of shard size (watch index.mapped_bytes vs index.heap_bytes
// on /debug/obs). -mmap=false decodes it onto the heap; -mutable always
// does.
//
// With -mutable the snapshot seeds an LSM shard (internal/lsm) instead of
// an immutable index: the server then also accepts insert, delete, and
// seal frames (haquery -insert/-delete/-seal), sealing the
// memtable into frozen segments in the background past -memtable-max
// entries and compacting the stack past -compact-at segments.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"haindex/internal/lsm"
	"haindex/internal/server"
	"haindex/internal/wire"
)

func main() {
	var (
		snapshot  = flag.String("snapshot", "", "shard snapshot file (required)")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address (\":0\" picks a free port)")
		searchers = flag.Int("searchers", 0, "searcher pool size (0 = GOMAXPROCS)")
		portFile  = flag.String("port-file", "", "write the bound address to this file")
		failReqs  = flag.String("fail-requests", "", "comma-separated request numbers answered with an error frame")
		dropReqs  = flag.String("drop-requests", "", "comma-separated request numbers whose connection is dropped")
		debugAddr = flag.String("debug-addr", "", "also serve /debug/obs, /debug/traces, /debug/pprof on this HTTP address (e.g. 127.0.0.1:7071; bind loopback only)")
		debugFile = flag.String("debug-port-file", "", "write the bound debug address to this file")
		cacheN    = flag.Int("cache", 0, "result-cache entries keyed on (query, threshold, engine, epoch); 0 disables")
		shedAfter = flag.Duration("shed-after", 0, "admission-wait budget before a request is shed with a polite overload frame (0 disables; clients retry with backoff)")
		shedReqs  = flag.String("shed-requests", "", "comma-separated request numbers answered with a shed frame")
		idleTO    = flag.Duration("idle-timeout", 0, "drop connections idle longer than this (0 = 30s, negative disables)")
		writeTO   = flag.Duration("write-timeout", 0, "per-response write deadline (0 = 30s, negative disables)")
		mmapIdx   = flag.Bool("mmap", true, "serve the snapshot zero-copy out of an mmap of the file; -mmap=false decodes it onto the heap")
		engine    = flag.String("engine", "auto", "access path for immutable serving: auto (measured cost-based planner), ha, mih, or scan; -mutable always serves the LSM engine")

		mutable     = flag.Bool("mutable", false, "serve a mutable LSM shard seeded from the snapshot; accepts insert/delete/seal")
		memtableMax = flag.Int("memtable-max", 0, "memtable entries before a background seal (0 = 4096, negative disables)")
		compactAt   = flag.Int("compact-at", 0, "segment count that triggers compaction after a seal (0 = 4, negative disables)")
	)
	flag.Parse()
	if *snapshot == "" {
		fatalf("-snapshot is required")
	}

	var faults *server.FaultPlan
	addFaults := func(csv string, add func(*server.FaultPlan, int64)) {
		if csv == "" {
			return
		}
		if faults == nil {
			faults = server.NewFaultPlan()
		}
		for _, part := range strings.Split(csv, ",") {
			req, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
			if err != nil || req < 0 {
				fatalf("invalid request number %q", part)
			}
			add(faults, req)
		}
	}
	addFaults(*failReqs, func(p *server.FaultPlan, r int64) { p.FailRequest(r) })
	addFaults(*dropReqs, func(p *server.FaultPlan, r int64) { p.DropRequest(r) })
	addFaults(*shedReqs, func(p *server.FaultPlan, r int64) { p.ShedRequest(r) })

	opts := server.Options{
		Searchers:    *searchers,
		Faults:       faults,
		CacheEntries: *cacheN,
		ShedAfter:    *shedAfter,
		IdleTimeout:  *idleTO,
		WriteTimeout: *writeTO,
		Mmap:         *mmapIdx && !*mutable,
		Engine:       *engine,
	}
	if *mutable {
		// The LSM shard is its own engine; only the default auto (or an
		// explicit ha) makes sense here.
		if *engine != "auto" && *engine != "ha" {
			fatalf("-engine %s is incompatible with -mutable", *engine)
		}
		opts.Engine = ""
	}
	var s *server.Server
	var shard *lsm.Shard
	var err error
	if *mutable {
		var meta wire.SnapshotMeta
		meta, shard, err = loadMutable(*snapshot, *memtableMax, *compactAt)
		if err == nil {
			s, err = server.NewMutable(meta, shard, opts)
		}
	} else {
		s, err = server.LoadSnapshotFile(*snapshot, opts)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if err := s.Start(*addr); err != nil {
		fatalf("%v", err)
	}
	if *debugAddr != "" {
		da, err := s.StartDebug(*debugAddr)
		if err != nil {
			fatalf("starting debug endpoint: %v", err)
		}
		fmt.Printf("haserve: debug endpoint on http://%s/debug/obs\n", da)
		if *debugFile != "" {
			if err := os.WriteFile(*debugFile, []byte(da.String()+"\n"), 0o644); err != nil {
				fatalf("writing debug port file: %v", err)
			}
		}
	}
	bound := s.Addr().String()
	meta := s.Meta()
	fmt.Printf("haserve: shard %d/%d (%d-bit codes) on %s from %s\n",
		meta.Part, meta.Parts, meta.Length, bound, *snapshot)
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound+"\n"), 0o644); err != nil {
			fatalf("writing port file: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	st := s.Stats()
	s.Close()
	fmt.Printf("haserve: served %d requests (%d select + %d top-k queries, %d ids, %d errors, %d faults injected)\n",
		st.Requests, st.Queries, st.TopKQueries, st.IDsReturned, st.Errors, st.FaultsInjected)
	if shard != nil {
		lst := shard.Stats()
		fmt.Printf("haserve: shard ended at %d tuples in %d segments + %d memtable entries (%d seals, %d compactions, epoch %d)\n",
			lst.Len, lst.Segments, lst.MemtableSize, lst.Seals, lst.Compactions, lst.Epoch)
	}
}

// loadMutable seeds an LSM shard from a snapshot: the decoded index becomes
// the shard's first immutable segment.
func loadMutable(path string, memtableMax, compactAt int) (wire.SnapshotMeta, *lsm.Shard, error) {
	meta, idx, err := wire.ReadSnapshotFile(path)
	if err != nil {
		return meta, nil, fmt.Errorf("loading snapshot %s: %w", path, err)
	}
	shard := lsm.New(meta.Length, lsm.Options{
		MemtableMax: memtableMax,
		CompactAt:   compactAt,
	})
	if err := shard.Bootstrap(idx); err != nil {
		return meta, nil, err
	}
	return meta, shard, nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haserve: "+format+"\n", args...)
	os.Exit(1)
}
