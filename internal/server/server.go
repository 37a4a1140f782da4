// Package server hosts one shard of an HA-Index behind the wire protocol:
// it loads a partition snapshot (internal/wire), answers batched
// Hamming-select and top-k requests through a pool of core.Searchers with
// batched admission, and keeps per-shard statistics. One process serves one
// Gray partition; a deployment runs one or more replicas of each partition
// and a client router (internal/client) fans queries across them.
//
// A server built with NewMutable serves an lsm.Shard instead of a fixed
// index and additionally answers the mutation frames (insert/delete/seal);
// mutations are applied synchronously, so an acknowledged write is visible
// to every subsequent search.
package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/lsm"
	"haindex/internal/mih"
	"haindex/internal/obs"
	"haindex/internal/planner"
	"haindex/internal/qcache"
	"haindex/internal/wire"
)

// Options configures a shard server.
type Options struct {
	// Searchers is the size of the searcher pool — the maximum number of
	// concurrently executing queries across all connections. 0 selects
	// GOMAXPROCS.
	Searchers int
	// Faults optionally injects deterministic request-level faults (tests,
	// smoke runs). Nil injects nothing.
	Faults *FaultPlan

	// Mmap makes LoadSnapshotFile serve the snapshot zero-copy: the embedded
	// arena is aliased straight out of an mmap of the file, so the shard is
	// query-ready in milliseconds regardless of size and its slabs stay in
	// the page cache instead of the Go heap. On platforms without the mmap
	// fast path the arena is decoded eagerly — same answers, eager cost. The
	// server owns the mapping and releases it on Close.
	Mmap bool

	// Engine selects the access path for search requests on an immutable
	// server. "ha" (or empty) serves the loaded index directly and is the
	// only mode a mutable server accepts. Anything else builds the full
	// engine set (MIH, scan arrays, measured-cost planner) from the loaded
	// index at construction: "auto" routes each request through the planner,
	// "mih" and "scan" pin one engine. A per-request wire hint overrides
	// the mode, but may only name engines this option enabled.
	Engine string

	// CacheEntries, when positive, puts a result cache (internal/qcache) in
	// front of batched admission: a search whose every query hits is
	// answered without consuming an admission ticket. Entries are keyed on
	// (code, threshold, access path, mutation version), so LSM mutations
	// invalidate by construction — see lsm.Shard.Version. 0 disables.
	CacheEntries int
	// ShedAfter, when positive, is the admission-wait budget: a search or
	// top-k request still waiting for an admission ticket past it is
	// answered with a polite MsgShed instead of queueing further. The
	// budget scales with the request's wire priority class (interactive
	// 2x, normal 1x, batch 1/2x). 0 disables.
	ShedAfter time.Duration

	// IdleTimeout bounds how long a connection may sit between frames (and
	// how long a half-written request may stall) before the server reaps it.
	// A stalled or half-open client otherwise pins its handler goroutine
	// forever. 0 selects 30s; negative disables the deadline.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response frame to a client that has
	// stopped reading. 0 selects 30s; negative disables the deadline.
	WriteTimeout time.Duration

	// Obs, when set, is the registry the server hangs its counters and
	// latency histograms on; nil gives the server a private one (reachable
	// via Server.Obs).
	Obs *obs.Registry
	// TraceCapacity is the size of the per-server ring of request traces
	// kept for the debug endpoint. 0 selects 64.
	TraceCapacity int
}

// Stats is a snapshot of the per-shard serving counters.
type Stats = wire.StatsResp

// Server serves one shard. Create with New, start with Start (or Serve on
// an existing listener), stop with Close.
type Server struct {
	meta wire.SnapshotMeta
	idx  core.Index // nil in mutable mode
	opts Options

	// ownsIdx marks an index the server loaded itself (an mmap'd arena from
	// LoadSnapshotFile); Close releases its mapping.
	ownsIdx bool

	// shard, when non-nil, makes this a mutable server: searches go through
	// the LSM layering and the mutation frames are accepted.
	shard *lsm.Shard

	// pool holds the idle per-engine searcher bundles; its capacity is the
	// admission limit. A mutable server has no fixed index to bind searchers
	// to (the shard pools its own per-segment searchers), so the channel
	// holds nil admission tickets instead.
	pool chan *searcherSet

	// Multi-engine serving state (immutable servers with Options.Engine other
	// than "ha"): the planner owns the cost model, the shared MIH engine and
	// the scan arrays; fixedStrategy pins the decision for the "mih"/"scan"
	// modes.
	pl            *planner.Planner
	planned       bool // Engine == "auto": ask the planner per request
	fixedStrategy planner.Strategy

	// cache, when non-nil, answers repeated searches ahead of admission.
	cache *qcache.Cache

	// reqSeq numbers search/top-k requests across all connections — the
	// coordinate system of the fault plan.
	reqSeq atomic.Int64

	requests       atomic.Int64
	queries        atomic.Int64
	topkQueries    atomic.Int64
	idsReturned    atomic.Int64
	errors         atomic.Int64
	faultsInjected atomic.Int64
	distComps      atomic.Int64
	nodesVisited   atomic.Int64
	leavesChecked  atomic.Int64

	// Observability: the registry mirrors the counters above and adds the
	// per-message-type latency histograms; the tracer rings recent request
	// span trees. Hot-path instruments are resolved once here.
	reg           *obs.Registry
	tracer        *obs.Tracer
	reqCount      *obs.Counter
	errCount      *obs.Counter
	faultCount    *obs.Counter
	histSearch    *obs.Histogram // req.search_ns
	histTopK      *obs.Histogram // req.topk_ns
	histStats     *obs.Histogram // req.stats_ns
	histMutate    *obs.Histogram // req.mutate_ns
	histAdmission *obs.Histogram // admission_wait_ns
	histDist      *obs.Histogram // search.dist_comps
	histNodes     *obs.Histogram // search.nodes_visited
	histLeaves    *obs.Histogram // search.leaves_checked
	poolIdle      *obs.Gauge
	// Per-engine routing observability: ctrStrategy counts search requests
	// routed to each access path (planner.ha / planner.mih / planner.scan),
	// histEngine records per-query latency by engine (engine.<name>_ns).
	ctrStrategy [3]*obs.Counter
	histEngine  [3]*obs.Histogram
	// Load-shedding observability: total sheds plus a per-priority-class
	// split (shed.normal / shed.interactive / shed.batch).
	cntShed     *obs.Counter
	cntShedPrio [3]*obs.Counter

	mu      sync.Mutex
	ln      net.Listener
	debugLn net.Listener
	conns   map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup
}

// searcherSet is one admission ticket's bundle of per-engine searchers. ha
// is always present on an immutable server; mih only when Options.Engine
// enabled the multi-engine set. Mutable servers pool nil sets (the shard
// brings its own per-segment searchers).
type searcherSet struct {
	ha  *core.Searcher
	mih *core.Searcher
}

// New builds a server over a decoded snapshot — the compiled
// *core.FrozenIndex, or a pointer *core.DynamicIndex. The index must not be
// mutated once serving starts — the searcher pool shares it read-only.
func New(meta wire.SnapshotMeta, idx core.Index, opts Options) (*Server, error) {
	if idx.Length() != meta.Length {
		return nil, fmt.Errorf("server: index is %d-bit, snapshot header says %d", idx.Length(), meta.Length)
	}
	if dyn, ok := idx.(*core.DynamicIndex); ok {
		dyn.Flush() // settle any unflushed inserts before the read-only phase
	}
	s := newServer(meta, opts)
	s.idx = idx
	// index.mapped_bytes vs index.heap_bytes is the mmap dividend at a
	// glance: a zero-copy shard carries its whole arena in the first gauge.
	mapped, heap := 0, 0
	if fz, ok := idx.(*core.FrozenIndex); ok {
		mapped, heap = fz.MappedBytes(), fz.HeapBytes()
	} else if sized, ok := idx.(interface{ SizeBytes() int }); ok {
		heap = sized.SizeBytes()
	}
	switch s.opts.Engine {
	case "ha":
		// Single-engine serving; no planner, no auxiliary structures.
	case "auto", "mih", "scan":
		codes, ids, err := indexTuples(idx)
		if err != nil {
			return nil, fmt.Errorf("server: -engine %s: %w", s.opts.Engine, err)
		}
		m, err := mih.Build(codes, ids, mih.Options{})
		if err != nil {
			return nil, fmt.Errorf("server: building MIH engine: %w", err)
		}
		pl, err := planner.New(planner.Engines{
			HA:    idx,
			MIH:   core.AsIndex(m),
			Codes: codes,
			IDs:   ids,
		}, planner.Options{Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("server: building planner: %w", err)
		}
		s.pl = pl
		// The tuple copies hold one Code header per tuple (their words
		// alias the index) plus the id slice; MIH owns its own arenas.
		heap += m.SizeBytes() + cap(codes)*int(unsafe.Sizeof(bitvec.Code{})) + cap(ids)*int(unsafe.Sizeof(int(0)))
		switch s.opts.Engine {
		case "auto":
			s.planned = true
		case "mih":
			s.fixedStrategy = planner.UseMIH
		case "scan":
			s.fixedStrategy = planner.UseScan
		}
	default:
		return nil, fmt.Errorf("server: unknown engine %q (want ha, auto, mih, or scan)", s.opts.Engine)
	}
	s.reg.Gauge("index.mapped_bytes").Set(int64(mapped))
	s.reg.Gauge("index.heap_bytes").Set(int64(heap))
	for i := 0; i < cap(s.pool); i++ {
		set := &searcherSet{ha: core.NewSearcher(idx)}
		if s.pl != nil {
			set.mih = core.NewSearcher(s.pl.Engines().MIH)
		}
		s.pool <- set
	}
	return s, nil
}

// indexTuples extracts the (id, code) pairs backing an index so the server
// can build the auxiliary engines. Both servable index forms enumerate
// their tuples.
func indexTuples(idx core.Index) ([]bitvec.Code, []int, error) {
	src, ok := idx.(interface {
		Tuples(func(id int, code bitvec.Code))
	})
	if !ok {
		return nil, nil, fmt.Errorf("index type %T cannot enumerate tuples", idx)
	}
	codes := make([]bitvec.Code, 0, idx.Len())
	ids := make([]int, 0, idx.Len())
	src.Tuples(func(id int, code bitvec.Code) {
		ids = append(ids, id)
		codes = append(codes, code)
	})
	return codes, ids, nil
}

// NewMutable builds a server over a mutable LSM shard. The caller keeps
// ownership of the shard's lifecycle up to Close, which waits out the
// shard's background seals and compactions.
func NewMutable(meta wire.SnapshotMeta, sh *lsm.Shard, opts Options) (*Server, error) {
	if sh.Length() != meta.Length {
		return nil, fmt.Errorf("server: shard is %d-bit, snapshot header says %d", sh.Length(), meta.Length)
	}
	if opts.Engine != "" && opts.Engine != "ha" {
		return nil, fmt.Errorf("server: mutable shards serve the LSM engine only (engine %q unsupported)", opts.Engine)
	}
	s := newServer(meta, opts)
	s.shard = sh
	// The shard brings its own per-segment searcher pools; the channel still
	// bounds admission, with nil tickets.
	for i := 0; i < cap(s.pool); i++ {
		s.pool <- nil
	}
	return s, nil
}

func newServer(meta wire.SnapshotMeta, opts Options) *Server {
	if opts.Searchers <= 0 {
		opts.Searchers = runtime.GOMAXPROCS(0)
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 30 * time.Second
	}
	if opts.WriteTimeout == 0 {
		opts.WriteTimeout = 30 * time.Second
	}
	if opts.Obs == nil {
		opts.Obs = obs.NewRegistry()
	}
	if opts.TraceCapacity <= 0 {
		opts.TraceCapacity = 64
	}
	if opts.Engine == "" {
		opts.Engine = "ha"
	}
	s := &Server{
		meta:   meta,
		opts:   opts,
		pool:   make(chan *searcherSet, opts.Searchers),
		conns:  make(map[net.Conn]struct{}),
		reg:    opts.Obs,
		tracer: obs.NewTracer(opts.TraceCapacity),
	}
	s.reqCount = s.reg.Counter("requests")
	s.errCount = s.reg.Counter("errors")
	s.faultCount = s.reg.Counter("faults_injected")
	s.histSearch = s.reg.Histogram("req.search_ns")
	s.histTopK = s.reg.Histogram("req.topk_ns")
	s.histStats = s.reg.Histogram("req.stats_ns")
	s.histMutate = s.reg.Histogram("req.mutate_ns")
	s.histAdmission = s.reg.Histogram("admission_wait_ns")
	s.histDist = s.reg.Histogram("search.dist_comps")
	s.histNodes = s.reg.Histogram("search.nodes_visited")
	s.histLeaves = s.reg.Histogram("search.leaves_checked")
	s.poolIdle = s.reg.Gauge("pool.idle")
	s.poolIdle.Set(int64(opts.Searchers))
	for st, name := range [3]string{"ha", "mih", "scan"} {
		s.ctrStrategy[st] = s.reg.Counter("planner." + name)
		s.histEngine[st] = s.reg.Histogram("engine." + name + "_ns")
	}
	s.cntShed = s.reg.Counter("sheds")
	for p, name := range [3]string{"normal", "interactive", "batch"} {
		s.cntShedPrio[p] = s.reg.Counter("shed." + name)
	}
	if opts.CacheEntries > 0 {
		s.cache = qcache.New(qcache.Options{MaxEntries: opts.CacheEntries, Obs: s.reg})
	}
	return s
}

// cacheVersion is the epoch field of this server's cache keys: the shard's
// mutation version in mutable mode, the constant 0 over an immutable index
// (which never changes, so one key space lives forever). It must be read
// BEFORE the search runs: a mutation racing the search may then be included
// in an entry keyed at the older version, but that entry is only readable
// by lookups that also raced the mutation — exactly the reads an uncached
// server could have answered either way. Once the mutation is acknowledged
// every later lookup reads the bumped version and misses.
func (s *Server) cacheVersion() uint64 {
	if s.shard != nil {
		return s.shard.Version()
	}
	return 0
}

// Obs returns the server's metric registry (counters, gauges, latency and
// per-search cost histograms).
func (s *Server) Obs() *obs.Registry { return s.reg }

// Tracer returns the ring of recent request traces.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// LoadSnapshotFile is New over a snapshot file on disk: the frozen index is
// mmap'd zero-copy when Options.Mmap is set, else decoded onto the heap.
func LoadSnapshotFile(path string, opts Options) (*Server, error) {
	if opts.Mmap {
		meta, idx, err := wire.MapSnapshotFile(path)
		if err != nil {
			return nil, fmt.Errorf("server: mapping snapshot %s: %w", path, err)
		}
		srv, err := New(meta, idx, opts)
		if err != nil {
			idx.Close()
			return nil, err
		}
		srv.ownsIdx = true
		return srv, nil
	}
	meta, idx, err := wire.ReadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("server: loading snapshot %s: %w", path, err)
	}
	return New(meta, idx, opts)
}

// Meta returns the shard's snapshot header.
func (s *Server) Meta() wire.SnapshotMeta { return s.meta }

// Start listens on addr (e.g. "127.0.0.1:0") and serves in the background.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
	return nil
}

// Addr returns the bound listen address (after Start).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(conn)
		}()
	}
}

// Close stops the listeners (serving and debug), closes all connections,
// and waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln, dln := s.ln, s.debugLn
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if dln != nil {
		dln.Close()
	}
	s.wg.Wait()
	if s.shard != nil {
		s.shard.Close() // wait out background seals and compactions
	}
	if s.ownsIdx {
		if fz, ok := s.idx.(*core.FrozenIndex); ok {
			return fz.Close() // release the mmap'd arena
		}
	}
	return nil
}

// Stats returns a snapshot of the serving counters. The latency percentile
// fields summarize the per-request search and top-k histograms; the warmth
// fields expose the result cache's occupancy and hit counters
// plus the admission queue's state, so a router can see which replica is
// hot and which is drowning.
func (s *Server) Stats() Stats {
	lat := s.histSearch.Snapshot()
	lat.Merge(s.histTopK.Snapshot())
	var cacheEntries, cacheHits, cacheMisses int64
	if s.cache != nil {
		cacheEntries, cacheHits, cacheMisses = s.cache.Warmth()
	}
	return Stats{
		Requests:             s.requests.Load(),
		Queries:              s.queries.Load(),
		TopKQueries:          s.topkQueries.Load(),
		IDsReturned:          s.idsReturned.Load(),
		Errors:               s.errors.Load(),
		FaultsInjected:       s.faultsInjected.Load(),
		DistanceComputations: s.distComps.Load(),
		NodesVisited:         s.nodesVisited.Load(),
		LeavesChecked:        s.leavesChecked.Load(),
		LatencyP50Ns:         lat.P50(),
		LatencyP95Ns:         lat.P95(),
		LatencyP99Ns:         lat.P99(),
		LatencyMaxNs:         lat.Max,
		CacheEntries:         cacheEntries,
		CacheHits:            cacheHits,
		CacheMisses:          cacheMisses,
		AdmissionP50Ns:       s.histAdmission.Snapshot().P50(),
		PoolIdle:             s.poolIdle.Value(),
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	// Deadlines are the reap mechanism for dead and stalled clients: the
	// read deadline is re-armed before every frame (bounding both idle
	// sessions and half-written requests), the write deadline before every
	// response (bounding clients that stopped reading). Without them a
	// half-open connection pins this goroutine forever.
	readFrame := func() (wire.MsgType, []byte, error) {
		if s.opts.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		}
		return wire.ReadFrame(br)
	}
	writeMsg := func(t wire.MsgType, payload []byte) bool {
		if s.opts.WriteTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.opts.WriteTimeout))
		}
		if err := wire.WriteFrame(bw, t, payload); err != nil {
			return false
		}
		return bw.Flush() == nil
	}
	writeErr := func(format string, args ...interface{}) bool {
		s.errors.Add(1)
		s.errCount.Inc()
		return writeMsg(wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf(format, args...)}.Append(nil))
	}

	// The session must open with a version handshake.
	t, payload, err := readFrame()
	if err != nil {
		return
	}
	if t != wire.MsgHello {
		writeErr("expected hello, got %s", t)
		return
	}
	hello, err := wire.ParseHello(payload)
	if err != nil {
		writeErr("bad hello: %v", err)
		return
	}
	// One protocol version: a client built from any other is refused
	// loudly rather than sent frames it would misparse.
	if hello.Version != wire.Version {
		writeErr("client speaks protocol version %d, server speaks %d", hello.Version, wire.Version)
		return
	}
	tuples := 0
	if s.shard != nil {
		tuples = s.shard.Len()
	} else {
		tuples = s.idx.Len()
	}
	ok := wire.HelloOK{
		Version: wire.Version,
		Length:  s.meta.Length,
		Part:    s.meta.Part,
		Parts:   s.meta.Parts,
		Tuples:  tuples,
		Pivots:  s.meta.Pivots,
	}
	if !writeMsg(wire.MsgHelloOK, ok.Append(nil)) {
		return
	}

	for {
		t, payload, err := readFrame()
		if err != nil {
			return // client went away, stalled past the deadline, or sent garbage framing
		}
		switch t {
		case wire.MsgSearch, wire.MsgTopK:
			s.requests.Add(1)
			s.reqCount.Inc()
			t0 := time.Now()
			tr := obs.NewTrace(t.String())
			seq := s.reqSeq.Add(1) - 1
			f := s.opts.Faults.fault(seq)
			if f.Delay > 0 {
				s.faultsInjected.Add(1)
				s.faultCount.Inc()
				sp := tr.Start("fault.delay", 0)
				time.Sleep(f.Delay)
				tr.End(sp)
			}
			if f.Drop {
				s.faultsInjected.Add(1)
				s.faultCount.Inc()
				return
			}
			if f.Fail {
				s.faultsInjected.Add(1)
				s.faultCount.Inc()
				if !writeErr("injected failure of request %d", seq) {
					return
				}
				continue
			}
			if f.Shed {
				// A deterministic shed for smoke tests.
				s.faultsInjected.Add(1)
				s.faultCount.Inc()
				respType, resp := s.shedResp(wire.PriorityNormal, 0)
				if !writeMsg(respType, resp) {
					return
				}
				continue
			}
			var respType wire.MsgType
			var resp []byte
			if t == wire.MsgSearch {
				respType, resp = s.answerSearch(payload, tr)
			} else {
				respType, resp = s.answerTopK(payload, tr)
			}
			if respType == wire.MsgError {
				s.errors.Add(1)
				s.errCount.Inc()
			}
			sp := tr.Start("write", 0)
			ok := writeMsg(respType, resp)
			tr.End(sp)
			if t == wire.MsgSearch {
				s.histSearch.RecordSince(t0)
			} else {
				s.histTopK.RecordSince(t0)
			}
			s.tracer.Add(tr)
			if !ok {
				return
			}
		case wire.MsgStats:
			t0 := time.Now()
			ok := writeMsg(wire.MsgStatsOK, s.Stats().Append(nil))
			s.histStats.RecordSince(t0)
			if !ok {
				return
			}
		case wire.MsgInsert, wire.MsgDelete, wire.MsgSeal:
			if s.shard == nil {
				if !writeErr("shard is immutable: %s refused", t) {
					return
				}
				continue
			}
			s.requests.Add(1)
			s.reqCount.Inc()
			t0 := time.Now()
			var respType wire.MsgType
			var resp []byte
			switch t {
			case wire.MsgInsert:
				respType, resp = s.answerInsert(payload)
			case wire.MsgDelete:
				respType, resp = s.answerDelete(payload)
			default:
				respType, resp = s.answerSeal(payload)
			}
			if respType == wire.MsgError {
				s.errors.Add(1)
				s.errCount.Inc()
			}
			ok := writeMsg(respType, resp)
			s.histMutate.RecordSince(t0)
			if !ok {
				return
			}
		default:
			if !writeErr("unexpected %s frame", t) {
				return
			}
		}
	}
}

// pickStrategy resolves the access path for one search request: a forced
// wire hint wins (if the engine is enabled on this shard), else the planner
// decides in "auto" mode, else the configured fixed mode applies.
func (s *Server) pickStrategy(req wire.SearchReq) (planner.Strategy, error) {
	if req.Engine != wire.EngineAuto {
		if s.shard != nil {
			return 0, fmt.Errorf("mutable shard serves the LSM engine: hint %s refused", wire.EngineName(req.Engine))
		}
		var st planner.Strategy
		switch req.Engine {
		case wire.EngineHA:
			return planner.UseHA, nil
		case wire.EngineMIH:
			st = planner.UseMIH
		case wire.EngineScan:
			st = planner.UseScan
		default:
			return 0, fmt.Errorf("unknown engine hint %d", req.Engine)
		}
		if s.pl == nil || !s.pl.Available(st) {
			return 0, fmt.Errorf("engine %s not enabled on this shard (serving -engine %s)", st, s.opts.Engine)
		}
		return st, nil
	}
	if s.shard != nil || s.pl == nil {
		return planner.UseHA, nil
	}
	if s.planned {
		return s.pl.Plan(req.H).Strategy, nil
	}
	return s.fixedStrategy, nil
}

// shedResp counts and encodes one shed answer.
func (s *Server) shedResp(priority int, waited time.Duration) (wire.MsgType, []byte) {
	s.cntShed.Inc()
	if priority >= 0 && priority < len(s.cntShedPrio) {
		s.cntShedPrio[priority].Inc()
	}
	return wire.MsgShed, wire.ShedResp{WaitNs: waited.Nanoseconds()}.Append(nil)
}

func (s *Server) answerSearch(payload []byte, tr *obs.Trace) (wire.MsgType, []byte) {
	req, err := wire.ParseSearchReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	if req.H < 0 || req.H > s.meta.Length {
		return wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf("threshold %d out of range", req.H)}.Append(nil)
	}
	st, err := s.pickStrategy(req)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	s.ctrStrategy[st].Inc()
	s.queries.Add(int64(len(req.Queries)))
	resp := wire.SearchResp{IDs: make([][]int, len(req.Queries))}
	returned := int64(0)

	// Cache phase, ahead of batched admission: answer every query the cache
	// can and only admit the misses. A fully cached request never consumes
	// an admission ticket — the overload-survival property the load
	// experiment measures. The mutation version is read before any search
	// runs; see cacheVersion for why that ordering is the safe one.
	//
	// The key carries the request's engine HINT, not the strategy the
	// planner resolved it to: every engine computes the same answer set,
	// and the measured planner is free to route borderline thresholds
	// differently from one request to the next — keying on its choice
	// would fragment identical answers across strategies and halve the
	// effective hit rate for auto traffic.
	miss := make([]int, 0, len(req.Queries))
	var missKeys [][]byte
	if s.cache != nil {
		span := tr.Start("cache", 0)
		ver := s.cacheVersion()
		var kb []byte
		for i, q := range req.Queries {
			kb = qcache.Key{Code: q, H: req.H, Engine: int(req.Engine), Shard: -1, Epoch: ver}.Append(kb[:0])
			if ids, ok := s.cache.Get(kb); ok {
				if len(ids) > 0 {
					// Zero-copy: the shared slice is only read while encoding
					// the response below.
					resp.IDs[i] = ids
					returned += int64(len(ids))
				}
				continue
			}
			miss = append(miss, i)
			missKeys = append(missKeys, append([]byte(nil), kb...))
		}
		tr.End(span)
	} else {
		for i := range req.Queries {
			miss = append(miss, i)
		}
	}
	if len(miss) > 0 {
		set, shed, waited := s.admit(s.shedBudget(req.Priority), tr)
		if shed {
			return s.shedResp(req.Priority, waited)
		}
		s.runBatch(set, len(miss), tr, func(set *searcherSet, j int) core.SearchStats {
			i := miss[j]
			var ids []int
			var stats core.SearchStats
			t0 := time.Now()
			if s.shard != nil {
				ids = s.shard.SearchInto(req.Queries[i], req.H, &stats)
			} else {
				switch st {
				case planner.UseMIH:
					ids = set.mih.Search(req.Queries[i], req.H)
					stats = set.mih.Stats
				case planner.UseScan:
					ids = s.pl.Scan(req.Queries[i], req.H, nil, &stats)
				default:
					ids = set.ha.Search(req.Queries[i], req.H)
					stats = set.ha.Stats
				}
			}
			ns := time.Since(t0).Nanoseconds()
			s.histEngine[st].Record(ns)
			if s.pl != nil {
				// Close the loop: serving latencies refine the planner's EWMA
				// cost cells, so the model tracks the live workload.
				s.pl.Observe(st, req.H, float64(ns))
			}
			var out []int
			if len(ids) > 0 {
				out = append([]int(nil), ids...)
				sort.Ints(out)
				resp.IDs[i] = out
				atomic.AddInt64(&returned, int64(len(out)))
			}
			if s.cache != nil {
				s.cache.Put(missKeys[j], out)
			}
			return stats
		})
	}
	s.idsReturned.Add(atomic.LoadInt64(&returned))
	return wire.MsgSearchOK, resp.Append(nil)
}

func (s *Server) answerTopK(payload []byte, tr *obs.Trace) (wire.MsgType, []byte) {
	req, err := wire.ParseTopKReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	if req.K < 0 || req.K > 1<<20 {
		return wire.MsgError, wire.ErrorMsg{Msg: fmt.Sprintf("k %d out of range", req.K)}.Append(nil)
	}
	s.topkQueries.Add(int64(len(req.Queries)))
	resp := wire.TopKResp{IDs: make([][]int, len(req.Queries)), Dists: make([][]int, len(req.Queries))}
	returned := int64(0)
	if len(req.Queries) > 0 {
		// Top-k answers are not cached (the k-way merge keys on k, not H,
		// and the traffic is a sliver of select volume) but they respect
		// the same admission budget: an overloaded shard sheds them too.
		set, shed, waited := s.admit(s.shedBudget(wire.PriorityNormal), tr)
		if shed {
			return s.shedResp(wire.PriorityNormal, waited)
		}
		s.runBatch(set, len(req.Queries), tr, func(set *searcherSet, i int) core.SearchStats {
			var ids, dists []int
			var stats core.SearchStats
			if s.shard != nil {
				ids, dists = s.shard.TopKInto(req.Queries[i], req.K, &stats)
			} else {
				// Top-k always runs on the primary index: the radius-escalating
				// search has no MIH/scan analogue worth routing to.
				ids, dists = set.ha.TopK(req.Queries[i], req.K)
				stats = set.ha.Stats
			}
			resp.IDs[i], resp.Dists[i] = ids, dists
			atomic.AddInt64(&returned, int64(len(ids)))
			return stats
		})
	}
	s.idsReturned.Add(atomic.LoadInt64(&returned))
	return wire.MsgTopKOK, resp.Append(nil)
}

// answerInsert applies a batch of upserts to the mutable shard.
func (s *Server) answerInsert(payload []byte) (wire.MsgType, []byte) {
	req, err := wire.ParseInsertReq(payload, s.meta.Length)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	replaced := 0
	for i, id := range req.IDs {
		if s.shard.Insert(id, req.Codes[i]) {
			replaced++
		}
	}
	st := s.shard.Stats()
	resp := wire.InsertResp{
		Upserts:      len(req.IDs),
		Replaced:     replaced,
		MemtableSize: st.MemtableSize,
		Epoch:        st.Epoch,
	}
	return wire.MsgInsertOK, resp.Append(nil)
}

// answerDelete applies a batch of deletes; ids not live on this shard are
// counted out, not errors — the router broadcasts deletes to every shard.
func (s *Server) answerDelete(payload []byte) (wire.MsgType, []byte) {
	req, err := wire.ParseDeleteReq(payload)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	deleted := 0
	for _, id := range req.IDs {
		if s.shard.Delete(id) {
			deleted++
		}
	}
	st := s.shard.Stats()
	return wire.MsgDeleteOK, wire.DeleteResp{Deleted: deleted, Epoch: st.Epoch}.Append(nil)
}

// answerSeal runs a synchronous seal (and optional compaction), so the OK
// frame doubles as a structural barrier for the connection.
func (s *Server) answerSeal(payload []byte) (wire.MsgType, []byte) {
	req, err := wire.ParseSealReq(payload)
	if err != nil {
		return wire.MsgError, wire.ErrorMsg{Msg: err.Error()}.Append(nil)
	}
	s.shard.Seal(req.Compact)
	st := s.shard.Stats()
	resp := wire.SealOK{
		Segments:     st.Segments,
		MemtableSize: st.MemtableSize,
		Tombstones:   st.Tombstones,
		Epoch:        st.Epoch,
	}
	return wire.MsgSealOK, resp.Append(nil)
}

// shedBudget resolves the admission-wait budget for one request: the
// configured ShedAfter scaled by the wire priority class. Zero means block
// indefinitely (shedding off).
func (s *Server) shedBudget(priority int) time.Duration {
	if s.opts.ShedAfter <= 0 {
		return 0
	}
	switch priority {
	case wire.PriorityInteractive:
		return 2 * s.opts.ShedAfter
	case wire.PriorityBatch:
		return s.opts.ShedAfter / 2
	}
	return s.opts.ShedAfter
}

// admit blocks for one admission ticket, up to budget (0 = forever). It
// reports the acquired set (nil is a valid ticket on a mutable server), a
// shed flag, and how long the request waited. The blocking wait is the
// queueing delay a saturated pool imposes; its span and histogram are where
// overload shows up first — and, past the budget, where it is shed.
func (s *Server) admit(budget time.Duration, tr *obs.Trace) (set *searcherSet, shed bool, waited time.Duration) {
	t0 := time.Now()
	adm := tr.Start("admission", 0)
	if budget <= 0 {
		set = <-s.pool
	} else {
		select {
		case set = <-s.pool:
		default:
			timer := time.NewTimer(budget)
			select {
			case set = <-s.pool:
				timer.Stop()
			case <-timer.C:
				shed = true
			}
		}
	}
	tr.End(adm)
	waited = time.Since(t0)
	s.histAdmission.Record(waited.Nanoseconds())
	return set, shed, waited
}

// runBatch executes one request's queries with batched admission: the
// caller has already blocked for one searcher through admit (the admission
// ticket — at most Options.Searchers requests make progress at once), and
// runBatch opportunistically grabs idle extras to parallelize the batch, so
// a lone large batch uses the whole pool while concurrent small requests
// are not starved. Queries are claimed off an atomic cursor, mirroring
// core.SearchBatch. run returns the index work one query did; in mutable
// mode the pooled set is a nil admission ticket and the shard supplies its
// own per-segment searchers.
func (s *Server) runBatch(first *searcherSet, n int, tr *obs.Trace, run func(set *searcherSet, i int) core.SearchStats) {
	if n == 0 {
		s.pool <- first
		return
	}
	searchers := []*searcherSet{first}
	for len(searchers) < n {
		select {
		case sr := <-s.pool:
			searchers = append(searchers, sr)
		default:
			goto acquired
		}
	}
acquired:
	s.poolIdle.Add(-int64(len(searchers)))
	runSpan := tr.Start("run", 0)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, sr := range searchers {
		wg.Add(1)
		go func(sr *searcherSet) {
			defer wg.Done()
			var agg core.SearchStats
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					break
				}
				stats := run(sr, i)
				agg.Add(stats)
				// Per-search cost distributions: how much index work one
				// query did, the core.SearchStats flow into the registry.
				s.histDist.Record(int64(stats.DistanceComputations))
				s.histNodes.Record(int64(stats.NodesVisited))
				s.histLeaves.Record(int64(stats.LeavesChecked))
			}
			s.distComps.Add(int64(agg.DistanceComputations))
			s.nodesVisited.Add(int64(agg.NodesVisited))
			s.leavesChecked.Add(int64(agg.LeavesChecked))
			s.pool <- sr
			s.poolIdle.Add(1)
		}(sr)
	}
	wg.Wait()
	tr.End(runSpan)
}
