package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/mih"
	"haindex/internal/obs"
	"haindex/internal/wire"
)

func testShard(t *testing.T, rng *rand.Rand, n, bits, parts, part int) (wire.SnapshotMeta, *core.DynamicIndex, []bitvec.Code) {
	t.Helper()
	codes := make([]bitvec.Code, n)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, bits)
	}
	pivots := histo.Pivots(codes[:n/4], parts)
	var own []bitvec.Code
	var ids []int
	for i, c := range codes {
		if histo.PartitionID(pivots, c) == part {
			own = append(own, c)
			ids = append(ids, i)
		}
	}
	meta := wire.SnapshotMeta{Part: part, Parts: parts, Length: bits, Pivots: pivots}
	return meta, core.BuildDynamic(own, ids, core.Options{}), codes
}

// client is a minimal raw-protocol client for server tests.
type client struct {
	conn net.Conn
	br   *bufio.Reader
	t    *testing.T
}

func dialTest(t *testing.T, s *Server) *client {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &client{conn: conn, br: bufio.NewReader(conn), t: t}
}

func (c *client) roundTrip(typ wire.MsgType, payload []byte) (wire.MsgType, []byte) {
	c.t.Helper()
	if err := wire.WriteFrame(c.conn, typ, payload); err != nil {
		c.t.Fatal(err)
	}
	rt, resp, err := wire.ReadFrame(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	return rt, resp
}

func (c *client) hello() wire.HelloOK {
	c.t.Helper()
	rt, resp := c.roundTrip(wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil))
	if rt != wire.MsgHelloOK {
		c.t.Fatalf("handshake answered %s", rt)
	}
	ok, err := wire.ParseHelloOK(resp)
	if err != nil {
		c.t.Fatal(err)
	}
	return ok
}

func startTestServer(t *testing.T, meta wire.SnapshotMeta, idx *core.DynamicIndex, opts Options) *Server {
	t.Helper()
	s, err := New(meta, idx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestServerSearchMatchesLocalIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	meta, idx, codes := testShard(t, rng, 800, 32, 3, 1)
	s := startTestServer(t, meta, idx, Options{Searchers: 4})
	c := dialTest(t, s)
	ok := c.hello()
	if ok.Part != 1 || ok.Parts != 3 || ok.Length != 32 || ok.Tuples != idx.Len() || len(ok.Pivots) != 2 {
		t.Fatalf("hello: %+v", ok)
	}

	queries := make([]bitvec.Code, 50)
	for i := range queries {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		queries[i] = q
	}
	rt, resp := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 3, Queries: queries}.Append(nil))
	if rt != wire.MsgSearchOK {
		t.Fatalf("search answered %s", rt)
	}
	parsed, err := wire.ParseSearchResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	sr := core.NewSearcher(idx)
	for i, q := range queries {
		want := append([]int(nil), sr.Search(q, 3)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		got := parsed.IDs[i]
		if len(got) != len(want) {
			t.Fatalf("query %d: %d ids, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("query %d id %d: %d vs %d", i, j, got[j], want[j])
			}
		}
	}

	// Top-k must match the local searcher exactly, including tie order.
	rt, resp = c.roundTrip(wire.MsgTopK, wire.TopKReq{K: 7, Queries: queries[:10]}.Append(nil))
	if rt != wire.MsgTopKOK {
		t.Fatalf("topk answered %s", rt)
	}
	tk, err := wire.ParseTopKResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:10] {
		ids, dists := sr.TopK(q, 7)
		if len(tk.IDs[i]) != len(ids) {
			t.Fatalf("topk query %d: %d vs %d results", i, len(tk.IDs[i]), len(ids))
		}
		for j := range ids {
			if tk.IDs[i][j] != ids[j] || tk.Dists[i][j] != dists[j] {
				t.Fatalf("topk query %d pos %d mismatch", i, j)
			}
		}
	}

	// Stats reflect the work.
	rt, resp = c.roundTrip(wire.MsgStats, nil)
	if rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	st, err := wire.ParseStatsResp(resp)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.Queries != 50 || st.TopKQueries != 10 || st.DistanceComputations == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestServerRejectsVersionMismatch: a client one version behind or ahead is
// refused with an error frame naming both versions — there is no
// negotiation.
func TestServerRejectsVersionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{})
	for _, v := range []int{wire.Version - 1, wire.Version + 1} {
		c := dialTest(t, s)
		rt, resp := c.roundTrip(wire.MsgHello, wire.Hello{Version: v}.Append(nil))
		if rt != wire.MsgError {
			t.Fatalf("version %d answered %s", v, rt)
		}
		em, err := wire.ParseErrorMsg(resp)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{fmt.Sprintf("version %d", v), fmt.Sprintf("speaks %d", wire.Version)} {
			if !strings.Contains(em.Msg, want) {
				t.Fatalf("version %d: error %q does not mention %q", v, em.Msg, want)
			}
		}
	}
}

func TestServerRequiresHelloFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{})
	c := dialTest(t, s)
	rt, _ := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 1}.Append(nil))
	if rt != wire.MsgError {
		t.Fatalf("search before hello answered %s", rt)
	}
}

func TestServerFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	meta, idx, codes := testShard(t, rng, 200, 16, 2, 0)
	faults := NewFaultPlan().FailRequest(0).DropRequest(1)
	s := startTestServer(t, meta, idx, Options{Faults: faults})

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:3]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgError {
		t.Fatalf("request 0 not failed: %s", rt)
	}
	// Request 1 drops the connection mid-request.
	if err := wire.WriteFrame(c.conn, wire.MsgSearch, req); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wire.ReadFrame(c.br); err == nil {
		t.Fatal("request 1 not dropped")
	}
	// A fresh connection serves request 2 normally.
	c2 := dialTest(t, s)
	c2.hello()
	if rt, _ := c2.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
		t.Fatalf("request 2 answered %s", rt)
	}
	if got := s.Stats().FaultsInjected; got != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", got)
	}
}

// TestServerConcurrentClients hammers one server from many goroutines; run
// under -race this exercises the searcher pool and stats counters.
func TestServerConcurrentClients(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 3})
	oracle := core.NewSearcher(idx)
	type qa struct {
		q    bitvec.Code
		want []int
	}
	cases := make([]qa, 40)
	for i := range cases {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		want := append([]int(nil), oracle.Search(q, 3)...)
		sort.Ints(want)
		cases[i] = qa{q: q, want: want}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", s.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			if err := wire.WriteFrame(conn, wire.MsgHello, wire.Hello{Version: wire.Version}.Append(nil)); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := wire.ReadFrame(br); err != nil {
				t.Error(err)
				return
			}
			for rep := 0; rep < 10; rep++ {
				c := cases[(w*10+rep)%len(cases)]
				if err := wire.WriteFrame(conn, wire.MsgSearch, wire.SearchReq{H: 3, Queries: []bitvec.Code{c.q}}.Append(nil)); err != nil {
					t.Error(err)
					return
				}
				rt, resp, err := wire.ReadFrame(br)
				if err != nil || rt != wire.MsgSearchOK {
					t.Errorf("worker %d: %v %v", w, rt, err)
					return
				}
				parsed, err := wire.ParseSearchResp(resp)
				if err != nil {
					t.Error(err)
					return
				}
				got := parsed.IDs[0]
				if len(got) != len(c.want) {
					t.Errorf("worker %d rep %d: %d ids, want %d", w, rep, len(got), len(c.want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestLoadSnapshotFile(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	meta, idx, _ := testShard(t, rng, 300, 32, 2, 1)
	var buf bytes.Buffer
	if err := wire.WriteSnapshot(&buf, meta, core.Freeze(idx)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.hasn")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSnapshotFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta().Part != 1 || s.idx.Len() != idx.Len() {
		t.Fatalf("loaded meta %+v len %d", s.Meta(), s.idx.Len())
	}
	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Fatal("missing snapshot accepted")
	}
}

// TestServerReapsDeadClient is the deadline bugfix's regression test: a
// client that goes silent (or half-writes a frame) must be reaped by the
// idle deadline instead of pinning its handler goroutine forever.
func TestServerReapsDeadClient(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	meta, idx, _ := testShard(t, rng, 100, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{IdleTimeout: 100 * time.Millisecond})

	// Connection 1: handshakes, then goes silent mid-session.
	c := dialTest(t, s)
	c.hello()
	// Connection 2: half-writes a frame header and stalls.
	half, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { half.Close() })
	if _, err := half.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}

	// Both connections must be closed by the server: reads unblock with an
	// error long before any request was answered.
	deadline := time.Now().Add(5 * time.Second)
	for _, conn := range []net.Conn{c.conn, half} {
		conn.SetReadDeadline(deadline)
		if _, err := conn.Read(make([]byte, 1)); err == nil {
			t.Fatal("dead connection still served")
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatal("server never reaped the dead connection")
		}
	}
	// The handler bookkeeping must drain too — no goroutine pinned.
	for start := time.Now(); ; {
		s.mu.Lock()
		n := len(s.conns)
		s.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d connections still tracked after reap", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A live client arriving afterwards is served normally.
	c2 := dialTest(t, s)
	c2.hello()
}

// TestServerDebugEndpoint exercises the observability surface end to end:
// after a few requests the debug endpoint must serve a registry snapshot
// with non-empty latency histograms and matching counters, and a trace dump.
func TestServerDebugEndpoint(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	meta, idx, codes := testShard(t, rng, 300, 16, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 2})
	dbgAddr, err := s.StartDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.StartDebug("127.0.0.1:0"); err == nil {
		t.Fatal("second debug endpoint accepted")
	}

	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Queries: codes[:5]}.Append(nil)
	for i := 0; i < 4; i++ {
		if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
			t.Fatalf("search answered %s", rt)
		}
	}

	resp, err := http.Get("http://" + dbgAddr.String() + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["requests"] != 4 {
		t.Fatalf("debug snapshot requests = %d, want 4", snap.Counters["requests"])
	}
	lat := snap.Histograms["req.search_ns"]
	if lat.Count != 4 || lat.P50 <= 0 || lat.Max < lat.P50 {
		t.Fatalf("latency histogram: %+v", lat)
	}
	if snap.Histograms["search.dist_comps"].Count == 0 {
		t.Fatal("per-search cost histograms empty")
	}
	// Wire-level stats carry the same percentiles (the v2 field).
	rt, body := c.roundTrip(wire.MsgStats, nil)
	if rt != wire.MsgStatsOK {
		t.Fatalf("stats answered %s", rt)
	}
	st, err := wire.ParseStatsResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.LatencyP50Ns != lat.P50 || st.LatencyMaxNs < st.LatencyP50Ns {
		t.Fatalf("wire stats percentiles %+v vs debug %+v", st, lat)
	}

	tresp, err := http.Get("http://" + dbgAddr.String() + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var traces struct {
		Total   int64           `json:"total"`
		Slowest json.RawMessage `json:"slowest"`
		Recent  json.RawMessage `json:"recent"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if traces.Total != 4 || string(traces.Slowest) == "null" {
		t.Fatalf("trace dump: total=%d slowest=%s", traces.Total, traces.Slowest)
	}
}

// TestServerEngineRouting starts an -engine auto server and checks that
// every access path — the planner's choice and all three forced hints —
// returns exactly the local oracle's answer, and that the routing shows up
// in the per-engine counters and latency histograms.
func TestServerEngineRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meta, idx, codes := testShard(t, rng, 600, 32, 2, 0)
	s := startTestServer(t, meta, idx, Options{Searchers: 3, Engine: "auto"})
	c := dialTest(t, s)
	c.hello()

	queries := make([]bitvec.Code, 20)
	for i := range queries {
		q := codes[rng.Intn(len(codes))].Clone()
		q.FlipBit(rng.Intn(32))
		queries[i] = q
	}
	oracle := core.NewSearcher(idx)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = append([]int(nil), oracle.Search(q, 4)...)
		sort.Ints(want[i])
	}
	check := func(engine int) {
		t.Helper()
		req := wire.SearchReq{H: 4, Engine: engine, Queries: queries}.Append(nil)
		rt, resp := c.roundTrip(wire.MsgSearch, req)
		if rt != wire.MsgSearchOK {
			t.Fatalf("engine %s answered %s", wire.EngineName(engine), rt)
		}
		parsed, err := wire.ParseSearchResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range queries {
			got := parsed.IDs[i]
			if len(got) != len(want[i]) {
				t.Fatalf("engine %s query %d: %d ids, want %d", wire.EngineName(engine), i, len(got), len(want[i]))
			}
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("engine %s query %d id %d: %d vs %d", wire.EngineName(engine), i, j, got[j], want[i][j])
				}
			}
		}
	}
	for _, engine := range []int{wire.EngineAuto, wire.EngineHA, wire.EngineMIH, wire.EngineScan} {
		check(engine)
	}

	snap := s.Obs().Snapshot()
	var routed int64
	for _, name := range []string{"planner.ha", "planner.mih", "planner.scan"} {
		routed += snap.Counters[name]
	}
	if routed != 4 {
		t.Fatalf("strategy counters sum to %d, want 4 (one per request)", routed)
	}
	// The three forced requests guarantee at least one sample per engine.
	for _, name := range []string{"engine.ha_ns", "engine.mih_ns", "engine.scan_ns"} {
		if snap.Histograms[name].Count == 0 {
			t.Fatalf("histogram %s empty", name)
		}
	}
}

// TestServerFixedEngineModes pins -engine mih and -engine scan servers to
// their engines and checks results still match the HA oracle.
func TestServerFixedEngineModes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	meta, idx, codes := testShard(t, rng, 400, 32, 2, 1)
	oracle := core.NewSearcher(idx)
	q := codes[rng.Intn(len(codes))].Clone()
	q.FlipBit(3)
	want := append([]int(nil), oracle.Search(q, 5)...)
	sort.Ints(want)
	for _, mode := range []string{"mih", "scan"} {
		s := startTestServer(t, meta, idx, Options{Engine: mode})
		c := dialTest(t, s)
		c.hello()
		rt, resp := c.roundTrip(wire.MsgSearch, wire.SearchReq{H: 5, Queries: []bitvec.Code{q}}.Append(nil))
		if rt != wire.MsgSearchOK {
			t.Fatalf("mode %s answered %s", mode, rt)
		}
		parsed, err := wire.ParseSearchResp(resp)
		if err != nil {
			t.Fatal(err)
		}
		got := parsed.IDs[0]
		if len(got) != len(want) {
			t.Fatalf("mode %s: %d ids, want %d", mode, len(got), len(want))
		}
		snap := s.Obs().Snapshot()
		if snap.Counters["planner."+mode] != 1 {
			t.Fatalf("mode %s: counter planner.%s = %d, want 1", mode, mode, snap.Counters["planner."+mode])
		}
	}
}

// TestServerEngineValidation covers the refusal paths: hints for engines
// the server did not enable, hints on mutable shards, and bad Engine
// options at construction.
func TestServerEngineValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	meta, idx, codes := testShard(t, rng, 200, 16, 2, 0)

	// Unknown Options.Engine is a construction error.
	if _, err := New(meta, idx, Options{Engine: "warp"}); err == nil {
		t.Fatal("bad engine option accepted")
	}

	// A plain "ha" server refuses mih/scan hints (engines not built).
	s := startTestServer(t, meta, idx, Options{})
	c := dialTest(t, s)
	c.hello()
	req := wire.SearchReq{H: 2, Engine: wire.EngineMIH, Queries: codes[:1]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgError {
		t.Fatalf("mih hint on ha-only server answered %s", rt)
	}
	// An explicit ha hint is always honored.
	req = wire.SearchReq{H: 2, Engine: wire.EngineHA, Queries: codes[:1]}.Append(nil)
	if rt, _ := c.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
		t.Fatalf("ha hint answered %s", rt)
	}

	// Mutable servers only accept Engine "ha" and refuse all hints.
	sh := lsm.New(16, lsm.Options{})
	if _, err := NewMutable(meta, sh, Options{Engine: "auto"}); err == nil {
		t.Fatal("mutable server accepted -engine auto")
	}
	ms, err := NewMutable(meta, sh, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ms.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ms.Close() })
	mc := dialTest(t, ms)
	mc.hello()
	req = wire.SearchReq{H: 2, Engine: wire.EngineHA, Queries: codes[:1]}.Append(nil)
	if rt, _ := mc.roundTrip(wire.MsgSearch, req); rt != wire.MsgError {
		t.Fatalf("engine hint on mutable shard answered %s", rt)
	}
	req = wire.SearchReq{H: 2, Queries: codes[:1]}.Append(nil)
	if rt, _ := mc.roundTrip(wire.MsgSearch, req); rt != wire.MsgSearchOK {
		t.Fatalf("hintless search on mutable shard answered %s", rt)
	}
}

// writeSnapshotFile writes a frozen index as a snapshot file under dir.
func writeSnapshotFile(t *testing.T, dir string, meta wire.SnapshotMeta, frozen *core.FrozenIndex) string {
	t.Helper()
	path := filepath.Join(dir, "shard.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteSnapshot(f, meta, frozen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSnapshotFileMmap: a snapshot served with Options.Mmap aliases its
// arena out of the file (mapped_bytes > 0, heap_bytes == 0), answers
// exactly like the source index, and releases the mapping on Close; without
// the option the same file is decoded onto the heap.
func TestLoadSnapshotFileMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	meta, idx, codes := testShard(t, rng, 400, 32, 2, 1)
	frozen := core.Freeze(idx)
	path := writeSnapshotFile(t, t.TempDir(), meta, frozen)

	s, err := LoadSnapshotFile(path, Options{Mmap: true})
	if err != nil {
		t.Fatal(err)
	}
	g := s.Obs().Snapshot().Gauges
	fz, isFrozen := s.idx.(*core.FrozenIndex)
	if !isFrozen {
		t.Fatalf("mmap load produced %T", s.idx)
	}
	if fz.MappedBytes() > 0 { // zero-copy path available on this platform
		if g["index.mapped_bytes"] == 0 || g["index.heap_bytes"] != 0 {
			t.Fatalf("gauges mapped=%d heap=%d on an mmap'd shard", g["index.mapped_bytes"], g["index.heap_bytes"])
		}
	} else if g["index.heap_bytes"] == 0 {
		t.Fatalf("eager fallback shard reports zero heap bytes")
	}
	want := core.NewSearcher(frozen)
	got := core.NewSearcher(s.idx)
	for _, q := range codes[:30] {
		w := append([]int(nil), want.Search(q, 3)...)
		if g := got.Search(q, 3); len(g) != len(w) {
			t.Fatalf("mmap-served index answers %d ids, want %d", len(g), len(w))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fz.MappedBytes() != 0 {
		t.Fatal("Close did not release the mapping")
	}

	s2, err := LoadSnapshotFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	g2 := s2.Obs().Snapshot().Gauges
	if g2["index.mapped_bytes"] != 0 || g2["index.heap_bytes"] == 0 {
		t.Fatalf("eager load gauges mapped=%d heap=%d", g2["index.mapped_bytes"], g2["index.heap_bytes"])
	}
}

// TestIndexHeapGaugeAutoMode: in auto mode over an mmap'd snapshot the arena
// costs no heap, but the MIH engine and the scan's tuple copies do, and
// index.heap_bytes must count them.
func TestIndexHeapGaugeAutoMode(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	meta, idx, _ := testShard(t, rng, 400, 32, 2, 1)
	path := writeSnapshotFile(t, t.TempDir(), meta, core.Freeze(idx))
	s, err := LoadSnapshotFile(path, Options{Mmap: true, Engine: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	heap := s.Obs().Gauge("index.heap_bytes").Value()
	m := s.pl.Engines().MIH.Engine().(*mih.Index)
	if heap == 0 || heap < int64(m.SizeBytes()) {
		t.Fatalf("index.heap_bytes = %d, MIH alone holds %d", heap, m.SizeBytes())
	}
}
