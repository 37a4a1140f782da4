package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/obs"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// deployment is a full in-process multi-shard serving stack built from one
// dataset: per-partition snapshot files, shard servers (optionally several
// replicas per shard), and the oracle index over all codes.
type deployment struct {
	codes   []bitvec.Code
	pivots  []bitvec.Code
	oracle  *core.Searcher
	servers []*server.Server
	addrs   [][]string
}

// buildDeployment writes per-partition snapshots to disk, loads them back
// (exercising the snapshot protocol end to end), and starts the servers.
// replicaFaults[part] holds one fault plan per extra replica of that shard;
// replica 0 of shard 0 gets faults[0] etc.
func buildDeployment(t *testing.T, rng *rand.Rand, n, bits, parts int, replicas map[int][]*server.FaultPlan) *deployment {
	t.Helper()
	return buildDeploymentEngine(t, rng, n, bits, parts, replicas, "")
}

// buildDeploymentEngine is buildDeployment with the servers' Options.Engine
// set, for the multi-engine serving tests.
func buildDeploymentEngine(t *testing.T, rng *rand.Rand, n, bits, parts int, replicas map[int][]*server.FaultPlan, engine string) *deployment {
	t.Helper()
	// All codes share the base's first 8 bits, so the dataset occupies one
	// narrow Gray region: interior partitions then share long rank
	// prefixes and far-off queries are provably prunable.
	base := bitvec.Rand(rng, bits)
	codes := make([]bitvec.Code, n)
	for i := range codes {
		c := base.Clone()
		for f := 0; f < rng.Intn(10); f++ {
			c.FlipBit(8 + rng.Intn(bits-8))
		}
		codes[i] = c
	}
	sample := make([]bitvec.Code, 0, 200)
	for _, i := range rng.Perm(n)[:min(200, n)] {
		sample = append(sample, codes[i])
	}
	pivots := histo.Pivots(sample, parts)

	d := &deployment{codes: codes, pivots: pivots}
	dir := t.TempDir()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	d.oracle = core.NewSearcher(core.BuildDynamic(codes, ids, core.Options{}))

	byPart := make([][]bitvec.Code, parts)
	idsByPart := make([][]int, parts)
	for i, c := range codes {
		m := histo.PartitionID(pivots, c)
		byPart[m] = append(byPart[m], c)
		idsByPart[m] = append(idsByPart[m], i)
	}
	for m := 0; m < parts; m++ {
		meta := wire.SnapshotMeta{Part: m, Parts: parts, Length: bits, Pivots: pivots}
		idx := core.Freeze(core.BuildDynamic(byPart[m], idsByPart[m], core.Options{}))
		var buf bytes.Buffer
		if err := wire.WriteSnapshot(&buf, meta, idx); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%05d.hasn", m))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		plans := replicas[m]
		for rep := 0; rep < max(1, len(plans)); rep++ {
			var plan *server.FaultPlan
			if rep < len(plans) {
				plan = plans[rep]
			}
			s, err := server.LoadSnapshotFile(path, server.Options{Searchers: 2, Faults: plan, Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			d.servers = append(d.servers, s)
			addrs = append(addrs, s.Addr().String())
		}
		d.addrs = append(d.addrs, addrs)
	}
	return d
}

func (d *deployment) queries(rng *rand.Rand, nq, bits, flips int) []bitvec.Code {
	out := make([]bitvec.Code, nq)
	for i := range out {
		q := d.codes[rng.Intn(len(d.codes))].Clone()
		for f := 0; f < rng.Intn(flips+1); f++ {
			q.FlipBit(rng.Intn(bits))
		}
		out[i] = q
	}
	return out
}

// TestRouterMatchesOracleAcrossShards is the subsystem's acceptance test:
// results from a Router over multiple shard servers — one replica
// fault-injected to fail its first request — must be identical to a single
// in-process Searcher over all the data.
func TestRouterMatchesOracleAcrossShards(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const bits, parts, h = 32, 3, 3
	// Shard 0 has two replicas; the first fails its first search request
	// and drops the connection on its second, so the router must retry on
	// to the healthy replica.
	faulty := server.NewFaultPlan().FailRequest(0).DropRequest(1)
	d := buildDeployment(t, rng, 1200, bits, parts, map[int][]*server.FaultPlan{
		0: {faulty, nil},
	})
	// Affinity "none" pins the first shard request to replica 0, so the
	// fault plan is guaranteed to fire; rendezvous order depends on the
	// replicas' ephemeral ports.
	r, err := Dial(d.addrs, Options{MaxAttempts: 3, Backoff: time.Millisecond, Affinity: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 120, bits, h)
	got, err := r.SearchBatch(queries, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
		}
	}

	// Top-k across shards must match the oracle exactly, ties included.
	ids, dists, err := r.TopK(queries[:30], 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries[:30] {
		wantIDs, wantDists := d.oracle.TopK(q, 9)
		if !equalInts(ids[i], wantIDs) || !equalInts(dists[i], wantDists) {
			t.Fatalf("topk query %d: router (%v,%v), oracle (%v,%v)", i, ids[i], dists[i], wantIDs, wantDists)
		}
	}

	st := r.Stats()
	if st.Retries == 0 {
		t.Fatalf("fault-injected replica provoked no retries: %+v", st)
	}
	if st.QueriesPruned == 0 {
		t.Fatalf("Gray-range routing pruned nothing across %d shards: %+v", parts, st)
	}
	// The injected faults must be visible in the faulty shard's counters.
	found := false
	for _, s := range d.servers {
		if s.Stats().FaultsInjected > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no server recorded injected faults")
	}
}

// TestRouterSingleReplicaRetriesSameServer: with one replica per shard the
// retry loop must come back to the same address and succeed once the fault
// budget is spent.
func TestRouterSingleReplicaRetriesSameServer(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const bits, parts, h = 16, 2, 2
	d := buildDeployment(t, rng, 300, bits, parts, map[int][]*server.FaultPlan{
		0: {server.NewFaultPlan().FailRequest(0)},
		1: {server.NewFaultPlan().DropRequest(0)},
	})
	r, err := Dial(d.addrs, Options{MaxAttempts: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queries := d.queries(rng, 40, bits, h)
	got, err := r.SearchBatch(queries, h)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
		}
	}
}

// TestRouterHedgingAbsorbsStraggler: a delayed first replica should lose
// the race to the hedge on the second, well before the delay elapses.
func TestRouterHedgingAbsorbsStraggler(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const bits, parts, h = 16, 2, 2
	// Every early request to shard 0's primary stalls 2s.
	stall := server.NewFaultPlan()
	for req := int64(0); req < 64; req++ {
		stall.DelayRequest(req, 2*time.Second)
	}
	d := buildDeployment(t, rng, 300, bits, parts, map[int][]*server.FaultPlan{
		0: {stall, nil},
	})
	// Affinity "none" makes the stalled replica the hedge primary
	// deterministically; rendezvous might rank the healthy one first.
	r, err := Dial(d.addrs, Options{HedgeAfter: 5 * time.Millisecond, Backoff: time.Millisecond, Affinity: "none"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	queries := d.queries(rng, 20, bits, h)
	t0 := time.Now()
	got, err := r.SearchBatch(queries, h)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("hedging did not absorb the straggler: batch took %v", took)
	}
	for i, q := range queries {
		want := append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want)
		if len(want) == 0 {
			want = nil
		}
		if !equalInts(got[i], want) {
			t.Fatalf("query %d: router %v, oracle %v", i, got[i], want)
		}
	}
	st := r.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("straggler provoked no hedge wins: %+v", st)
	}
	// Every hedge win leaves a losing leg behind; the router must abort and
	// account for it rather than letting it camp on the pooled connection.
	if st.HedgeLosses == 0 {
		t.Fatalf("hedge wins recorded but no losses drained: %+v", st)
	}
}

// fetchObs pulls and decodes a debug endpoint's registry snapshot.
func fetchObs(t *testing.T, addr net.Addr) obs.RegistrySnapshot {
	t.Helper()
	resp, err := http.Get("http://" + addr.String() + "/debug/obs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.RegistrySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestObservabilityAcceptance drives the router against a fault-injected
// deployment with the servers' debug endpoints up, then checks that the
// client and server registries tell one consistent story: the client
// retried, the servers injected faults, and every search attempt the client
// issued is accounted for in the servers' request counters.
func TestObservabilityAcceptance(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	const bits, parts, h = 16, 2, 2
	// Shard 0's only replica rejects its first two requests with injected
	// failures, so the router must retry into the same server.
	d := buildDeployment(t, rng, 400, bits, parts, map[int][]*server.FaultPlan{
		0: {server.NewFaultPlan().FailRequest(0).FailRequest(1)},
	})
	var debugAddrs []net.Addr
	for _, s := range d.servers {
		a, err := s.StartDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		debugAddrs = append(debugAddrs, a)
	}
	r, err := Dial(d.addrs, Options{MaxAttempts: 4, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	queries := d.queries(rng, 60, bits, h)
	if _, err := r.SearchBatch(queries, h); err != nil {
		t.Fatal(err)
	}

	var serverRequests, serverFaults, serverSearchNs int64
	for _, a := range debugAddrs {
		snap := fetchObs(t, a)
		serverRequests += snap.Counters["requests"]
		serverFaults += snap.Counters["faults_injected"]
		serverSearchNs += snap.Histograms["req.search_ns"].Count
	}
	st := r.Stats()
	if st.Retries == 0 {
		t.Fatalf("fault plan provoked no client retries: %+v", st)
	}
	if st.BackoffWait <= 0 {
		t.Fatalf("retries recorded but no backoff wait accumulated: %+v", st)
	}
	if serverFaults == 0 {
		t.Fatal("debug endpoints report no injected faults")
	}
	// Consistency across the two registries: without hedging, every client
	// attempt (first tries plus retries) reached a server and was counted
	// there, fault-rejected or not.
	attempts := st.ShardRequests + st.Retries
	if serverRequests != attempts {
		t.Fatalf("servers counted %d requests, client issued %d attempts: %+v", serverRequests, attempts, st)
	}
	snap := r.Snapshot()
	if snap.Attempt.Count != attempts {
		t.Fatalf("client attempt histogram has %d samples, want %d", snap.Attempt.Count, attempts)
	}
	if snap.Attempt.P50 <= 0 || snap.Attempt.P95 < snap.Attempt.P50 || snap.Attempt.Max < snap.Attempt.P95 {
		t.Fatalf("attempt percentiles not monotone: %+v", snap.Attempt)
	}
	if len(snap.PerShard) != parts {
		t.Fatalf("PerShard has %d entries, want %d", len(snap.PerShard), parts)
	}
	var perShard int64
	for _, hs := range snap.PerShard {
		perShard += hs.Count
	}
	if perShard != attempts {
		t.Fatalf("per-shard histograms hold %d samples, want %d", perShard, attempts)
	}
	// The client registry mirrors the Stats counters.
	creg := r.Obs().Snapshot()
	if creg.Counters["retries"] != st.Retries || creg.Counters["shard_requests"] != st.ShardRequests {
		t.Fatalf("client registry %v disagrees with Stats %+v", creg.Counters, st)
	}
	// Only successfully answered searches land in the servers' latency
	// histograms; the fault-rejected attempts must not.
	if want := serverRequests - serverFaults; serverSearchNs != want {
		t.Fatalf("servers' search histograms hold %d samples, want %d", serverSearchNs, want)
	}
	// The SearchBatch trace made it into the tracer ring with real spans.
	slowest := r.Tracer().Slowest()
	if slowest == nil {
		t.Fatal("tracer kept no SearchBatch trace")
	}
	if spans := slowest.Spans(); len(spans) < 3 { // root + route + ≥1 shard span
		t.Fatalf("slowest trace has only %d spans: %v", len(spans), spans)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRouterEnginesMatchOracle is the multi-engine acceptance test: one
// deployment with every shard serving -engine auto, queried through the
// planner's choice and through each forced engine in turn — every routing
// must return exactly the single-index oracle's ids. The per-engine
// decision counters and latency histograms must surface at /debug/obs.
func TestRouterEnginesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	const bits, parts, h = 32, 3, 4
	d := buildDeploymentEngine(t, rng, 1500, bits, parts, nil, "auto")
	queries := d.queries(rng, 40, bits, h)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = append([]int(nil), d.oracle.Search(q, h)...)
		sort.Ints(want[i])
		if len(want[i]) == 0 {
			want[i] = nil
		}
	}
	for _, engine := range []string{"auto", "ha", "mih", "scan"} {
		r, err := Dial(d.addrs, Options{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.SearchBatch(queries, h)
		r.Close()
		if err != nil {
			t.Fatalf("engine %s: %v", engine, err)
		}
		for i := range queries {
			if !equalInts(got[i], want[i]) {
				t.Fatalf("engine %s query %d: router %v, oracle %v", engine, i, got[i], want[i])
			}
		}
	}

	// Unknown engine names are rejected at Dial.
	if _, err := Dial(d.addrs, Options{Engine: "warp"}); err == nil {
		t.Fatal("bad engine name accepted")
	}

	// Every server routed requests; the strategy counters and per-engine
	// latency histograms must be populated across the deployment.
	var routed int64
	engineSamples := map[string]int64{}
	for _, s := range d.servers {
		a, err := s.StartDebug("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		snap := fetchObs(t, a)
		for _, name := range []string{"ha", "mih", "scan"} {
			routed += snap.Counters["planner."+name]
			engineSamples[name] += snap.Histograms["engine."+name+"_ns"].Count
		}
	}
	if routed == 0 {
		t.Fatal("no planner decisions counted across the deployment")
	}
	for _, name := range []string{"ha", "mih", "scan"} {
		if engineSamples[name] == 0 {
			t.Fatalf("engine.%s_ns histograms empty across the deployment", name)
		}
	}
}
