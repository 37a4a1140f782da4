package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/client"
	"haindex/internal/core"
	"haindex/internal/histo"
	"haindex/internal/mih"
	"haindex/internal/obs"
	"haindex/internal/planner"
	"haindex/internal/qcache"
	"haindex/internal/wire"
)

// The traced run: tolerances, sampling and replay sizes.
const (
	// setupReconTol bounds |sum of setup root spans - setup_s| / setup_s.
	setupReconTol = 0.05
	// sampleEvery keeps every n-th traced operation for replay, up to
	// maxReplay of them.
	sampleEvery = 16
	maxReplay   = 400
	// engineReps times each engine this many times per replayed query and
	// keeps the fastest, so a scheduler hiccup does not decide the winner.
	engineReps = 3
	// replayIDBase is far above any id the workloads store.
	replayIDBase = 1 << 40
)

// shardEngines is one immutable shard's load replayed step by step through
// the same public calls server.LoadSnapshotFile makes: the mapped arena, its
// tuples, the MIH engine and the calibrated planner. probe is an
// uncalibrated planner over the same engines, used only to time the scan.
type shardEngines struct {
	idx   *core.FrozenIndex
	codes []bitvec.Code
	ids   []int
	pl    *planner.Planner
	probe *planner.Planner
	ha    *core.Searcher
	mih   *core.Searcher
	cache *qcache.Cache // Zipf workload only
}

func (e *shardEngines) close() {
	if e.idx != nil {
		e.idx.Close()
	}
}

// replayLoad re-runs one shard's immutable load under spans.
func replayLoad(w *workload, path string, tr *tracer, parent int) (*shardEngines, error) {
	e := &shardEngines{}
	var err error
	tr.timed("load.map", parent, 0, func() { _, e.idx, err = wire.MapSnapshotFile(path) })
	if err != nil {
		return nil, err
	}
	tr.timed("load.tuples", parent, 0, func() {
		e.codes = make([]bitvec.Code, 0, e.idx.Len())
		e.ids = make([]int, 0, e.idx.Len())
		e.idx.Tuples(func(id int, c bitvec.Code) {
			e.ids = append(e.ids, id)
			e.codes = append(e.codes, c)
		})
	})
	var m *mih.Index
	tr.timed("load.mih_build", parent, 0, func() { m, err = mih.Build(e.codes, e.ids, mih.Options{}) })
	if err != nil {
		e.close()
		return nil, err
	}
	engines := planner.Engines{HA: e.idx, MIH: core.AsIndex(m), Codes: e.codes, IDs: e.ids}
	tr.timed("load.calibrate", parent, 0, func() { e.pl, err = planner.New(engines, planner.Options{Seed: 1}) })
	if err == nil {
		e.probe, err = planner.New(engines, planner.Options{CalibProbes: -1, ExploreEvery: -1})
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.ha = core.NewSearcher(e.idx)
	e.mih = core.NewSearcher(engines.MIH)
	if w.cacheEntries > 0 {
		e.cache = qcache.New(qcache.Options{MaxEntries: w.cacheEntries})
	}
	return e, nil
}

// regState is a point-in-time reading of every registry the run deltas.
type regState struct {
	server   []obs.RegistrySnapshot
	hists    map[string]obs.HistSnapshot // merged across servers
	router   client.Stats
	attempt  obs.HistSnapshot
	mem      runtime.MemStats
	srvStats []wire.StatsResp
}

var serverHists = []string{"req.search_ns", "req.topk_ns", "admission_wait_ns", "lsm.seal_ns", "lsm.compact_ns"}

func readState(d *deployment) regState {
	st := regState{hists: map[string]obs.HistSnapshot{}}
	for i, reg := range d.regs {
		st.server = append(st.server, reg.Snapshot())
		for _, name := range serverHists {
			h := st.hists[name]
			h.Merge(reg.Histogram(name).Snapshot())
			st.hists[name] = h
		}
		st.srvStats = append(st.srvStats, d.servers[i].Stats())
	}
	st.router = d.router.Stats()
	st.attempt = d.rreg.Histogram("attempt_ns").Snapshot()
	runtime.ReadMemStats(&st.mem)
	return st
}

func (s regState) counter(name string) int64 {
	var v int64
	for _, snap := range s.server {
		v += snap.Counters[name]
	}
	return v
}

func (s regState) gauge(name string) int64 {
	var v int64
	for _, snap := range s.server {
		v += snap.Gauges[name]
	}
	return v
}

// histDelta is the distribution of the values recorded between two
// snapshots of one histogram.
func histDelta(before, after obs.HistSnapshot) obs.HistSnapshot {
	prev := map[int64]uint64{}
	for _, b := range before.Buckets {
		prev[b.Low] = b.Count
	}
	out := obs.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.Low]; n > 0 {
			out.Buckets = append(out.Buckets, obs.Bucket{Low: b.Low, Count: n})
		}
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the --trace 1 run: a traced setup, the load replay, an
// untraced then a traced closed-loop window of seconds/2 each, registry
// deltas over the traced window, the correctness gate, and a replay of
// sampled operations against each shard's layers.
func runTraced(w *workload, codes []bitvec.Code, seed int64, seconds time.Duration, dir string, tr *tracer, env *environment) (outcome, error) {
	mv := map[string]float64{}
	for _, def := range perLayer {
		mv[def.name] = 0
	}
	d, setupDur, err := setup(w, codes, dir, tr)
	if err != nil {
		return outcome{}, err
	}
	defer d.close()
	env.ShardCounts = d.counts

	sec := func(name string) float64 { return tr.sumByName(name).Seconds() }
	mv["trace.setup_s"] = setupDur.Seconds()
	var roots time.Duration
	for _, s := range tr.all() {
		roots += s.dur()
	}
	mv["trace.setup_recon_err"] = math.Abs(roots.Seconds()-setupDur.Seconds()) / setupDur.Seconds()
	if mv["trace.setup_recon_err"] > setupReconTol {
		return outcome{}, fmt.Errorf("setup spans sum to %v but setup took %v (tolerance %.0f%%)", roots, setupDur, 100*setupReconTol)
	}
	for _, name := range []string{"build.partition", "build.sort", "build.stream", "load.server", "load.decode", "load.lsm_bootstrap"} {
		mv[name+"_s"] = sec(name)
	}
	mv["mem.serve_heap_mb"] = d.serveHeapMB()
	mv["server.index_heap_gauge_mb"] = d.gaugeSumMB("index.heap_bytes")
	mv["mem.mapped_mb"] = d.gaugeSumMB("index.mapped_bytes")

	var engines []*shardEngines
	defer func() {
		for _, e := range engines {
			e.close()
		}
	}()
	if !w.mutable {
		for m, path := range d.paths {
			root := tr.start("replay.load", -1, int64(m))
			e, err := replayLoad(w, path, tr, root)
			tr.end(root)
			if err != nil {
				return outcome{}, fmt.Errorf("replaying load of shard %d: %w", m, err)
			}
			engines = append(engines, e)
		}
		var steps float64
		for _, name := range []string{"load.map", "load.tuples", "load.mih_build", "load.calibrate"} {
			mv[name+"_s"] = sec(name)
			steps += mv[name+"_s"]
		}
		mv["trace.load_recon_err"] = math.Abs(steps-mv["load.server_s"]) / mv["load.server_s"]
		mv["trace.calibrate_share"] = mv["load.calibrate_s"] / mv["trace.setup_s"]
	}

	st := w.newStream(seed, codes)
	warm := warmUp(d, w, st, poolFor(w, seed, codes))
	half := seconds / 2
	untraced := runLoop(d, st, half, 0, nil, 0)
	untraced.count(warm)

	before := readState(d)
	segments := sampleMax(d, "lsm.segments")
	traced := runLoop(d, st, half, 0, tr, sampleEvery)
	mv["lsm.segments_max"] = float64(segments())
	after := readState(d)

	mv["trace.throughput_ops"] = traced.throughput()
	mv["trace.overhead_frac"] = 1 - traced.throughput()/untraced.throughput()
	mv["client.failed_frac"] = ratio(float64(untraced.failed+traced.failed), float64(untraced.attempted+traced.attempted))
	for name, lat := range map[string][]int64{"client.search_ns": traced.lat(opSearch), "client.topk_ns": traced.lat(opTopK), "client.write_ns": traced.lat(opInsert, opDelete)} {
		mv[name+".p50"] = float64(quantile(lat, 0.50))
		mv[name+".p99"] = float64(quantile(lat, 0.99))
	}
	att := histDelta(before.attempt, after.attempt)
	mv["client.attempt_ns.p50"], mv["client.attempt_ns.p99"] = float64(att.P50()), float64(att.P99())
	mv["client.retries"] = float64(after.router.Retries - before.router.Retries)
	mv["client.hedges"] = float64(after.router.Hedges - before.router.Hedges)
	mv["client.sheds"] = float64(after.router.Sheds - before.router.Sheds)

	req := histDelta(before.hists["req.search_ns"], after.hists["req.search_ns"])
	mv["server.req_ns.p50"], mv["server.req_ns.p99"] = float64(req.P50()), float64(req.P99())
	adm := histDelta(before.hists["admission_wait_ns"], after.hists["admission_wait_ns"])
	mv["server.admission_wait_ns.p50"], mv["server.admission_wait_ns.p99"] = float64(adm.P50()), float64(adm.P99())
	var ids, reqs int64
	for i := range after.srvStats {
		ids += after.srvStats[i].IDsReturned - before.srvStats[i].IDsReturned
	}
	reqs = req.Count + histDelta(before.hists["req.topk_ns"], after.hists["req.topk_ns"]).Count
	mv["server.ids_per_req"] = ratio(float64(ids), float64(reqs))

	delta := func(name string) float64 { return float64(after.counter(name) - before.counter(name)) }
	planned := delta("planner.ha") + delta("planner.mih") + delta("planner.scan")
	for _, e := range []string{"ha", "mih", "scan"} {
		mv["planner.share."+e] = ratio(delta("planner."+e), planned)
	}
	mv["qcache.hit_rate"] = ratio(delta("qcache.hits"), delta("qcache.hits")+delta("qcache.misses"))
	mv["qcache.evictions"] = delta("qcache.evictions")
	mv["qcache.entries"] = float64(after.gauge("qcache.entries"))
	mv["lsm.seals"] = delta("lsm.seals")
	mv["lsm.compactions"] = delta("lsm.compactions")
	seal := histDelta(before.hists["lsm.seal_ns"], after.hists["lsm.seal_ns"])
	mv["lsm.seal_ns.p50"], mv["lsm.seal_ns.p99"] = float64(seal.P50()), float64(seal.P99())
	mv["lsm.compact_ns"] = histDelta(before.hists["lsm.compact_ns"], after.hists["lsm.compact_ns"]).Mean()
	mv["mem.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	mv["mem.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	total := loopResult{attempted: untraced.attempted + traced.attempted, failed: untraced.failed + traced.failed}
	if total.failed > 0 {
		first := untraced.firstErr
		if first == nil {
			first = traced.firstErr
		}
		return outcome{values: mv, res: total}, fmt.Errorf("%d of %d operations failed, first: %v", total.failed, total.attempted, first)
	}
	checked, err := gate(d.router, modelFor(w, codes, st), seed, poolFor(w, seed, codes))
	if err != nil {
		return outcome{values: mv, res: total, checked: checked}, err
	}
	sampled := traced.sampled
	if len(sampled) > maxReplay {
		sampled = sampled[:maxReplay]
	}
	if w.mutable {
		err = replayMutable(d, sampled, tr, mv)
	} else {
		err = replayImmutable(engines, sampled, tr, mv)
	}
	return outcome{values: mv, res: total, checked: checked}, err
}

// sampleMax polls the named gauge, summed over the servers, until the
// returned function is called; that function returns the largest sum seen.
func sampleMax(d *deployment, gauge string) (stop func() int64) {
	done := make(chan struct{})
	peak := make(chan int64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		var hi int64
		for {
			var v int64
			for _, reg := range d.regs {
				v += reg.Gauge(gauge).Value()
			}
			hi = max(hi, v)
			select {
			case <-done:
				peak <- hi
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(done)
		return <-peak
	}
}

// hBand names the threshold band of the by-h metrics.
func hBand(h int) string {
	switch {
	case h <= 2:
		return "h0_2"
	case h <= 5:
		return "h3_5"
	}
	return "h6_8"
}

// mean accumulates averages by metric name.
type mean map[string][2]float64

func (m mean) add(name string, v float64) {
	a := m[name]
	m[name] = [2]float64{a[0] + v, a[1] + 1}
}

func (m mean) into(mv map[string]float64) {
	for name, a := range m {
		mv[name] = a[0] / a[1]
	}
}

func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// replayImmutable re-runs each sampled operation against every shard's
// layers, in the order a shard serves it: parse the request, look the query
// up in the result cache, plan, run the engine, fill the cache, encode the
// response; the client side encodes the request and parses each response.
// Each search query is then also timed on all three engines to score the
// planner's choice.
func replayImmutable(engines []*shardEngines, sampled []op, tr *tracer, mv map[string]float64) error {
	avg := mean{}
	var kb []byte
	var planned []plannedQuery
	for i, o := range sampled {
		opID := int64(replayIDBase + i)
		root := tr.start("replay."+kindNames[o.kind], -1, opID)
		var payload []byte
		avg.add("wire.req_encode_ns", ns(tr.timed("wire.req_encode", root, opID, func() {
			if o.kind == opTopK {
				payload = wire.TopKReq{K: o.arg, Length: bits, Queries: o.queries}.Append(nil)
			} else {
				payload = wire.SearchReq{H: o.arg, Length: bits, Queries: o.queries}.Append(nil)
			}
		})))
		for m, e := range engines {
			if o.kind == opTopK {
				if err := replayTopK(tr, avg, root, opID, payload, e); err != nil {
					return fmt.Errorf("replay: shard %d: %w", m, err)
				}
				continue
			}
			err := replaySearch(tr, avg, root, opID, payload, func(shardSpan int, req wire.SearchReq) wire.SearchResp {
				resp := wire.SearchResp{}
				for _, q := range req.Queries {
					if e.cache != nil {
						var ids []int
						var hit bool
						avg.add("qcache.get_ns", ns(tr.timed("qcache.get", shardSpan, opID, func() {
							kb = qcache.Key{Code: q, H: req.H, Engine: req.Engine, Shard: -1}.Append(kb[:0])
							ids, hit = e.cache.Get(kb)
						})))
						if hit {
							resp.IDs = append(resp.IDs, ids)
							continue
						}
					}
					var pl planner.Plan
					avg.add("planner.plan_ns", ns(tr.timed("planner.plan", shardSpan, opID, func() { pl = e.pl.Plan(req.H) })))
					var ids []int
					tr.timed("engine."+pl.Strategy.String(), shardSpan, opID, func() { ids = e.run(pl.Strategy, q, req.H) })
					if e.cache != nil {
						avg.add("qcache.put_ns", ns(tr.timed("qcache.put", shardSpan, opID, func() { e.cache.Put(kb, ids) })))
					}
					resp.IDs = append(resp.IDs, ids)
					planned = append(planned, plannedQuery{e, q, req.H, pl.Strategy})
				}
				return resp
			})
			if err != nil {
				return fmt.Errorf("replay: shard %d: %w", m, err)
			}
		}
		tr.end(root)
	}
	// Score the plans only now, so the engine comparisons stay out of the
	// replayed operations' spans.
	for _, p := range planned {
		scoreEngines(p.e, p.q, p.h, p.chosen, avg)
	}
	avg.into(mv)
	return nil
}

// replaySearch replays one search request on one shard: the shard parses
// the request, serve answers it inside the shard's span, the shard encodes
// the response and the client parses it.
func replaySearch(tr *tracer, avg mean, root int, opID int64, payload []byte, serve func(shardSpan int, req wire.SearchReq) wire.SearchResp) error {
	shardSpan := tr.start("server.search", root, opID)
	var req wire.SearchReq
	var err error
	avg.add("wire.req_parse_ns", ns(tr.timed("wire.req_parse", shardSpan, opID, func() { req, err = wire.ParseSearchReq(payload, bits) })))
	if err != nil {
		return err
	}
	resp := serve(shardSpan, req)
	var body []byte
	avg.add("wire.resp_encode_ns", ns(tr.timed("wire.resp_encode", shardSpan, opID, func() { body = resp.Append(nil) })))
	avg.add("wire.resp_bytes", float64(len(body)))
	tr.end(shardSpan)
	avg.add("wire.resp_parse_ns", ns(tr.timed("wire.resp_parse", root, opID, func() { _, err = wire.ParseSearchResp(body) })))
	return err
}

// replayTopK replays one top-k request on one immutable shard, which
// answers it with the HA walk alone.
func replayTopK(tr *tracer, avg mean, root int, opID int64, payload []byte, e *shardEngines) error {
	shardSpan := tr.start("server.topk", root, opID)
	var req wire.TopKReq
	var err error
	avg.add("wire.req_parse_ns", ns(tr.timed("wire.req_parse", shardSpan, opID, func() { req, err = wire.ParseTopKReq(payload, bits) })))
	if err != nil {
		return err
	}
	resp := wire.TopKResp{}
	for _, q := range req.Queries {
		var ids, dists []int
		avg.add("core.topk_ns", ns(tr.timed("core.topk", shardSpan, opID, func() { ids, dists = e.ha.TopK(q, req.K) })))
		resp.IDs = append(resp.IDs, append([]int(nil), ids...))
		resp.Dists = append(resp.Dists, append([]int(nil), dists...))
	}
	var body []byte
	avg.add("wire.resp_encode_ns", ns(tr.timed("wire.resp_encode", shardSpan, opID, func() { body = resp.Append(nil) })))
	avg.add("wire.resp_bytes", float64(len(body)))
	tr.end(shardSpan)
	avg.add("wire.resp_parse_ns", ns(tr.timed("wire.resp_parse", root, opID, func() { _, err = wire.ParseTopKResp(body) })))
	return err
}

// plannedQuery is one replayed planner decision awaiting its score.
type plannedQuery struct {
	e      *shardEngines
	q      bitvec.Code
	h      int
	chosen planner.Strategy
}

// run answers one query on one engine and, as the server does, returns a
// sorted copy of the ids.
func (e *shardEngines) run(s planner.Strategy, q bitvec.Code, h int) []int {
	var ids []int
	switch s {
	case planner.UseMIH:
		ids = append(ids, e.mih.Search(q, h)...)
	case planner.UseScan:
		ids, _ = e.probe.SelectWith(planner.UseScan, q, h)
	default:
		ids = append(ids, e.ha.Search(q, h)...)
	}
	sort.Ints(ids)
	return ids
}

// scoreEngines times q on every engine (fastest of engineReps), records the
// per-engine latency by h band and the HA walk's work counts, and scores the
// planner's choice: a hit when it picked the fastest engine, and the regret
// as the chosen engine's time over the fastest.
func scoreEngines(e *shardEngines, q bitvec.Code, h int, chosen planner.Strategy, avg mean) {
	var best [3]time.Duration
	for s := planner.UseHA; s <= planner.UseScan; s++ {
		for r := 0; r < engineReps; r++ {
			t0 := time.Now()
			e.run(s, q, h)
			if d := time.Since(t0); r == 0 || d < best[s] {
				best[s] = d
			}
		}
	}
	band := hBand(h)
	avg.add("core.search_ns."+band, ns(best[planner.UseHA]))
	avg.add("mih.search_ns."+band, ns(best[planner.UseMIH]))
	avg.add("scan.search_ns."+band, ns(best[planner.UseScan]))
	e.ha.Search(q, h)
	avg.add("core.dist_comps", float64(e.ha.Stats.DistanceComputations))
	avg.add("core.nodes_visited", float64(e.ha.Stats.NodesVisited))
	avg.add("core.leaves_checked", float64(e.ha.Stats.LeavesChecked))
	fastest := planner.UseHA
	for s := planner.UseMIH; s <= planner.UseScan; s++ {
		if best[s] < best[fastest] {
			fastest = s
		}
	}
	hit := 0.0
	if chosen == fastest {
		hit = 1
	}
	avg.add("planner.hit_rate", hit)
	avg.add("planner.regret", float64(best[chosen])/float64(max(best[fastest], 1)))
}

// replayMutable re-runs sampled searches against each LSM shard and sampled
// inserts as fresh ids on the shard owning each code, deleting them again.
// It runs after the correctness gate, so the extra mutations check nothing.
func replayMutable(d *deployment, sampled []op, tr *tracer, mv map[string]float64) error {
	avg := mean{}
	nextID := replayIDBase
	for i, o := range sampled {
		opID := int64(replayIDBase + i)
		root := tr.start("replay."+kindNames[o.kind], -1, opID)
		switch o.kind {
		case opSearch:
			var payload []byte
			avg.add("wire.req_encode_ns", ns(tr.timed("wire.req_encode", root, opID, func() {
				payload = wire.SearchReq{H: o.arg, Length: bits, Queries: o.queries}.Append(nil)
			})))
			for m, sh := range d.lsms {
				err := replaySearch(tr, avg, root, opID, payload, func(shardSpan int, req wire.SearchReq) wire.SearchResp {
					resp := wire.SearchResp{}
					for _, q := range req.Queries {
						var ids []int
						var stats core.SearchStats
						avg.add("lsm.search_ns", ns(tr.timed("lsm.search", shardSpan, opID, func() { ids = sh.SearchInto(q, req.H, &stats) })))
						ids = append([]int(nil), ids...)
						sort.Ints(ids)
						resp.IDs = append(resp.IDs, ids)
					}
					return resp
				})
				if err != nil {
					return fmt.Errorf("replay: shard %d: %w", m, err)
				}
			}
		case opInsert:
			for _, c := range o.queries {
				sh := d.lsms[histo.PartitionID(d.pivots, c)]
				id := nextID
				nextID++
				avg.add("lsm.insert_ns", ns(tr.timed("lsm.insert", root, opID, func() { sh.Insert(id, c) })))
				tr.timed("lsm.delete", root, opID, func() { sh.Delete(id) })
			}
		}
		tr.end(root)
	}
	avg.into(mv)
	return nil
}
