package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/client"
	"haindex/internal/core"
	"haindex/internal/gray"
	"haindex/internal/histo"
	"haindex/internal/lsm"
	"haindex/internal/obs"
	"haindex/internal/server"
	"haindex/internal/wire"
)

// streamChunk is haidx shard's default -chunk.
const streamChunk = 1 << 18

// deployment is one in-process loopback deployment: a server per shard on
// 127.0.0.1 and one Router over them.
type deployment struct {
	dir     string
	paths   []string // snapshot file per shard
	pivots  []bitvec.Code
	counts  []int // stored codes per shard
	servers []*server.Server
	regs    []*obs.Registry // per-server registry (lsm.* and qcache.* hang here too)
	lsms    []*lsm.Shard    // mutable workloads only
	router  *client.Router
	rreg    *obs.Registry // the Router's registry
	// heapBase is HeapInuse after a GC once the snapshots are written and
	// before any shard loads.
	heapBase uint64
}

// serverOptions are haserve's flag defaults for the workload: engine auto
// with mmap for immutable shards; the LSM engine (no mmap, no planner) for
// -mutable; the result cache only where the workload enables -cache.
func serverOptions(w *workload, reg *obs.Registry) server.Options {
	if w.mutable {
		return server.Options{Obs: reg}
	}
	return server.Options{Engine: "auto", Mmap: true, CacheEntries: w.cacheEntries, Obs: reg}
}

// setup builds one snapshot per shard the way haidx shard does, loads each
// the way haserve does, dials the Router and answers a first query. It
// returns the wall time from the codes in memory to that first answer, less
// the GC and heap reading taken between build and load. With a tracer, each
// step is a root span.
func setup(w *workload, codes []bitvec.Code, dir string, tr *tracer) (d *deployment, took time.Duration, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	d = &deployment{dir: dir}
	partial := d
	defer func() {
		if err != nil {
			partial.close()
		}
	}()
	t0 := time.Now()

	byPart := make([][]int, numShards)
	tr.timed("build.partition", -1, 0, func() {
		d.pivots = histo.Pivots(histo.Sample(codes, 2000), numShards)
		for i, c := range codes {
			m := histo.PartitionID(d.pivots, c)
			byPart[m] = append(byPart[m], i)
		}
	})
	for m, rows := range byPart {
		d.counts = append(d.counts, len(rows))
		if w.minShardCodes > 0 && len(rows) <= w.minShardCodes {
			return nil, 0, fmt.Errorf("%s: shard %d holds %d codes, need more than %d", w.name, m, len(rows), w.minShardCodes)
		}
	}
	for m, rows := range byPart {
		meta := wire.SnapshotMeta{Part: m, Parts: numShards, Length: bits, Pivots: d.pivots}
		path := filepath.Join(dir, fmt.Sprintf("shard-%05d.hasn", m))
		d.paths = append(d.paths, path)
		partCodes := make([]bitvec.Code, len(rows))
		tr.timed("build.sort", -1, 0, func() {
			for j, i := range rows {
				partCodes[j] = codes[i]
			}
			gray.Sort(partCodes, rows)
		})
		tr.timed("build.stream", -1, 0, func() { err = writeSnapshot(path, meta, partCodes, rows) })
		if err != nil {
			return nil, 0, err
		}
	}

	tBase := time.Now()
	d.heapBase = heapInuse()
	paused := time.Since(tBase)

	addrs := make([][]string, numShards)
	for m, path := range d.paths {
		reg := obs.NewRegistry()
		d.regs = append(d.regs, reg)
		var s *server.Server
		if w.mutable {
			s, err = loadMutable(d, path, serverOptions(w, reg), tr)
		} else {
			tr.timed("load.server", -1, 0, func() {
				if s, err = server.LoadSnapshotFile(path, serverOptions(w, reg)); err == nil {
					d.servers = append(d.servers, s)
					err = s.Start("127.0.0.1:0")
				}
			})
		}
		if err != nil {
			return nil, 0, fmt.Errorf("loading shard %d: %w", m, err)
		}
		addrs[m] = []string{s.Addr().String()}
	}

	d.rreg = obs.NewRegistry()
	tr.timed("client.dial", -1, 0, func() {
		d.router, err = client.Dial(addrs, client.Options{Obs: d.rreg})
	})
	if err != nil {
		return nil, 0, err
	}
	var first [][]int
	tr.timed("client.first_query", -1, 0, func() {
		first, err = d.router.SearchBatch([]bitvec.Code{codes[0]}, 0)
	})
	if err != nil {
		return nil, 0, fmt.Errorf("first query: %w", err)
	}
	if len(first) != 1 || !containsID(first[0], 0) {
		return nil, 0, fmt.Errorf("first query: stored code 0 not found at h=0 (got %v)", first)
	}
	return d, time.Since(t0) - paused, nil
}

// writeSnapshot streams one Gray-sorted partition into a v4 snapshot, as
// haidx shard does.
func writeSnapshot(path string, meta wire.SnapshotMeta, partCodes []bitvec.Code, rows []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sw, err := core.NewFrozenStreamWriter(bits, streamChunk, core.Options{})
	if err != nil {
		f.Close()
		return err
	}
	for j, c := range partCodes {
		if err := sw.Add(rows[j], c); err != nil {
			sw.Abort()
			f.Close()
			return fmt.Errorf("streaming %s: %w", path, err)
		}
	}
	if err := wire.WriteSnapshotStream(f, meta, sw); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// loadMutable mirrors haserve -mutable: decode the snapshot eagerly, seed an
// LSM shard with default options from it, and serve that shard.
func loadMutable(d *deployment, path string, opts server.Options, tr *tracer) (*server.Server, error) {
	var meta wire.SnapshotMeta
	var idx core.Index
	var err error
	tr.timed("load.decode", -1, 0, func() { meta, idx, err = wire.ReadSnapshotFile(path) })
	if err != nil {
		return nil, err
	}
	var sh *lsm.Shard
	tr.timed("load.lsm_bootstrap", -1, 0, func() {
		sh = lsm.New(meta.Length, lsm.Options{Obs: opts.Obs})
		err = sh.Bootstrap(idx)
	})
	if err != nil {
		sh.Close()
		return nil, err
	}
	d.lsms = append(d.lsms, sh)
	var s *server.Server
	tr.timed("load.server", -1, 0, func() {
		if s, err = server.NewMutable(meta, sh, opts); err == nil {
			d.servers = append(d.servers, s)
			err = s.Start("127.0.0.1:0")
		}
	})
	return s, err
}

// close stops the Router, every server and shard, and removes the snapshots.
func (d *deployment) close() {
	if d.router != nil {
		d.router.Close()
	}
	for _, s := range d.servers {
		s.Close()
	}
	for _, sh := range d.lsms {
		sh.Close()
	}
	os.RemoveAll(d.dir)
}

// serveHeapMB is HeapInuse after a GC minus the reading taken before the
// shards loaded.
func (d *deployment) serveHeapMB() float64 {
	return (float64(heapInuse()) - float64(d.heapBase)) / (1 << 20)
}

// gaugeSumMB totals one gauge across every server's registry.
func (d *deployment) gaugeSumMB(name string) float64 {
	var sum int64
	for _, reg := range d.regs {
		sum += reg.Gauge(name).Value()
	}
	return float64(sum) / (1 << 20)
}

func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func containsID(ids []int, id int) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
