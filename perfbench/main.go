// Command perfbench is the repository benchmark: the shipped serving
// configuration — shards built as haidx shard builds them, served with
// haserve's defaults on loopback, queried through one client.Router — under
// a seeded closed-loop workload.
//
//	bash perfbench/run.sh --workload select-uniform --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// traced and reports the per-layer breakdown (metrics.go lists both). The
// last line of standard output is the result as one JSON object; the lines
// before it print every metric by name with its unit, and the environment.
// A full record of the run (and, traced, every span) is written under -dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"haindex/internal/bitvec"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: select-uniform, select-zipf-cached, mutable-churn, or all of them in turn")
		seed    = flag.Int64("seed", 1, "seed for the stored codes and every operation")
		seconds = flag.Int("seconds", 15, "length of the measured time in seconds")
		trace   = flag.Int("trace", 0, "1 runs traced and reports the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "directory for snapshots, records and traces")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if err := run(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Traced       bool   `json:"traced"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	NumCPU       int    `json:"nproc"`
	GoVersion    string `json:"go_version"`
	N            int    `json:"n"`
	Bits         int    `json:"bits"`
	Shards       int    `json:"shards"`
	ShardCounts  []int  `json:"shard_counts"`
	Engine       string `json:"engine"`
	CacheEntries int    `json:"cache_entries"`
	Seconds      int    `json:"seconds"`
}

func run(name string, seed int64, seconds time.Duration, traced bool, dir string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 2*time.Second {
		return fmt.Errorf("--seconds must be at least 2")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	env := environment{
		Workload: w.name, Seed: seed, Traced: traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		N: w.n, Bits: bits, Shards: numShards, Engine: "auto", CacheEntries: w.cacheEntries,
		Seconds: int(seconds / time.Second),
	}
	if w.mutable {
		env.Engine = "lsm"
	}
	codes := genCodes(seed, w.n)

	var (
		o      outcome
		runErr error
		tr     *tracer
		defs   = endToEnd
	)
	if traced {
		tr = newTracer()
		o, runErr = runTraced(w, codes, seed, seconds, scratch, tr, &env)
		defs = perLayer
	} else {
		o, runErr = runUntraced(w, codes, seed, seconds, scratch, &env)
	}
	if o.values == nil {
		return runErr
	}

	out := result{Correct: runErr == nil, Attempted: o.res.attempted, Failed: o.res.failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		out.Metrics[def.name] = metric{Value: o.values[def.name], Unit: def.unit}
	}
	envJSON, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envJSON)
	fmt.Printf("correctness: %d answers checked against brute force", o.checked)
	if runErr != nil {
		fmt.Printf(", FAILED: %v\n", runErr)
	} else {
		fmt.Printf(", all exact\n")
	}
	printMetrics(out.Metrics)
	for _, name := range sortedKeys(o.extra) {
		fmt.Printf("%-32s %14.6g %s\n", name, o.extra[name], extraUnit(name))
	}

	record := map[string]any{"env": env, "result": out, "extra": o.extra, "per_deployment": o.per}
	base := fmt.Sprintf("%s-seed%d-trace0", w.name, seed)
	if traced {
		base = fmt.Sprintf("%s-seed%d-trace1", w.name, seed)
	}
	if b, err := json.MarshalIndent(record, "", "  "); err == nil {
		if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
			return err
		}
	}
	if tr != nil {
		printSelfTimes(tr)
		if err := tr.write(filepath.Join(dir, base+".spans.json")); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	// A failed gate still prints its result line, then exits non-zero.
	fmt.Println(string(line))
	return runErr
}

// outcome is what one run measured.
type outcome struct {
	values  map[string]float64   // the result line's metrics
	extra   map[string]float64   // printed beside them
	per     map[string][]float64 // untraced: each figure per deployment or per block
	res     loopResult           // operations attempted and failed
	checked int                  // answers the gate verified
}

// runUntraced is the --trace 0 run. It sets the deployment up
// w.deployments times; each deployment serves a fresh copy of the op stream
// for a warm-up and then for a measured window of an equal share of seconds,
// and passes the correctness gate before it is torn down. Each window is cut
// into blocks of w.blockOps operations (see loopResult.blocks), and the
// deployment's throughput and latency percentiles are medians over its
// blocks, so a noisy stretch of the host does not decide them. The run
// reports the mean of those over the deployments: each deployment calibrates
// its own planner, and on select-uniform the engine mix a calibration picks
// moves throughput by up to a third, so the run estimates the average over
// restarts. setup_s and serve_heap_mb are medians over the deployments.
// The extra figures are the workload-specific ones printed beside the
// end-to-end metrics.
func runUntraced(w *workload, codes []bitvec.Code, seed int64, seconds time.Duration, dir string, env *environment) (o outcome, err error) {
	o.per = map[string][]float64{}
	add := func(name string, v float64) { o.per[name] = append(o.per[name], v) }
	window := seconds / time.Duration(w.deployments)
	for r := 0; r < w.deployments && err == nil; r++ {
		d, dur, serr := setup(w, codes, filepath.Join(dir, fmt.Sprint(r)), nil)
		if serr != nil {
			return o, serr
		}
		env.ShardCounts = d.counts
		add("setup_s", dur.Seconds())
		add("serve_heap_mb", d.serveHeapMB())
		add("server.index_heap_gauge_mb", d.gaugeSumMB("index.heap_bytes"))

		st := w.newStream(seed, codes)
		warm := warmUp(d, w, st, poolFor(w, seed, codes))
		lr := runLoop(d, st, window, 0, nil, 0)
		if short := w.blockOps - len(lr.done); short > 0 && lr.failed == 0 {
			// On a host too slow to finish a block within the window,
			// the window runs on until it has one.
			lr.extend(runLoop(d, st, warmupCap, int64(short), nil, 0))
		}
		lr.count(warm)
		o.res.count(lr)
		blocks := lr.blocks(w.blockOps)
		add("samples.blocks", float64(len(blocks)))
		byBlock := map[string][]float64{}
		for _, b := range blocks {
			byBlock["throughput_ops"] = append(byBlock["throughput_ops"], b.throughput())
			for name, kinds := range map[string][]opKind{"search": {opSearch}, "topk": {opTopK}, "write": {opInsert, opDelete}} {
				if lat := b.lat(kinds...); len(lat) > 0 {
					byBlock[name+"_p50_ms"] = append(byBlock[name+"_p50_ms"], ms(quantile(lat, 0.50)))
					byBlock[name+"_p90_ms"] = append(byBlock[name+"_p90_ms"], ms(quantile(lat, 0.90)))
					byBlock[name+"_p99_ms"] = append(byBlock[name+"_p99_ms"], ms(quantile(lat, 0.99)))
					add("samples."+name, float64(len(lat)))
				}
			}
		}
		for name, v := range byBlock {
			add(name, median(v))
		}
		if lr.failed > 0 {
			err = fmt.Errorf("%d of %d operations failed, first: %v", lr.failed, lr.attempted, lr.firstErr)
		} else {
			var n int
			n, err = gate(d.router, modelFor(w, codes, st), seed, poolFor(w, seed, codes))
			o.checked += n
		}
		d.close()
	}
	if err == nil && len(o.per["throughput_ops"]) == 0 {
		err = fmt.Errorf("no deployment completed a block of %d operations", w.blockOps)
	}
	o.values, o.extra = map[string]float64{}, map[string]float64{}
	for name, v := range o.per {
		switch {
		case strings.HasPrefix(name, "samples."):
			o.extra[name] = sum(v)
		case name == "setup_s" || strings.HasSuffix(name, "_mb"):
			o.extra[name] = median(v)
		default:
			o.extra[name] = sum(v) / float64(len(v))
		}
	}
	for _, def := range endToEnd {
		o.values[def.name] = o.extra[def.name]
		delete(o.extra, def.name)
	}
	o.extra["failed_frac"] = ratio(float64(o.res.failed), float64(o.res.attempted))
	return o, err
}

// warmUp serves one block of the workload's operations untimed before
// measuring, so planner cost cells settle and the Go heap reaches its working
// size. On the Zipf workload it first sends every pooled request once, so the
// result cache holds the whole pool and the measured window does not depend
// on when the rarest requests first turn up. warmupCap only bounds it on a
// stalled host.
func warmUp(d *deployment, w *workload, st opStream, pool [][]bitvec.Code) loopResult {
	var res loopResult
	for _, req := range pool {
		res.attempted++
		if _, err := d.router.SearchBatch(req, zipfH); err != nil {
			res.count(loopResult{failed: 1, firstErr: err})
		}
	}
	res.count(runLoop(d, st, warmupCap, int64(w.blockOps), nil, 0))
	return res
}

const warmupCap = 30 * time.Second

// modelFor is the live-tuple model the gate checks against once the
// stream has run.
func modelFor(w *workload, codes []bitvec.Code, st opStream) model {
	if w.mutable {
		return churnModel(st.(*churnStream))
	}
	return staticModel(codes)
}

// poolFor is the Zipf workload's request pool (nil elsewhere), which the
// gate samples so cached answers are checked too.
func poolFor(w *workload, seed int64, codes []bitvec.Code) [][]bitvec.Code {
	if w.cacheEntries == 0 {
		return nil
	}
	return zipfPool(seed, codes)
}

func sum(v []float64) float64 {
	var t float64
	for _, x := range v {
		t += x
	}
	return t
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printMetrics prints each metric with its unit and, for a per-layer
// metric, the end-to-end metric and workload it should move.
func printMetrics(ms map[string]metric) {
	moves := map[string]string{}
	for _, def := range perLayer {
		moves[def.name] = "  -> " + def.moves
	}
	for _, name := range sortedKeys(ms) {
		fmt.Printf("%-32s %14.6g %-6s%s\n", name, ms[name].Value, ms[name].Unit, moves[name])
	}
}

func extraUnit(name string) string {
	switch {
	case strings.HasPrefix(name, "samples."):
		return "count"
	case name == "failed_frac":
		return "ratio"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	}
	return "ms"
}

// printSelfTimes prints, per span name, the time spent in the layer itself.
func printSelfTimes(tr *tracer) {
	self := selfTimes(tr.all())
	fmt.Println("self time by span:")
	for _, name := range sortedKeys(self) {
		fmt.Printf("  %-28s %12.3f ms\n", name, float64(self[name].Microseconds())/1e3)
	}
}
