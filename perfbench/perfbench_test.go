package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"haindex/internal/bitvec"
)

// corrupting wraps a deployment's Router and damages one answer.
type corrupting struct {
	answerer
	// search damages a search answer and reports whether it could; it
	// is retired after the first success.
	search func([][]int) bool
	topk   func(ids, dists [][]int)
}

func (c *corrupting) SearchBatch(qs []bitvec.Code, h int) ([][]int, error) {
	got, err := c.answerer.SearchBatch(qs, h)
	if err == nil && c.search != nil && c.search(got) {
		c.search = nil
	}
	return got, err
}

func (c *corrupting) TopK(qs []bitvec.Code, k int) ([][]int, [][]int, error) {
	ids, dists, err := c.answerer.TopK(qs, k)
	if err == nil && c.topk != nil {
		c.topk(ids, dists)
		c.topk = nil
	}
	return ids, dists, err
}

// smallDeployment serves a few thousand codes behind a Router.
func smallDeployment(t *testing.T, w workload) (*deployment, []bitvec.Code) {
	t.Helper()
	codes := genCodes(7, w.n)
	d, _, err := setup(&w, codes, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d, codes
}

func TestGateTripsOnCorruptedAnswer(t *testing.T) {
	for _, mutable := range []bool{false, true} {
		d, codes := smallDeployment(t, workload{name: "small", n: 4000, mutable: mutable, cacheEntries: 256})
		m := staticModel(codes)
		pool := zipfPool(7, codes)
		if _, err := gate(d.router, m, 7, pool); err != nil {
			t.Fatalf("mutable=%v: gate fails on honest answers: %v", mutable, err)
		}
		cases := map[string]*corrupting{
			"search drops an id": {search: func(got [][]int) bool {
				for i := range got {
					if len(got[i]) > 0 {
						got[i] = got[i][1:]
						return true
					}
				}
				return false
			}},
			"search adds an id": {search: func(got [][]int) bool {
				got[0] = append(got[0], len(codes)+1)
				return true
			}},
			"top-k wrong distance": {topk: func(ids, dists [][]int) { dists[0][0]++ }},
			"top-k duplicate id":   {topk: func(ids, dists [][]int) { ids[0][1] = ids[0][0] }},
		}
		for name, c := range cases {
			c.answerer = d.router
			if _, err := gate(c, m, 7, pool); err == nil {
				t.Errorf("mutable=%v, %s: gate passed a corrupted answer", mutable, name)
			}
		}
		// A stale model (every other live tuple missing) must trip it too.
		var stale model
		for i := 0; i < len(m.ids); i += 2 {
			stale.ids, stale.codes = append(stale.ids, m.ids[i]), append(stale.codes, m.codes[i])
		}
		if _, err := gate(d.router, stale, 7, pool); err == nil {
			t.Errorf("mutable=%v: gate passed against a stale model", mutable)
		}
	}
}

// appendBytes serialises the operation; equal bytes mean equal operations.
func (o op) appendBytes(dst []byte) []byte {
	dst = append(dst, byte(o.kind))
	dst = binary.AppendUvarint(dst, uint64(o.arg))
	dst = binary.AppendUvarint(dst, uint64(len(o.queries)))
	for _, q := range o.queries {
		dst = q.AppendBytes(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(len(o.ids)))
	for _, id := range o.ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func TestOpSequenceIsSeedDetermined(t *testing.T) {
	seq := func(w *workload, seed int64) []byte {
		codes := genCodes(seed, w.n)
		var b []byte
		st := w.newStream(seed, codes)
		for i := 0; i < 3000; i++ {
			b = st.next().appendBytes(b)
		}
		return b
	}
	for _, w := range workloads {
		a, b, c := seq(w, 3), seq(w, 3), seq(w, 4)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 3 gave two different op sequences", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 3 and 4 gave the same op sequence", w.name)
		}
	}
}

// countingStream counts the operations drawn from a stream.
type countingStream struct {
	opStream
	drawn *int
}

func (s countingStream) next() op {
	*s.drawn++
	return s.opStream.next()
}

// TestOpLimitDrawsNoExtraOperation holds runLoop's op limit to the stream:
// a churn stream records each insert and delete in its model as it draws
// it, so an operation drawn but never sent would leave the gate checking
// against tuples the shards never saw.
func TestOpLimitDrawsNoExtraOperation(t *testing.T) {
	w := &workload{name: "small", n: 4000, mutable: true, newStream: workloads[2].newStream}
	d, codes := smallDeployment(t, *w)
	st := w.newStream(7, codes)
	var drawn int
	lr := runLoop(d, countingStream{st, &drawn}, time.Minute, 500, nil, 0)
	if lr.attempted != 500 || lr.failed != 0 || drawn != 500 {
		t.Fatalf("drew %d, attempted %d, failed %d; want 500, 500 and 0", drawn, lr.attempted, lr.failed)
	}
	if _, err := gate(d.router, modelFor(w, codes, st), 7, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBlocks(t *testing.T) {
	ms := time.Millisecond
	r := loopResult{elapsed: 10 * ms}
	for _, at := range []time.Duration{1, 2, 3, 4, 5, 7, 9} {
		r.done = append(r.done, completion{at: at * ms})
	}
	b := r.blocks(3)
	if len(b) != 2 {
		t.Fatalf("%d blocks, want 2 (the partial one dropped)", len(b))
	}
	if b[0].elapsed != 3*ms || b[1].elapsed != 4*ms {
		t.Errorf("block times %v and %v, want 3ms (start to third completion) and 4ms", b[0].elapsed, b[1].elapsed)
	}
	if got := b[1].throughput(); got != 750 {
		t.Errorf("second block throughput %v, want 750 ops/s", got)
	}

	// A continuation window's completions count from where r's window ended.
	r.extend(loopResult{elapsed: 5 * ms, done: []completion{{at: 2 * ms}, {at: 4 * ms}}, attempted: 2})
	if b := r.blocks(3); len(b) != 3 || b[2].elapsed != 7*ms || r.elapsed != 15*ms || r.attempted != 2 {
		t.Errorf("after extend: %d blocks, third %v, window %v, attempted %d; want 3, 7ms (9ms to 10ms+4ms), 15ms, 2", len(b), b[len(b)-1].elapsed, r.elapsed, r.attempted)
	}
}

// TestZipfPoolDistance holds every pooled query to clusterFlip+queryFlip
// bits from its cluster's centre, which is what keeps the pool's work per
// request nearly the same from seed to seed.
func TestZipfPoolDistance(t *testing.T) {
	codes := genCodes(5, 20_000)
	var centres []bitvec.Code
	for cl := 0; cl < len(codes); cl += clusterSize {
		centres = append(centres, clusterCentre(codes[cl:cl+clusterSize]))
	}
	for i, req := range zipfPool(5, codes) {
		for _, q := range req {
			best := bits
			for _, c := range centres {
				best = min(best, q.Distance(c))
			}
			if best != clusterFlip+queryFlip {
				t.Fatalf("request %d: a query is %d bits from the nearest centre, want %d", i, best, clusterFlip+queryFlip)
			}
		}
	}
}

func TestShardFloorFailsLoudly(t *testing.T) {
	w := workload{name: "floor", n: 4000, minShardCodes: 3000}
	d, _, err := setup(&w, genCodes(1, w.n), t.TempDir(), nil)
	if err == nil {
		d.close()
		t.Fatal("setup accepted shards below the floor")
	}
	if !strings.Contains(err.Error(), "need more than 3000") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 10 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 1 * ms, End: 4 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
		{ID: 3, Parent: 2, Name: "c", Start: 4 * ms, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 5 * time.Millisecond, "a": 3 * time.Millisecond, "b": 2 * time.Millisecond, "c": time.Millisecond}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
}

// TestBenchmarkFile holds BENCHMARK.json to the metric catalog and the
// workload list.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %+v, code has %q: %q", i, f.Workloads[i], w.name, w.why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(f.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		got := f.EndToEnd[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better || got.Bound != def.bound {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, got, def)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(f.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		got := f.PerLayer[i]
		if got.Name != def.name || got.Unit != def.unit || got.Better != def.better {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, got, def)
		}
	}
}
