package main

import (
	"sort"
	"time"
)

// loopResult is one closed-loop window.
type loopResult struct {
	elapsed   time.Duration
	done      []completion // every operation that succeeded
	attempted int
	failed    int
	firstErr  error
	// sampled holds the operations kept for the traced replay.
	sampled []op
}

// completion is one successful operation: when it finished, counted from
// the window's start, and how long it took.
type completion struct {
	at   time.Duration
	ns   int64
	kind opKind
}

// count adds o's attempted and failed operations, and its first error if r
// has none yet, to r.
func (r *loopResult) count(o loopResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// extend appends o, a window run straight after r's, to r.
func (r *loopResult) extend(o loopResult) {
	for _, c := range o.done {
		c.at += r.elapsed
		r.done = append(r.done, c)
	}
	r.elapsed += o.elapsed
	r.count(o)
}

func (r *loopResult) throughput() float64 {
	return float64(len(r.done)) / r.elapsed.Seconds()
}

// lat returns the latencies of the operations of the given kinds.
func (r *loopResult) lat(kinds ...opKind) []int64 {
	var out []int64
	for _, c := range r.done {
		for _, k := range kinds {
			if c.kind == k {
				out = append(out, c.ns)
			}
		}
	}
	return out
}

// blocks splits the window into consecutive blocks of size operations,
// dropping the partial block at the end. A block's
// elapsed time runs from the completion that ended the block before it (or
// from the window's start) to its own last completion. With the same seed,
// block i of every deployment runs the same operations, so blocks compare
// like with like even where the work per operation drifts, as it does while
// an LSM shard grows and compacts.
func (r *loopResult) blocks(size int) []loopResult {
	out := make([]loopResult, len(r.done)/size)
	var prev time.Duration
	for i := range out {
		b := r.done[i*size : (i+1)*size]
		out[i].done = b
		out[i].elapsed = b[len(b)-1].at - prev
		prev = b[len(b)-1].at
	}
	return out
}

// exec issues one operation through the Router.
func (d *deployment) exec(o op) error {
	var err error
	switch o.kind {
	case opSearch:
		_, err = d.router.SearchBatch(o.queries, o.arg)
	case opTopK:
		_, _, err = d.router.TopK(o.queries, o.arg)
	case opInsert:
		_, err = d.router.Insert(o.ids, o.queries)
	case opDelete:
		_, err = d.router.Delete(o.ids)
	}
	return err
}

var spanNames = [numKinds]string{"client.search", "client.topk", "client.insert", "client.delete"}

// runLoop drives the deployment with one closed-loop client, which sends
// its next operation only when the previous one has answered, until dur has
// passed or, when ops is positive, ops operations have been issued. The
// limits are checked before the stream advances: a churn stream records each
// insert and delete in its model as it draws it, so an operation drawn but
// not sent would leave the gate checking tuples the shards never saw. With a
// tracer every operation is a span, and every sampleEvery-th one is kept for
// replay.
func runLoop(d *deployment, st opStream, dur time.Duration, ops int64, tr *tracer, sampleEvery int) loopResult {
	var res loopResult
	start := time.Now()
	deadline := start.Add(dur)
	for id := int64(1); time.Now().Before(deadline) && (ops <= 0 || id <= ops); id++ {
		o := st.next()
		sp := tr.start(spanNames[o.kind], -1, id)
		t0 := time.Now()
		err := d.exec(o)
		ns := time.Since(t0).Nanoseconds()
		tr.end(sp)
		res.attempted++
		if err != nil {
			res.count(loopResult{failed: 1, firstErr: err})
			continue
		}
		res.done = append(res.done, completion{at: time.Since(start), ns: ns, kind: o.kind})
		if tr != nil && sampleEvery > 0 && id%int64(sampleEvery) == 0 {
			res.sampled = append(res.sampled, o)
		}
	}
	res.elapsed = time.Since(start)
	return res
}

// quantile returns the q-quantile of v (nearest rank), sorting v in place.
func quantile(v []int64, q float64) int64 {
	if len(v) == 0 {
		return 0
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	i := int(q * float64(len(v)))
	if i >= len(v) {
		i = len(v) - 1
	}
	return v[i]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
