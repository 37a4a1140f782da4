// Command haquery fans similarity queries across running haserve shards. It
// dials every replica group, learns the deployment's pivots from the
// handshakes, routes each query only to the shards whose Gray range can hold
// a match within the threshold, and merges the per-shard answers.
//
// Usage:
//
//	haquery -shards 127.0.0.1:7070,127.0.0.1:7071 -codes 0101...,1100... -h 3
//	haquery -shards "host:7070/host:7170,host:7071" -codes-file shards/codes.txt -rows 0,42 -h 3 -topk 5
//	haquery -shards ... -codes-file shards/codes.txt -rows 0-99 -h 3 -oracle shards/
//
// Shards are comma-separated; replicas of one shard are joined with "/".
// With -oracle DIR the same queries are also answered by an in-process
// index rebuilt from every snapshot in DIR, the two result sets are diffed,
// and a mismatch exits nonzero — the end-to-end correctness check the smoke
// test runs.
//
// Against a mutable deployment (haserve -mutable) the router also mutates:
//
//	haquery -shards ... -insert "500:0101...,501:1100..."   # upsert tuples
//	haquery -shards ... -delete 500,501                     # delete by id
//	haquery -shards ... -seal -h 3 -codes 0101...           # freeze memtables
//	haquery -shards ... -seal-compact                       # ...and compact
//
// Mutations run before the queries of the same invocation, so an inserted
// tuple is immediately searchable. Inserts route by the code's Gray
// partition; deletes and seals broadcast.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/client"
	"haindex/internal/core"
	"haindex/internal/obs"
	"haindex/internal/wire"
)

func main() {
	var (
		shards    = flag.String("shards", "", "shard addresses: comma between shards, \"/\" between replicas (required)")
		codesCSV  = flag.String("codes", "", "comma-separated query bit-strings")
		codesFile = flag.String("codes-file", "", "file with one bit-string per line (haidx shard writes codes.txt)")
		rows      = flag.String("rows", "0", "rows of -codes-file to query: comma-separated, \"-\" for ranges")
		h         = flag.Int("h", 3, "Hamming threshold")
		topk      = flag.Int("topk", 0, "also run top-k queries with this k (0 = off)")
		hedge     = flag.Duration("hedge", 0, "hedge delay before racing the next replica (0 = off)")
		oracle    = flag.String("oracle", "", "snapshot directory to rebuild an in-process oracle from; diff and exit nonzero on mismatch")
		verbose   = flag.Bool("v", false, "print every id list")
		trace     = flag.Bool("trace", false, "print the span tree of the slowest batch and per-attempt latency percentiles")
		engine    = flag.String("engine", "auto", "access path forced on every shard: auto|ha|mih|scan (non-auto needs the engine enabled on every shard)")
		priority  = flag.String("priority", "", "admission class under server load shedding: normal|interactive|batch")

		insert      = flag.String("insert", "", "comma-separated id:bit-string upserts applied before querying (mutable shards)")
		deleteIDs   = flag.String("delete", "", "comma-separated tuple ids deleted before querying (mutable shards)")
		seal        = flag.Bool("seal", false, "seal every shard's memtable into a frozen segment")
		sealCompact = flag.Bool("seal-compact", false, "seal, then compact every shard's segment stack")
	)
	flag.Parse()
	if *shards == "" {
		fatalf("-shards is required")
	}
	var addrs [][]string
	for _, sh := range strings.Split(*shards, ",") {
		var reps []string
		for _, rep := range strings.Split(sh, "/") {
			if rep = strings.TrimSpace(rep); rep != "" {
				reps = append(reps, rep)
			}
		}
		if len(reps) > 0 {
			addrs = append(addrs, reps)
		}
	}

	r, err := client.Dial(addrs, client.Options{HedgeAfter: *hedge, Engine: *engine, Priority: *priority})
	if err != nil {
		fatalf("%v", err)
	}
	defer r.Close()

	mutated := runMutations(r, *insert, *deleteIDs, *seal, *sealCompact)

	queries := loadQueries(*codesCSV, *codesFile, *rows, r.Length())
	if len(queries) == 0 {
		if mutated {
			return // a pure mutation invocation needs no queries
		}
		fatalf("no queries; pass -codes or -codes-file")
	}

	t0 := time.Now()
	got, err := r.SearchBatch(queries, *h)
	if err != nil {
		fatalf("search: %v", err)
	}
	took := time.Since(t0)
	total := 0
	for i, ids := range got {
		total += len(ids)
		if *verbose {
			fmt.Printf("query %d: %d matches %v\n", i, len(ids), ids)
		}
	}
	fmt.Printf("haquery: %d queries over %d shards: %d matches within h=%d in %v\n",
		len(queries), r.Parts(), total, *h, took.Round(time.Microsecond))

	var tkIDs, tkDists [][]int
	if *topk > 0 {
		tkIDs, tkDists, err = r.TopK(queries, *topk)
		if err != nil {
			fatalf("topk: %v", err)
		}
		if *verbose {
			for i := range tkIDs {
				fmt.Printf("query %d top-%d: ids %v dists %v\n", i, *topk, tkIDs[i], tkDists[i])
			}
		}
	}

	st := r.Stats()
	fmt.Printf("haquery: routed %d shard-queries, pruned %d, %d retries (%v backing off), %d hedges (%d won, %d losers drained)\n",
		st.QueriesRouted, st.QueriesPruned, st.Retries, st.BackoffWait.Round(time.Microsecond),
		st.Hedges, st.HedgeWins, st.HedgeLosses)

	if *trace {
		snap := r.Snapshot()
		fmt.Printf("haquery: attempt latency %s\n", latSummary(snap.Attempt))
		for m, hs := range snap.PerShard {
			if hs.Count > 0 {
				fmt.Printf("haquery:   shard %d %s\n", m, latSummary(hs))
			}
		}
		if slowest := r.Tracer().Slowest(); slowest != nil {
			fmt.Printf("haquery: slowest batch (%v):\n%s", slowest.Duration().Round(time.Microsecond), slowest.Tree())
		}
	}

	if *oracle != "" {
		diffOracle(*oracle, queries, *h, *topk, got, tkIDs, tkDists)
	}
}

// runMutations applies -insert, -delete, and -seal/-seal-compact, in that
// order, reporting whether any mutation flag was given.
func runMutations(r *client.Router, insert, deleteIDs string, seal, sealCompact bool) bool {
	mutated := false
	if insert != "" {
		mutated = true
		var ids []int
		var codes []bitvec.Code
		for _, pair := range strings.Split(insert, ",") {
			i := strings.IndexByte(pair, ':')
			if i < 0 {
				fatalf("bad -insert pair %q: want id:bit-string", pair)
			}
			id, err := strconv.Atoi(strings.TrimSpace(pair[:i]))
			if err != nil || id < 0 {
				fatalf("bad -insert id %q", pair[:i])
			}
			c, err := bitvec.FromString(strings.TrimSpace(pair[i+1:]))
			if err != nil {
				fatalf("bad -insert code in %q: %v", pair, err)
			}
			if c.Len() != r.Length() {
				fatalf("-insert code for id %d is %d bits; the deployment serves %d-bit codes", id, c.Len(), r.Length())
			}
			ids = append(ids, id)
			codes = append(codes, c)
		}
		replaced, err := r.Insert(ids, codes)
		if err != nil {
			fatalf("insert: %v", err)
		}
		fmt.Printf("haquery: upserted %d tuples (%d replaced an older version)\n", len(ids), replaced)
	}
	if deleteIDs != "" {
		mutated = true
		var ids []int
		for _, s := range strings.Split(deleteIDs, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || id < 0 {
				fatalf("bad -delete id %q", s)
			}
			ids = append(ids, id)
		}
		deleted, err := r.Delete(ids)
		if err != nil {
			fatalf("delete: %v", err)
		}
		fmt.Printf("haquery: deleted %d of %d ids\n", deleted, len(ids))
	}
	if seal || sealCompact {
		mutated = true
		seals, err := r.Seal(sealCompact)
		if err != nil {
			fatalf("seal: %v", err)
		}
		for m, sok := range seals {
			fmt.Printf("haquery: shard %d sealed: %d segments, %d memtable entries, %d tombstones, epoch %d\n",
				m, sok.Segments, sok.MemtableSize, sok.Tombstones, sok.Epoch)
		}
	}
	return mutated
}

// loadQueries parses -codes, or the selected -rows of -codes-file.
func loadQueries(codesCSV, codesFile, rows string, length int) []bitvec.Code {
	var out []bitvec.Code
	parse := func(s string) bitvec.Code {
		c, err := bitvec.FromString(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad code %q: %v", s, err)
		}
		if c.Len() != length {
			fatalf("code %q is %d bits; the deployment serves %d-bit codes", s, c.Len(), length)
		}
		return c
	}
	if codesCSV != "" {
		for _, s := range strings.Split(codesCSV, ",") {
			out = append(out, parse(s))
		}
	}
	if codesFile != "" {
		f, err := os.Open(codesFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		var lines []string
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if s := strings.TrimSpace(sc.Text()); s != "" {
				lines = append(lines, s)
			}
		}
		if err := sc.Err(); err != nil {
			fatalf("%v", err)
		}
		for _, part := range strings.Split(rows, ",") {
			lo, hi, err := parseRange(strings.TrimSpace(part))
			if err != nil || lo < 0 || hi >= len(lines) || lo > hi {
				fatalf("invalid row selection %q (file has %d rows)", part, len(lines))
			}
			for row := lo; row <= hi; row++ {
				out = append(out, parse(lines[row]))
			}
		}
	}
	return out
}

func parseRange(s string) (lo, hi int, err error) {
	if i := strings.IndexByte(s, '-'); i >= 0 {
		if lo, err = strconv.Atoi(s[:i]); err != nil {
			return
		}
		hi, err = strconv.Atoi(s[i+1:])
		return
	}
	lo, err = strconv.Atoi(s)
	return lo, lo, err
}

// diffOracle rebuilds one in-process index from every snapshot in dir and
// checks the distributed answers against it, id for id.
func diffOracle(dir string, queries []bitvec.Code, h, topk int, got [][]int, tkIDs, tkDists [][]int) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.hasn"))
	if err != nil || len(paths) == 0 {
		fatalf("oracle: no *.hasn snapshots in %s", dir)
	}
	sort.Strings(paths)
	var ids []int
	var codes []bitvec.Code
	for _, p := range paths {
		_, idx, err := wire.ReadSnapshotFile(p)
		if err != nil {
			fatalf("oracle: %v", err)
		}
		// Both snapshot forms (pointer and frozen) enumerate their tuples.
		idx.(interface {
			Tuples(func(id int, code bitvec.Code))
		}).Tuples(func(id int, code bitvec.Code) {
			ids = append(ids, id)
			codes = append(codes, code)
		})
	}
	if len(codes) == 0 {
		fatalf("oracle: snapshots in %s hold no tuples", dir)
	}
	all := core.BuildDynamic(codes, ids, core.Options{})
	sr := core.NewSearcher(all)
	mismatches := 0
	for i, q := range queries {
		want := append([]int(nil), sr.Search(q, h)...)
		sort.Ints(want)
		if !equalInts(got[i], want) {
			mismatches++
			fmt.Fprintf(os.Stderr, "haquery: MISMATCH query %d: shards %v, oracle %v\n", i, got[i], want)
		}
		if topk > 0 {
			wIDs, wDists := sr.TopK(q, topk)
			if !equalInts(tkIDs[i], wIDs) || !equalInts(tkDists[i], wDists) {
				mismatches++
				fmt.Fprintf(os.Stderr, "haquery: MISMATCH top-%d query %d: shards (%v,%v), oracle (%v,%v)\n",
					topk, i, tkIDs[i], tkDists[i], wIDs, wDists)
			}
		}
	}
	if mismatches > 0 {
		fatalf("oracle: %d mismatching queries", mismatches)
	}
	fmt.Printf("haquery: oracle check passed — %d queries identical to the in-process index (%d tuples)\n",
		len(queries), all.Len())
}

// latSummary renders a nanosecond-valued histogram summary as durations.
func latSummary(h obs.HistSummary) string {
	if h.Count == 0 {
		return "empty"
	}
	us := func(ns int64) time.Duration { return time.Duration(ns).Round(time.Microsecond) }
	return fmt.Sprintf("p50=%v p95=%v p99=%v max=%v (n=%d)",
		us(h.P50), us(h.P95), us(h.P99), us(h.Max), h.Count)
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

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haquery: "+format+"\n", args...)
	os.Exit(1)
}
