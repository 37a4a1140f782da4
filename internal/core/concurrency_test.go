package core

import (
	"math/rand"
	"sync"
	"testing"

	"haindex/internal/bitvec"
)

// TestConcurrentSearchInto exercises the reducer scenario: many goroutines
// searching one shared index with caller-owned stats. Run with -race.
func TestConcurrentSearchInto(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	codes := clusteredCodes(rng, 2000, 32, 10, 3)
	idx := BuildDynamic(codes, nil, Options{})
	queries := make([]bitvec.Code, 64)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))]
	}
	expected := make([][]int, len(queries))
	for i, q := range queries {
		expected[i] = oracle(codes, q, 3)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var stats SearchStats
			for r := 0; r < 50; r++ {
				i := (w*50 + r) % len(queries)
				got := idx.SearchInto(queries[i], 3, &stats)
				if !equalIDs(got, expected[i]) {
					errs <- "concurrent search mismatch"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestConcurrentSearchers exercises the broadcast-index contract for both
// variants: one shared read-only index, one Searcher per goroutine, exact
// results under -race.
func TestConcurrentSearchers(t *testing.T) {
	rng := rand.New(rand.NewSource(146))
	codes := clusteredCodes(rng, 2000, 32, 10, 3)
	queries := make([]bitvec.Code, 64)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))]
	}
	expected := make([][]int, len(queries))
	for i, q := range queries {
		expected[i] = oracle(codes, q, 3)
	}
	for _, idx := range []Index{
		BuildDynamic(codes, nil, Options{}),
		BuildStatic(codes, nil, 8),
	} {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sr := NewSearcher(idx)
				for r := 0; r < 50; r++ {
					i := (w*50 + r) % len(queries)
					if got := sr.Search(queries[i], 3); !equalIDs(got, expected[i]) {
						errs <- "concurrent searcher mismatch"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%T: %s", idx, e)
		}
	}
}

// TestConcurrentSearchBatches runs several SearchBatch calls concurrently on
// one shared index — the reducer fan-out of the MapReduce join — under -race.
func TestConcurrentSearchBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(147))
	codes := clusteredCodes(rng, 1500, 32, 8, 3)
	idx := BuildDynamic(codes, nil, Options{})
	queries := make([]bitvec.Code, 40)
	for i := range queries {
		queries[i] = codes[rng.Intn(len(codes))]
	}
	expected := make([][]int, len(queries))
	for i, q := range queries {
		expected[i] = oracle(codes, q, 3)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, _ := SearchBatch(idx, queries, 3, 4)
			for i := range queries {
				if !equalIDs(results[i], expected[i]) {
					errs <- "concurrent batch mismatch"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestStaticBudgetFallback drives the static index into its loose-threshold
// fallback and verifies exactness there.
func TestStaticBudgetFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	codes := make([]bitvec.Code, 400)
	for i := range codes {
		codes[i] = bitvec.Rand(rng, 64)
	}
	st := BuildStatic(codes, nil, 8)
	for _, h := range []int{20, 40, 63} {
		q := bitvec.Rand(rng, 64)
		if got, want := st.Search(q, h), oracle(codes, q, h); !equalIDs(got, want) {
			t.Fatalf("h=%d: fallback search mismatch (%d vs %d results)", h, len(got), len(want))
		}
	}
}

// TestDynamicHugeThreshold: with h = L every tuple qualifies, and the search
// must remain linear-bounded, not exponential.
func TestDynamicHugeThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	codes := clusteredCodes(rng, 1500, 32, 8, 3)
	dyn := BuildDynamic(codes, nil, Options{})
	var st SearchStats
	got := dyn.SearchInto(bitvec.Rand(rng, 32), 32, &st)
	if len(got) != len(codes) {
		t.Fatalf("h=L should return everything: %d of %d", len(got), len(codes))
	}
	if st.DistanceComputations > 4*len(codes) {
		t.Fatalf("search work %d not linear-bounded", st.DistanceComputations)
	}
}

// TestResidualInvariant: along every root-to-leaf path the residual masks
// are disjoint and union to the node's full pattern mask.
func TestResidualInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	codes := clusteredCodes(rng, 800, 64, 8, 3)
	dyn := BuildDynamic(codes, nil, Options{})
	var rec func(n *dnode, accMask []uint64)
	rec = func(n *dnode, accMask []uint64) {
		nw := len(accMask)
		for i := 0; i < nw; i++ {
			if n.res[i]&accMask[i] != 0 {
				t.Fatal("residual overlaps ancestor mask")
			}
		}
		// acc + residual must equal the node's own pattern mask.
		own := n.pat.Mask().Words()
		next := make([]uint64, nw)
		for i := 0; i < nw; i++ {
			next[i] = accMask[i] | n.res[i]
			if next[i] != own[i] {
				t.Fatal("residual + parent mask != node mask")
			}
		}
		for _, c := range n.children {
			rec(c, next)
		}
	}
	for _, r := range dyn.roots {
		rec(r, make([]uint64, len(r.pat.Mask().Words())))
	}
}

// TestFrequencies: node frequencies equal the number of tuples beneath.
func TestFrequencies(t *testing.T) {
	rng := rand.New(rand.NewSource(145))
	codes := clusteredCodes(rng, 600, 32, 6, 3)
	dyn := BuildDynamic(codes, nil, Options{})
	var count func(n *dnode) int
	count = func(n *dnode) int {
		total := 0
		for _, c := range n.children {
			total += count(c)
		}
		for _, g := range n.leaves {
			total += len(g.ids)
		}
		if total != n.freq {
			t.Fatalf("node freq %d but %d tuples beneath", n.freq, total)
		}
		return total
	}
	total := 0
	for _, r := range dyn.roots {
		total += count(r)
	}
	for _, g := range dyn.topLeaves {
		total += len(g.ids)
	}
	if total != len(codes) {
		t.Fatalf("hierarchy covers %d of %d tuples", total, len(codes))
	}
}
