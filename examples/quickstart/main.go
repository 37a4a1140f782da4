// Quickstart walks the paper's running example (Tables 2 and 3) through the
// public API: the eight binary codes of Table 2a are indexed in a Dynamic
// HA-Index, Example 1's Hamming-select runs at h=3, the Table 3 trace query
// follows, and the Hamming-join of Tables 2a×2b finishes the tour.
package main

import (
	"fmt"
	"sort"

	"haindex"
)

func main() {
	// Table 2a: dataset S.
	sCodes := []haindex.Code{
		haindex.MustCode("001 001 010"), // t0
		haindex.MustCode("001 011 101"), // t1
		haindex.MustCode("011 001 100"), // t2
		haindex.MustCode("101 001 010"), // t3
		haindex.MustCode("101 110 110"), // t4
		haindex.MustCode("101 011 101"), // t5
		haindex.MustCode("101 101 010"), // t6
		haindex.MustCode("111 001 100"), // t7
	}
	// Table 2b: dataset R.
	rCodes := []haindex.Code{
		haindex.MustCode("101 100 010"), // r0
		haindex.MustCode("101 010 010"), // r1
		haindex.MustCode("110 000 010"), // r2
	}

	idx := haindex.BuildDynamicIndex(sCodes, nil, haindex.IndexOptions{Window: 2, Depth: 3})
	fmt.Printf("Dynamic HA-Index over %d tuples: %d internal nodes, %d edges\n\n",
		idx.Len(), idx.NodeCount(), idx.EdgeCount())

	// Example 1: Hamming-select with tq = "101100010", h = 3.
	tq := haindex.MustCode("101100010")
	var work haindex.SearchStats
	matches := idx.SearchInto(tq, 3, &work)
	sort.Ints(matches)
	fmt.Printf("h-select(%s, S) at h=3: t%v\n", tq, matches)
	fmt.Printf("  (paper's Example 1 expects {t0, t3, t4, t6})\n")
	fmt.Printf("  work: %d distance computations for 8 tuples\n\n", work.DistanceComputations)

	// Table 3's trace query.
	trace := haindex.MustCode("010001011")
	matches = idx.Search(trace, 3)
	fmt.Printf("h-select(%s, S) at h=3: t%v (Table 3 expects {t0})\n\n", trace, matches)

	// Example 1 continued: the Hamming-join of R and S at h=3.
	fmt.Println("h-join(R, S) at h=3:")
	for ri, rc := range rCodes {
		partners := idx.Search(rc, 3)
		sort.Ints(partners)
		for _, si := range partners {
			fmt.Printf("  (r%d, t%d)\n", ri, si)
		}
	}
	fmt.Println("  (paper expects r0,r1 x {t0,t3,t4,t6} and (r2,t3))")

	// Updates: delete t4, insert it back (Section 4.5).
	if !idx.Delete(4, sCodes[4]) {
		panic("delete failed")
	}
	after := idx.Search(tq, 3)
	sort.Ints(after)
	fmt.Printf("\nafter deleting t4, h-select(%s) = t%v\n", tq, after)
	idx.Insert(4, sCodes[4])
	restored := idx.Search(tq, 3)
	sort.Ints(restored)
	fmt.Printf("after re-inserting t4       = t%v\n", restored)
}
