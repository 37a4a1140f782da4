// Package core implements the paper's primary contribution: the HA-Index, in
// its static (Section 4.3) and dynamic (Sections 4.4–4.6) variants.
//
// The Dynamic HA-Index sorts the dataset's binary codes in Gray order — so
// that codes with small mutual Hamming distance become neighbours — and then
// repeatedly groups consecutive items with a sliding window, extracting from
// each window the maximal fixed-length subsequence (FLSSeq) the items share.
// Each FLSSeq becomes an internal node; nodes with identical patterns are
// consolidated. A Hamming range query walks the resulting hierarchy
// breadth-first, computing at every node only the distance contribution of
// the bit positions that node fixes beyond its parent, and prunes an entire
// subtree the moment the accumulated distance exceeds the threshold
// (Proposition 1, the Hamming downward-closure property). Every shared
// pattern is therefore XORed against the query at most once — the redundancy
// elimination that gives the index its speedup.
package core

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"haindex/internal/bitvec"
	"haindex/internal/gray"
)

// Options configures HA-Index construction (Algorithm 1).
type Options struct {
	// Window is the H-Build window size w: the maximum number of
	// consecutive Gray-ordered items grouped under one FLSSeq node. Groups
	// grow adaptively while the shared pattern keeps at least the level's
	// bit threshold (the paper's "sequences of data points that are close
	// in their binary values"); Window caps the growth. 0 selects 64.
	Window int
	// Depth is the maximum index depth md. 0 selects 8.
	Depth int
	// MinShared is the floor on the per-level shared-bit threshold: level d
	// (1-based) requires ceil(L/2^d) shared bits, never below MinShared.
	// Items that cannot group at a level pass through and may group at a
	// higher level with a lower threshold; leftovers link to the top level
	// (Algorithm 1, line 16). Default 1.
	MinShared int
	// BufferMax is the insert buffer capacity; reaching it triggers the
	// H-Build append of Section 4.5. 0 selects 256.
	BufferMax int

	// LexOrder sorts leaves lexicographically instead of by Gray rank — an
	// ablation switch for measuring what Gray-order clustering contributes
	// (Proposition 2). Production use should leave it false.
	LexOrder bool
	// NoConsolidate disables merging of window nodes with identical
	// FLSSeq patterns — the node-consolidation ablation.
	NoConsolidate bool
}

func (o Options) withDefaults(n int) Options {
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.Depth <= 0 {
		o.Depth = 8
	}
	if o.MinShared <= 0 {
		o.MinShared = 1
	}
	if o.BufferMax <= 0 {
		o.BufferMax = 256
	}
	return o
}

// SearchStats reports the work performed by the most recent search.
type SearchStats struct {
	// DistanceComputations counts pattern- or code-level XOR+popcount
	// evaluations — the redundancy metric the HA-Index minimizes.
	DistanceComputations int
	// NodesVisited counts internal nodes dequeued.
	NodesVisited int
	// LeavesChecked counts leaf groups whose full residual was evaluated.
	LeavesChecked int
}

// leafGroup stores one distinct binary code with the ids of all tuples
// hashing to it (the per-bottom-node hash table of Section 4.5).
type leafGroup struct {
	code   bitvec.Code
	ids    []int
	parent *dnode // nil when linked at the top level
}

// dnode is an internal Dynamic HA-Index node holding the FLSSeq shared by
// everything beneath it.
type dnode struct {
	pat      bitvec.Pattern
	children []*dnode
	leaves   []*leafGroup
	parent   *dnode // nil at roots
	freq     int    // number of tuples beneath (Algorithm 1, line 10)

	// res holds the node's residual pattern relative to its parent —
	// mask words followed by bits words in one contiguous allocation — so
	// H-Search touches a single cache line per candidate instead of
	// chasing the pattern's slices and re-deriving the parent exclusion.
	res []uint64
}

// DynamicIndex is the Dynamic HA-Index of Section 4.4.
type DynamicIndex struct {
	opts   Options
	length int
	roots  []*dnode
	// topLeaves are leaf groups that shared no FLSSeq with their window and
	// are linked directly at the top level.
	topLeaves []*leafGroup
	byCode    map[string]*leafGroup
	n         int

	// buffer holds inserts not yet merged into the hierarchy (Section 4.5).
	buffer []pendingInsert
}

type pendingInsert struct {
	id   int
	code bitvec.Code
}

// BuildDynamic bulkloads a Dynamic HA-Index over the codes with their tuple
// ids (positions if ids is nil), per Algorithm 1 (H-Build).
func BuildDynamic(codes []bitvec.Code, ids []int, opts Options) *DynamicIndex {
	if len(codes) == 0 {
		panic("core: BuildDynamic over empty dataset")
	}
	if codes[0].Len() == 0 {
		panic("core: BuildDynamic over zero-length codes")
	}
	length := codes[0].Len()
	idx := &DynamicIndex{
		opts:   opts.withDefaults(len(codes)),
		length: length,
		byCode: make(map[string]*leafGroup),
	}
	for i, c := range codes {
		if c.Len() != length {
			panic(fmt.Sprintf("core: mixed code lengths %d and %d", length, c.Len()))
		}
		id := i
		if ids != nil {
			id = ids[i]
		}
		idx.addLeaf(id, c)
	}
	idx.rebuild()
	return idx
}

// addLeaf registers a tuple into its (possibly new) leaf group without
// touching the hierarchy.
func (x *DynamicIndex) addLeaf(id int, c bitvec.Code) *leafGroup {
	key := c.Key()
	g := x.byCode[key]
	if g == nil {
		g = &leafGroup{code: c}
		x.byCode[key] = g
	}
	g.ids = append(g.ids, id)
	x.n++
	return g
}

// rebuild reconstructs the hierarchy from the current leaf groups: the
// H-Build sliding-window pass over the Gray-ordered leaves, repeated level by
// level until the configured depth (Algorithm 1, lines 1–24).
func (x *DynamicIndex) rebuild() {
	groups := make([]*leafGroup, 0, len(x.byCode))
	codes := make([]bitvec.Code, 0, len(x.byCode))
	for _, g := range x.byCode {
		groups = append(groups, g)
		codes = append(codes, g.code)
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	if x.opts.LexOrder {
		sort.SliceStable(order, func(a, b int) bool {
			return groups[order[a]].code.Compare(groups[order[b]].code) < 0
		})
	} else {
		gray.Sort(codes, order)
	}
	sorted := make([]*leafGroup, len(groups))
	for i, j := range order {
		sorted[i] = groups[j]
	}
	x.buildFromSorted(sorted)
}

// buildFromSorted runs the level-by-level H-Build over leaf groups already
// in build order.
func (x *DynamicIndex) buildFromSorted(sorted []*leafGroup) {
	x.roots = nil
	x.topLeaves = nil
	for _, g := range sorted {
		g.parent = nil
	}

	w := x.opts.Window
	// Level 1: window over leaf groups.
	type item struct {
		node *dnode
		leaf *leafGroup
	}
	pat := func(it item) bitvec.Pattern {
		if it.node != nil {
			return it.node.pat
		}
		return bitvec.PatternOf(it.leaf.code)
	}
	freq := func(it item) int {
		if it.node != nil {
			return it.node.freq
		}
		return len(it.leaf.ids)
	}

	items := make([]item, len(sorted))
	for i, g := range sorted {
		items[i] = item{leaf: g}
	}

	for depth := 0; depth < x.opts.Depth && len(items) > 1; depth++ {
		// Per-level shared-bit threshold: L/2 at the first level, halving
		// each level up (Section 4.7's window analysis), floored at
		// MinShared so sparse data still aggregates near the top.
		minShared := thresholdAt(x.length, depth)
		if minShared < x.opts.MinShared {
			minShared = x.opts.MinShared
		}
		var next []item
		consolidate := make(map[string]*dnode)
		progressed := false
		at := 0
		for at < len(items) {
			// Grow the group while the shared pattern stays informative.
			shared := pat(items[at])
			end := at + 1
			for end < len(items) && end-at < w {
				cand := bitvec.SharedPattern(shared, pat(items[end]))
				if cand.FixedCount() < minShared {
					break
				}
				shared = cand
				end++
			}
			window := items[at:end]
			at = end
			if len(window) == 1 {
				// Nothing grouped here: pass the item through so it can
				// still merge at a higher level with a lower threshold.
				next = append(next, window[0])
				continue
			}
			progressed = true
			var parent *dnode
			if !x.opts.NoConsolidate {
				parent = consolidate[shared.Key()]
			}
			if parent == nil {
				parent = &dnode{pat: shared}
				if !x.opts.NoConsolidate {
					consolidate[shared.Key()] = parent
				}
				next = append(next, item{node: parent})
			}
			for _, it := range window {
				parent.freq += freq(it)
				if it.node != nil {
					it.node.parent = parent
					parent.children = append(parent.children, it.node)
				} else {
					it.leaf.parent = parent
					parent.leaves = append(parent.leaves, it.leaf)
				}
			}
		}
		items = next
		if !progressed && minShared == x.opts.MinShared {
			// No grouping is possible even at the floor threshold; further
			// levels would spin.
			break
		}
	}
	for _, it := range items {
		x.promote(it.node, it.leaf)
	}
	x.finalizeResiduals()
}

// finalizeResiduals precomputes every node's residual pattern words (mask
// beyond the parent, then bits), top-down.
func (x *DynamicIndex) finalizeResiduals() {
	var rec func(n *dnode)
	rec = func(n *dnode) {
		var exclude []uint64
		if n.parent != nil {
			exclude = n.parent.pat.Mask().Words()
		}
		mw := n.pat.Mask().Words()
		bw := n.pat.Bits().Words()
		res := make([]uint64, 2*len(mw))
		for i := range mw {
			m := mw[i]
			if exclude != nil {
				m &^= exclude[i]
			}
			res[i] = m
			res[len(mw)+i] = bw[i] & m
		}
		n.res = res
		for _, c := range n.children {
			rec(c)
		}
	}
	for _, r := range x.roots {
		rec(r)
	}
}

// thresholdAt returns the shared-bit requirement for grouping at the given
// build level (0 = just above the leaves). The schedule starts at 3L/4 and
// decays geometrically so that lower levels form tight groups whose leaves
// are nearly identical, while upper levels keep aggregating.
func thresholdAt(length, depth int) int {
	t := (length * 3 / 4) >> uint(depth)
	if t < 1 {
		t = 1
	}
	return t
}

// promote links an item at the top level of the index.
func (x *DynamicIndex) promote(n *dnode, g *leafGroup) {
	if n != nil {
		n.parent = nil
		x.roots = append(x.roots, n)
		return
	}
	g.parent = nil
	x.topLeaves = append(x.topLeaves, g)
}

// Len returns the number of indexed tuples (including buffered inserts).
func (x *DynamicIndex) Len() int { return x.n + len(x.buffer) }

// Length returns the code length L in bits.
func (x *DynamicIndex) Length() int { return x.length }

// Search returns the ids of all tuples whose codes are within Hamming
// distance h of q (Algorithm 3, H-Search). Callers that want the per-query
// work use SearchInto or a Searcher.
func (x *DynamicIndex) Search(q bitvec.Code, h int) []int {
	var stats SearchStats
	return x.SearchInto(q, h, &stats)
}

// SearchInto is Search with caller-owned statistics; it does not mutate the
// index and is safe for concurrent use.
func (x *DynamicIndex) SearchInto(q bitvec.Code, h int, stats *SearchStats) []int {
	var out []int
	x.search(q, h, stats, func(g *leafGroup) { out = append(out, g.ids...) })
	for _, p := range x.buffer {
		stats.DistanceComputations++
		if _, ok := q.DistanceWithin(p.code, h); ok {
			out = append(out, p.id)
		}
	}
	return out
}

// SearchCodes returns the distinct qualifying binary codes instead of tuple
// ids — the leafless mode used by MapReduce Hamming-join Option B, where a
// post-processing join recovers the ids.
func (x *DynamicIndex) SearchCodes(q bitvec.Code, h int) []bitvec.Code {
	var stats SearchStats
	return x.SearchCodesInto(q, h, &stats)
}

// SearchCodesInto is SearchCodes with caller-owned statistics, safe for
// concurrent use.
func (x *DynamicIndex) SearchCodesInto(q bitvec.Code, h int, stats *SearchStats) []bitvec.Code {
	var out []bitvec.Code
	x.search(q, h, stats, func(g *leafGroup) { out = append(out, g.code) })
	for _, p := range x.buffer {
		stats.DistanceComputations++
		if _, ok := q.DistanceWithin(p.code, h); ok {
			out = append(out, p.code)
		}
	}
	return out
}

// search runs the breadth-first H-Search over the hierarchy, invoking emit
// for every qualifying leaf group. At each node only the bits fixed beyond
// the parent are charged, so along any root-to-leaf path each bit position
// is XORed exactly once.
func (x *DynamicIndex) search(q bitvec.Code, h int, stats *SearchStats, emit func(*leafGroup)) {
	queue := queuePool.Get().(*[]qitem)
	defer func() {
		*queue = (*queue)[:0]
		queuePool.Put(queue)
	}()
	x.searchHier(queue, q, h, stats, emit)
}

// searchWith implements Index: the same H-Search on the searcher's own work
// queue (reused across queries), followed by a linear pass over the
// unflushed insert buffer through emitOne.
func (x *DynamicIndex) searchWith(sr *Searcher, q bitvec.Code, h int, emitGroup func(*leafGroup), emitOne func(int, bitvec.Code)) {
	x.searchHier(&sr.queue, q, h, &sr.Stats, emitGroup)
	for i := range x.buffer {
		sr.Stats.DistanceComputations++
		if _, ok := q.DistanceWithin(x.buffer[i].code, h); ok {
			emitOne(x.buffer[i].id, x.buffer[i].code)
		}
	}
}

// searchHier is the H-Search core over a caller-supplied queue; *queue is
// left grown so pooling callers keep the high-water capacity.
func (x *DynamicIndex) searchHier(queue *[]qitem, q bitvec.Code, h int, stats *SearchStats, emit func(*leafGroup)) {
	if q.Len() != x.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit index", q.Len(), x.length))
	}
	*queue = (*queue)[:0]
	qw := q.Words()
	nw := len(qw)
	for _, r := range x.roots {
		stats.DistanceComputations++
		if d := residualDistance(r.res, qw, nw); d <= h {
			*queue = append(*queue, qitem{n: r, dist: d})
		}
	}
	for _, g := range x.topLeaves {
		stats.DistanceComputations++
		stats.LeavesChecked++
		if _, ok := q.DistanceWithin(g.code, h); ok {
			emit(g)
		}
	}
	for head := 0; head < len(*queue); head++ {
		it := (*queue)[head]
		stats.NodesVisited++
		for _, c := range it.n.children {
			stats.DistanceComputations++
			if d := it.dist + residualDistance(c.res, qw, nw); d <= h {
				*queue = append(*queue, qitem{n: c, dist: d})
			}
		}
		if len(it.n.leaves) > 0 {
			mask := it.n.pat.Mask()
			for _, g := range it.n.leaves {
				stats.DistanceComputations++
				stats.LeavesChecked++
				if it.dist+q.DistanceExcluding(g.code, mask) <= h {
					emit(g)
				}
			}
		}
	}
}

// qitem is one H-Search queue entry.
type qitem struct {
	n    *dnode
	dist int
}

// queuePool recycles H-Search work queues across queries.
var queuePool = sync.Pool{New: func() interface{} {
	s := make([]qitem, 0, 128)
	return &s
}}

// residualDistance counts differing bits between the query words and a
// node's residual pattern (mask words then bits words).
func residualDistance(res, qw []uint64, nw int) int {
	d := 0
	for i := 0; i < nw; i++ {
		d += bits.OnesCount64((qw[i] ^ res[nw+i]) & res[i])
	}
	return d
}

// Insert adds a tuple (Section 4.5): the tuple enters a temporary buffer,
// and when the buffer reaches its maximum size an H-Build pass appends the
// buffered tuples into the hierarchy.
func (x *DynamicIndex) Insert(id int, c bitvec.Code) {
	if c.Len() != x.length {
		panic(fmt.Sprintf("core: inserting %d-bit code into %d-bit index", c.Len(), x.length))
	}
	// Fast path: the code already has a leaf group — join it directly. No
	// ancestor mask needs widening: the inserted code is bit-identical to the
	// group's code, which already matches every ancestor's FLSSeq pattern, so
	// the soundness invariant (each leaf beneath a node agrees with the node's
	// pattern on all its fixed positions) is untouched. Only the frequencies
	// change. Pinned by TestMutatePropertyVsOracle / checkHierarchyInvariants.
	if g, ok := x.byCode[c.Key()]; ok {
		g.ids = append(g.ids, id)
		x.n++
		for n := g.parent; n != nil; n = n.parent {
			n.freq++
		}
		return
	}
	x.buffer = append(x.buffer, pendingInsert{id: id, code: c})
	if len(x.buffer) >= x.opts.BufferMax {
		x.Flush()
	}
}

// Flush merges all buffered inserts into the hierarchy.
func (x *DynamicIndex) Flush() {
	if len(x.buffer) == 0 {
		return
	}
	for _, p := range x.buffer {
		x.addLeaf(p.id, p.code)
	}
	x.buffer = x.buffer[:0]
	x.rebuild()
}

// Delete removes the tuple with the given id and code (Algorithm 2,
// H-Delete): the leaf is located, frequencies along its path are
// decremented, and nodes whose frequency reaches zero are unlinked.
// It reports whether a tuple was removed.
//
// Ancestor residual and full masks are deliberately NOT recomputed. A node's
// pattern was the FLSSeq shared by every item beneath it at build time;
// removing an item leaves the survivors still matching that pattern, so the
// soundness invariant H-Search depends on (descendants agree with the node
// pattern on all fixed positions, hence per-node residual charges are exact
// along any root-to-leaf path) is preserved. The masks may become narrower
// than the survivors' true FLSSeq — the hierarchy loses pruning power, never
// correctness — until the next rebuild() re-tightens them. Pinned by
// TestMutatePropertyVsOracle / checkHierarchyInvariants.
func (x *DynamicIndex) Delete(id int, c bitvec.Code) bool {
	for i, p := range x.buffer {
		if p.id == id && p.code.Equal(c) {
			x.buffer = append(x.buffer[:i], x.buffer[i+1:]...)
			return true
		}
	}
	g, ok := x.byCode[c.Key()]
	if !ok {
		return false
	}
	found := false
	for i, v := range g.ids {
		if v == id {
			g.ids = append(g.ids[:i], g.ids[i+1:]...)
			found = true
			break
		}
	}
	if !found {
		return false
	}
	x.n--
	if len(g.ids) == 0 {
		delete(x.byCode, c.Key())
		if g.parent == nil {
			x.topLeaves = removeLeaf(x.topLeaves, g)
		} else {
			g.parent.leaves = removeLeaf(g.parent.leaves, g)
		}
	}
	// Decrement frequencies and unlink empty nodes bottom-up.
	for n := g.parent; n != nil; {
		n.freq--
		parent := n.parent
		if n.freq <= 0 {
			if parent == nil {
				x.roots = removeNode(x.roots, n)
			} else {
				parent.children = removeNode(parent.children, n)
			}
		}
		n = parent
	}
	return true
}

func removeLeaf(s []*leafGroup, g *leafGroup) []*leafGroup {
	for i, x := range s {
		if x == g {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeNode(s []*dnode, n *dnode) []*dnode {
	for i, x := range s {
		if x == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// NodeCount returns the number of internal nodes |V| (Section 4.7).
func (x *DynamicIndex) NodeCount() int {
	count := 0
	x.walk(func(*dnode) { count++ })
	return count
}

// EdgeCount returns the number of hierarchy edges |E|, counting node→node
// and node→leaf links (Section 4.7).
func (x *DynamicIndex) EdgeCount() int {
	count := 0
	x.walk(func(n *dnode) { count += len(n.children) + len(n.leaves) })
	return count
}

func (x *DynamicIndex) walk(fn func(*dnode)) {
	var rec func(*dnode)
	rec = func(n *dnode) {
		fn(n)
		for _, c := range n.children {
			rec(c)
		}
	}
	for _, r := range x.roots {
		rec(r)
	}
}

// SizeBytes returns the approximate total in-memory footprint, including the
// leaf-level hash table.
func (x *DynamicIndex) SizeBytes() int {
	return x.InternalSizeBytes() + x.LeafSizeBytes()
}

// InternalSizeBytes returns the footprint of the internal nodes only — the
// part broadcast by MapReduce Hamming-join Option B, which drops the leaf
// id tables (Section 5.3).
func (x *DynamicIndex) InternalSizeBytes() int {
	sz := 0
	x.walk(func(n *dnode) {
		sz += 64 + n.pat.SizeBytes() + 8*(len(n.children)+len(n.leaves))
	})
	return sz
}

// LeafSizeBytes returns the footprint of the leaf groups and their id hash
// table.
func (x *DynamicIndex) LeafSizeBytes() int {
	return x.LeafCodeSizeBytes() + x.LeafIDSizeBytes()
}

// LeafCodeSizeBytes returns the footprint of the distinct leaf codes alone.
func (x *DynamicIndex) LeafCodeSizeBytes() int {
	sz := 0
	for _, g := range x.byCode {
		sz += 48 + g.code.SizeBytes()
	}
	for _, p := range x.buffer {
		sz += 16 + p.code.SizeBytes()
	}
	return sz
}

// LeafIDSizeBytes returns the footprint of the per-leaf tuple-id tables —
// the part MapReduce Hamming-join Option B omits from the broadcast.
func (x *DynamicIndex) LeafIDSizeBytes() int {
	sz := 0
	for _, g := range x.byCode {
		sz += 8 * len(g.ids)
	}
	return sz
}

// BroadcastSizeBytes returns the serialized size shipped to each node by the
// distributed join: with ids (Option A) or leafless (Option B).
func (x *DynamicIndex) BroadcastSizeBytes(withIDs bool) int {
	sz := x.InternalSizeBytes() + x.LeafCodeSizeBytes()
	if withIDs {
		sz += x.LeafIDSizeBytes()
	}
	return sz
}

// Codes returns the distinct indexed codes in unspecified order; used when
// repartitioning or merging indexes.
func (x *DynamicIndex) Codes() []bitvec.Code {
	out := make([]bitvec.Code, 0, len(x.byCode))
	for _, g := range x.byCode {
		out = append(out, g.code)
	}
	return out
}

// Tuples invokes fn for every (id, code) pair in the index, including
// buffered inserts.
func (x *DynamicIndex) Tuples(fn func(id int, code bitvec.Code)) {
	for _, g := range x.byCode {
		for _, id := range g.ids {
			fn(id, g.code)
		}
	}
	for _, p := range x.buffer {
		fn(p.id, p.code)
	}
}
