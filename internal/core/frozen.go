package core

import (
	"fmt"
	"math/bits"
	"sort"

	"haindex/internal/bitvec"
)

// FrozenIndex is the compiled, read-only form of the Dynamic HA-Index: the
// pointer hierarchy flattened into structure-of-arrays storage so H-Search
// walks contiguous memory instead of chasing *dnode children.
//
// Nodes are numbered in level (BFS) order — roots are ids [0, nRoots), every
// child id is strictly greater than its parent's — and their edges are CSR
// slices: node i's children are childList[childStart[i]:childStart[i+1]] and
// its leaf groups leafList[leafStart[i]:leafStart[i+1]]. The per-node
// residual pattern words (mask then bits&mask, the same layout dnode.res
// uses) are packed back to back in resSlab at offset i*2*nw, and the node's
// full pattern mask (for the leaf-level DistanceExcluding) in maskSlab at
// i*nw. Leaf codes sit word-packed in Gray (hierarchy) order in codeSlab,
// tuple ids in idSlab with idStart offsets; fillGroup materializes any group
// on demand into a per-Searcher scratch leafGroup whose code and ids alias
// the arena, so the Searcher's existing emit closures work unchanged without
// a resident groups array.
//
// A FrozenIndex is immutable: it has no insert buffer and no Insert/Delete.
// It implements Index, so Searcher, SearchBatch, SearchCodesBatch, and TopK
// all run over it; TopK additionally reuses an epoch-packed per-node memo so
// radius escalation computes each node's residual distance at most once.
type FrozenIndex struct {
	length int // code length L in bits
	n      int // number of tuples
	nw     int // words per code

	// rootIDs lists the hierarchy roots. An index compiled by Freeze has the
	// contiguous roots [0, len(rootIDs));
	// a streamed arena (FrozenStreamWriter) concatenates chunk forests, so
	// its roots are scattered. Either way every child id strictly exceeds
	// its parent's, which is the invariant the walks and decoders rely on.
	rootIDs []int32

	childStart []int32
	childList  []int32
	leafStart  []int32
	leafList   []int32
	resSlab    []uint64 // 2*nw words per node: residual mask, then bits&mask
	maskSlab   []uint64 // nw words per node: full pattern mask

	codeSlab  []uint64 // nw words per leaf group, Gray order
	idStart   []int32  // nGroups+1 offsets into idSlab
	idSlab    []int
	topLeaves []int32 // leaf groups linked at the top level

	// mapping, when non-nil, is the mmap'd file region every slab above
	// aliases; munmap releases it. The slabs are then read-only: nothing may
	// write through them (see bitvec.FromWordsShared).
	mapping []byte
	munmap  func([]byte) error
}

// Freeze compiles a Dynamic HA-Index into its flat, read-only form. A
// non-empty insert buffer is flushed into the hierarchy first, so frozen
// search answers exactly what the pointer walk would — buffered tuples are
// never dropped. The input index remains valid (and flushed) afterwards.
func Freeze(x *DynamicIndex) *FrozenIndex {
	x.Flush()
	nw := (x.length + 63) / 64

	// Leaf groups in hierarchy order: depth-first under the Gray-built
	// roots, then the top-level leaves — the same contiguous Gray layout the
	// codec serializes.
	srcGroups := make([]*leafGroup, 0, len(x.byCode))
	x.walkGroups(func(g *leafGroup) { srcGroups = append(srcGroups, g) })
	gidx := make(map[*leafGroup]int32, len(srcGroups))
	for i, g := range srcGroups {
		gidx[g] = int32(i)
	}

	// Level-order the nodes: BFS from the roots, so children are contiguous
	// in childList and every child id exceeds its parent's.
	nodes := append([]*dnode(nil), x.roots...)
	for at := 0; at < len(nodes); at++ {
		nodes = append(nodes, nodes[at].children...)
	}
	nidOf := make(map[*dnode]int32, len(nodes))
	for i, n := range nodes {
		nidOf[n] = int32(i)
	}

	f := &FrozenIndex{
		length:  x.length,
		n:       x.n,
		nw:      nw,
		rootIDs: contiguousRoots(len(x.roots)),
	}

	// Leaf arena.
	nIDs := 0
	for _, g := range srcGroups {
		nIDs += len(g.ids)
	}
	f.codeSlab = make([]uint64, len(srcGroups)*nw)
	f.idSlab = make([]int, 0, nIDs)
	f.idStart = make([]int32, len(srcGroups)+1)
	for i, g := range srcGroups {
		copy(f.codeSlab[i*nw:(i+1)*nw], g.code.Words())
		f.idStart[i] = int32(len(f.idSlab))
		f.idSlab = append(f.idSlab, g.ids...)
	}
	f.idStart[len(srcGroups)] = int32(len(f.idSlab))
	f.topLeaves = make([]int32, len(x.topLeaves))
	for i, g := range x.topLeaves {
		f.topLeaves[i] = gidx[g]
	}

	// Node arena.
	nn := len(nodes)
	f.childStart = make([]int32, nn+1)
	f.leafStart = make([]int32, nn+1)
	f.resSlab = make([]uint64, nn*2*nw)
	f.maskSlab = make([]uint64, nn*nw)
	for i, n := range nodes {
		f.childStart[i] = int32(len(f.childList))
		for _, c := range n.children {
			f.childList = append(f.childList, nidOf[c])
		}
		f.leafStart[i] = int32(len(f.leafList))
		for _, g := range n.leaves {
			f.leafList = append(f.leafList, gidx[g])
		}
		copy(f.resSlab[i*2*nw:(i+1)*2*nw], n.res)
		copy(f.maskSlab[i*nw:(i+1)*nw], n.pat.Mask().Words())
	}
	f.childStart[nn] = int32(len(f.childList))
	f.leafStart[nn] = int32(len(f.leafList))
	return f
}

// contiguousRoots returns the identity root list [0, n) — the layout Freeze
// produces.
func contiguousRoots(n int) []int32 {
	roots := make([]int32, n)
	for i := range roots {
		roots[i] = int32(i)
	}
	return roots
}

// fillGroup materializes leaf group gi into the caller's scratch: the code
// and id slices alias the arena (capacity-clamped so appends can never
// bleed). Groups are no longer kept as a resident []leafGroup array — at
// millions of distinct codes the headers alone cost more than the slabs —
// so the walks pass each qualifying group through a per-Searcher scratch
// value instead.
func (f *FrozenIndex) fillGroup(gi int32, g *leafGroup) {
	lo, hi := f.idStart[gi], f.idStart[gi+1]
	g.code = bitvec.FromWordsShared(f.codeSlab[int(gi)*f.nw:int(gi+1)*f.nw], f.length)
	g.ids = f.idSlab[lo:hi:hi]
	g.parent = nil
}

// groupCode returns leaf group gi's code, aliasing the arena.
func (f *FrozenIndex) groupCode(gi int32) bitvec.Code {
	return bitvec.FromWordsShared(f.codeSlab[int(gi)*f.nw:int(gi+1)*f.nw], f.length)
}

// groupIDs returns leaf group gi's tuple ids, aliasing the arena.
func (f *FrozenIndex) groupIDs(gi int32) []int {
	lo, hi := f.idStart[gi], f.idStart[gi+1]
	return f.idSlab[lo:hi:hi]
}

// Len returns the number of indexed tuples.
func (f *FrozenIndex) Len() int { return f.n }

// Length returns the code length L in bits.
func (f *FrozenIndex) Length() int { return f.length }

// NodeCount returns the number of internal nodes.
func (f *FrozenIndex) NodeCount() int { return len(f.childStart) - 1 }

// EdgeCount returns the number of hierarchy edges (node→node and node→leaf).
func (f *FrozenIndex) EdgeCount() int { return len(f.childList) + len(f.leafList) }

// GroupCount returns the number of distinct indexed codes.
func (f *FrozenIndex) GroupCount() int {
	if len(f.idStart) == 0 {
		return 0
	}
	return len(f.idStart) - 1
}

// SizeBytes returns the full footprint of the arena: every slab and CSR
// array, resident or mapped. Unlike the pointer index there are no per-node
// allocations or map buckets to estimate.
func (f *FrozenIndex) SizeBytes() int {
	sz := 8 * (len(f.resSlab) + len(f.maskSlab) + len(f.codeSlab) + len(f.idSlab))
	sz += 4 * (len(f.childStart) + len(f.childList) + len(f.leafStart) + len(f.leafList) + len(f.idStart) + len(f.topLeaves) + len(f.rootIDs))
	return sz
}

// MappedBytes returns the size of the mmap'd file region backing the arena,
// or 0 when every slab lives on the Go heap.
func (f *FrozenIndex) MappedBytes() int { return len(f.mapping) }

// HeapBytes returns the heap-resident share of the arena: SizeBytes for an
// eagerly decoded index, zero for an mmap'd one — every array, down to the
// root list, aliases the page-cache-backed mapping.
func (f *FrozenIndex) HeapBytes() int {
	if f.mapping != nil {
		return 0
	}
	return f.SizeBytes()
}

// Close releases the mmap'd region backing a mapped arena; it is a no-op for
// a heap-resident index. The index must not be searched after Close — the
// slabs alias the released mapping.
func (f *FrozenIndex) Close() error {
	if f.mapping == nil {
		return nil
	}
	m := f.mapping
	f.mapping = nil
	if f.munmap == nil {
		return nil
	}
	return f.munmap(m)
}

// Codes returns the distinct indexed codes in arena order.
func (f *FrozenIndex) Codes() []bitvec.Code {
	out := make([]bitvec.Code, f.GroupCount())
	for i := range out {
		out[i] = f.groupCode(int32(i))
	}
	return out
}

// Tuples invokes fn for every (id, code) pair in the index.
func (f *FrozenIndex) Tuples(fn func(id int, code bitvec.Code)) {
	for gi := 0; gi < f.GroupCount(); gi++ {
		code := f.groupCode(int32(gi))
		for _, id := range f.groupIDs(int32(gi)) {
			fn(id, code)
		}
	}
}

// searchWith implements Index: the H-Search walk over the flat arrays on the
// searcher's scratch. A frozen index has no insert buffer, so emitOne is
// never invoked.
func (f *FrozenIndex) searchWith(sr *Searcher, q bitvec.Code, h int, emitGroup func(*leafGroup), emitOne func(int, bitvec.Code)) {
	if q.Len() != f.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit frozen index", q.Len(), f.length))
	}
	f.walkEmit(sr, q.Words(), h, emitGroup)
}

// fitem is one frozen-walk queue entry: a node id and the Hamming distance
// accumulated over its ancestors' residuals.
type fitem struct {
	nid  int32
	dist int32
}

// walkEmit is the hot-path breadth-first H-Search over the arena, invoking
// emit for every qualifying leaf group. Residual distances are computed
// inline from the slabs (no memo, since a single walk touches each node at
// most once), with the one-word case — the common short-code configuration —
// specialized so the per-node work is a bare XOR/AND/popcount.
func (f *FrozenIndex) walkEmit(sr *Searcher, qw []uint64, h int, emit func(*leafGroup)) {
	st := &sr.Stats
	nw := f.nw
	hh := int32(h)
	resSlab, maskSlab, codeSlab := f.resSlab, f.maskSlab, f.codeSlab
	childStart, childList := f.childStart, f.childList
	leafStart, leafList := f.leafStart, f.leafList
	queue := sr.fqueue[:0]
	// Qualifying groups pass through the searcher's scratch leafGroup: the
	// emit closures consume (copy out of) the group synchronously, so one
	// reused value replaces the resident groups array an arena would
	// otherwise have to materialize on load.
	emitGi := func(gi int32) {
		f.fillGroup(gi, &sr.fgroup)
		emit(&sr.fgroup)
	}
	if nw == 1 {
		qw0 := qw[0]
		for _, nid := range f.rootIDs {
			st.DistanceComputations++
			base := 2 * int(nid)
			if d := int32(bits.OnesCount64((qw0 ^ resSlab[base+1]) & resSlab[base])); d <= hh {
				queue = append(queue, fitem{nid: nid, dist: d})
			}
		}
		for _, gi := range f.topLeaves {
			st.DistanceComputations++
			st.LeavesChecked++
			if bits.OnesCount64(qw0^codeSlab[gi]) <= h {
				emitGi(gi)
			}
		}
		for head := 0; head < len(queue); head++ {
			it := queue[head]
			st.NodesVisited++
			for ci := childStart[it.nid]; ci < childStart[it.nid+1]; ci++ {
				c := childList[ci]
				st.DistanceComputations++
				base := 2 * int(c)
				if d := it.dist + int32(bits.OnesCount64((qw0^resSlab[base+1])&resSlab[base])); d <= hh {
					queue = append(queue, fitem{nid: c, dist: d})
				}
			}
			ls, le := leafStart[it.nid], leafStart[it.nid+1]
			if ls < le {
				mask := maskSlab[it.nid]
				for li := ls; li < le; li++ {
					gi := leafList[li]
					st.DistanceComputations++
					st.LeavesChecked++
					if it.dist+int32(bits.OnesCount64((qw0^codeSlab[gi])&^mask)) <= hh {
						emitGi(gi)
					}
				}
			}
		}
	} else {
		for _, nid := range f.rootIDs {
			st.DistanceComputations++
			base := int(nid) * 2 * nw
			if d := int32(residualDistance(resSlab[base:base+2*nw], qw, nw)); d <= hh {
				queue = append(queue, fitem{nid: nid, dist: d})
			}
		}
		for _, gi := range f.topLeaves {
			st.DistanceComputations++
			st.LeavesChecked++
			if _, ok := distWithinWords(qw, codeSlab[int(gi)*nw:int(gi+1)*nw], h); ok {
				emitGi(gi)
			}
		}
		for head := 0; head < len(queue); head++ {
			it := queue[head]
			st.NodesVisited++
			for ci := childStart[it.nid]; ci < childStart[it.nid+1]; ci++ {
				c := childList[ci]
				st.DistanceComputations++
				base := int(c) * 2 * nw
				if d := it.dist + int32(residualDistance(resSlab[base:base+2*nw], qw, nw)); d <= hh {
					queue = append(queue, fitem{nid: c, dist: d})
				}
			}
			ls, le := leafStart[it.nid], leafStart[it.nid+1]
			if ls < le {
				mask := maskSlab[int(it.nid)*nw : int(it.nid)*nw+nw]
				for li := ls; li < le; li++ {
					gi := leafList[li]
					st.DistanceComputations++
					st.LeavesChecked++
					if it.dist+int32(distExcludingWords(qw, codeSlab[int(gi)*nw:int(gi+1)*nw], mask)) <= hh {
						emitGi(gi)
					}
				}
			}
		}
	}
	sr.fqueue = queue[:0] // keep the high-water capacity
}

// walkMemo is the TopK variant of the walk: it appends every qualifying leaf
// group and its exact distance to sr.fgroups/sr.fdists, and serves per-node
// residual distances from the searcher's epoch-packed memo so the radius
// escalation computes each node's contribution at most once; callers must
// have bumped sr.fepoch via prepareFrozen.
func (f *FrozenIndex) walkMemo(sr *Searcher, qw []uint64, h int) {
	st := &sr.Stats
	nw := f.nw
	hh := int32(h)
	sr.fgroups = sr.fgroups[:0]
	sr.fdists = sr.fdists[:0]
	queue := sr.fqueue[:0]
	for _, nid := range f.rootIDs {
		if d := f.nodeDistMemo(sr, qw, nid); d <= hh {
			queue = append(queue, fitem{nid: nid, dist: d})
		}
	}
	for _, gi := range f.topLeaves {
		st.DistanceComputations++
		st.LeavesChecked++
		if d, ok := distWithinWords(qw, f.codeSlab[int(gi)*nw:int(gi+1)*nw], h); ok {
			sr.fgroups = append(sr.fgroups, gi)
			sr.fdists = append(sr.fdists, int32(d))
		}
	}
	for head := 0; head < len(queue); head++ {
		it := queue[head]
		st.NodesVisited++
		for ci := f.childStart[it.nid]; ci < f.childStart[it.nid+1]; ci++ {
			c := f.childList[ci]
			if d := it.dist + f.nodeDistMemo(sr, qw, c); d <= hh {
				queue = append(queue, fitem{nid: c, dist: d})
			}
		}
		ls, le := f.leafStart[it.nid], f.leafStart[it.nid+1]
		if ls < le {
			mask := f.maskSlab[int(it.nid)*nw : int(it.nid)*nw+nw]
			for li := ls; li < le; li++ {
				gi := f.leafList[li]
				st.DistanceComputations++
				st.LeavesChecked++
				d := it.dist + int32(distExcludingWords(qw, f.codeSlab[int(gi)*nw:int(gi+1)*nw], mask))
				if d <= hh {
					sr.fgroups = append(sr.fgroups, gi)
					sr.fdists = append(sr.fdists, d)
				}
			}
		}
	}
	sr.fqueue = queue[:0] // keep the high-water capacity
}

// nodeDistMemo returns the memoized residual distance of one node against
// the query. Memo entries pack (epoch<<21 | dist+1) in a uint64; 21 bits
// cover any distance over codes up to the 1<<20-bit codec cap, and a zero
// entry never matches a live epoch.
func (f *FrozenIndex) nodeDistMemo(sr *Searcher, qw []uint64, nid int32) int32 {
	if m := sr.fmemo[nid]; m>>21 == sr.fepoch {
		return int32(m&(1<<21-1)) - 1
	}
	sr.Stats.DistanceComputations++
	nw := f.nw
	d := int32(residualDistance(f.resSlab[int(nid)*2*nw:int(nid)*2*nw+2*nw], qw, nw))
	sr.fmemo[nid] = sr.fepoch<<21 | uint64(d+1)
	return d
}

// prepareFrozen (re)sizes the searcher's frozen memo scratch for this index
// and advances the epoch that invalidates previous entries.
func (sr *Searcher) prepareFrozen(f *FrozenIndex) {
	if nn := len(f.childStart) - 1; len(sr.fmemo) < nn {
		sr.fmemo = append(sr.fmemo, make([]uint64, nn-len(sr.fmemo))...)
	}
	if ng := f.GroupCount(); len(sr.fseen) < ng {
		sr.fseen = append(sr.fseen, make([]uint64, ng-len(sr.fseen))...)
	}
	sr.fepoch++
	if sr.fepoch >= 1<<43 {
		for i := range sr.fmemo {
			sr.fmemo[i] = 0
		}
		for i := range sr.fseen {
			sr.fseen[i] = 0
		}
		sr.fepoch = 1
	}
}

// topK is the frozen-index top-k: the same radius escalation as the generic
// Searcher.TopK, but every walk after the first reuses the epoch-packed
// per-node memo (one residual distance computation per node for the whole
// expansion) and first-seen groups are deduplicated with epoch marks instead
// of a map. The walk computes each emitted group's exact distance, so the
// result is assembled without re-measuring codes.
func (f *FrozenIndex) topK(sr *Searcher, q bitvec.Code, k int) ([]int, []int) {
	sr.Stats = SearchStats{}
	if k <= 0 || f.n == 0 {
		return nil, nil
	}
	if q.Len() != f.length {
		panic(fmt.Sprintf("core: %d-bit query against %d-bit frozen index", q.Len(), f.length))
	}
	sr.prepareFrozen(f)
	qw := q.Words()
	var his, hds []int32
	found := 0
	for h := 0; h <= f.length && found < k; h++ {
		f.walkMemo(sr, qw, h)
		for i, gi := range sr.fgroups {
			if sr.fseen[gi] == sr.fepoch {
				continue
			}
			sr.fseen[gi] = sr.fepoch
			his = append(his, gi)
			hds = append(hds, sr.fdists[i])
			found += len(f.groupIDs(gi))
		}
	}
	ids := make([]int, 0, found)
	dists := make([]int, 0, found)
	for i, gi := range his {
		for _, id := range f.groupIDs(gi) {
			ids = append(ids, id)
			dists = append(dists, int(hds[i]))
		}
	}
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if dists[ia] != dists[ib] {
			return dists[ia] < dists[ib]
		}
		return ids[ia] < ids[ib]
	})
	if len(order) > k {
		order = order[:k]
	}
	outIDs := make([]int, len(order))
	outDists := make([]int, len(order))
	for i, j := range order {
		outIDs[i] = ids[j]
		outDists[i] = dists[j]
	}
	return outIDs, outDists
}

// distWithinWords is Code.DistanceWithin over raw word slices: it returns
// the full Hamming distance and whether it is at most h, short-circuiting
// once the running count exceeds h.
func distWithinWords(qw, cw []uint64, h int) (int, bool) {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64(w ^ cw[i])
		if sum > h {
			return sum, false
		}
	}
	return sum, true
}

// distExcludingWords is Code.DistanceExcluding over raw word slices: the
// Hamming distance counted only at positions NOT set in the mask words.
func distExcludingWords(qw, cw, mw []uint64) int {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64((w ^ cw[i]) &^ mw[i])
	}
	return sum
}
