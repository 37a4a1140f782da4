// Package mih is the multi-index-hashing engine: Norouzi et al.'s exact
// Hamming search by substring pigeonhole, in the frozen structure-of-arrays
// form the rest of the serving stack expects (flat slabs mirroring
// core.Freeze's layout, so the arenas can later be mmap'd).
//
// The code's L bits are cut into `blocks` contiguous blocks and one table is
// built per combination of `matched` blocks, keyed on their concatenation.
// If q and c are within Hamming distance h, the pigeonhole principle puts at
// most floor(matched·h/blocks) of the differing bits into some combination
// (each differing bit lands in C(blocks-1, matched-1) of the C(blocks,
// matched) combinations, so the average combination carries h·matched/blocks
// of them and the minimum is at or below the floor of that). Probing every
// table with every key variant within that radius therefore finds every
// answer; candidates are verified by a short-circuiting distance check. At
// large thresholds this beats the HA-Index walk, whose pruning collapses —
// the regime internal/planner routes here.
//
// Unlike the hash-map baseline in internal/baseline, the frozen form keeps
// each table as a sorted run of distinct keys over a shared candidate arena:
// a probe is a binary search, a bucket a contiguous []int32 of group indexes
// into one shared distinct-code slab. Search runs on a per-searcher Scratch
// (combination enumeration state plus an epoch-marked visited table) and is
// allocation-free on the steady path; the engine plugs into core.Searcher,
// SearchBatch, and TopK through core.AsIndex.
package mih

import (
	"fmt"
	"math/bits"
	"sort"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// Options configures Build. The zero value selects sane defaults.
type Options struct {
	// Blocks is the number of contiguous bit blocks the code is cut into.
	// 0 picks Norouzi's substring-length heuristic: key width near
	// log2(n) bits, i.e. blocks ≈ L/log2(n), clamped to [ceil(L/64), 16].
	Blocks int
	// Matched is how many blocks each table keys on (C(Blocks, Matched)
	// tables). 0 selects 1 — single-block tables, the classic MIH layout.
	Matched int
}

// Index is the frozen multi-index-hashing engine. It is immutable and safe
// for any number of concurrent readers; per-query state lives in Scratch.
type Index struct {
	length  int // code length L in bits
	nw      int // words per code
	n       int // number of tuples
	blocks  int
	matched int

	// Derived from (length, blocks, matched), never serialized.
	bounds [][2]int // per block: start bit, width
	combos [][]int  // per table: the matched block indexes
	widths []int    // per table: total key width in bits

	// Per-table sorted key directory over one shared candidate arena:
	// table t's distinct keys are keys[tabStart[t]:tabStart[t+1]], sorted
	// ascending; the key at global position p owns candidate group indexes
	// cands[candStart[p]:candStart[p+1]].
	tabStart  []int32
	keys      []uint64
	candStart []int32
	cands     []int32

	// Shared distinct-code groups: codes word-packed in codeSlab, tuple ids
	// in idSlab with idStart offsets, groups[] aliasing both slabs.
	codeSlab []uint64
	idStart  []int32
	idSlab   []int
	groups   []group
}

// group is one distinct code with its tuple ids; both alias the arenas.
type group struct {
	code bitvec.Code
	ids  []int
}

// Build constructs the engine over the codes; ids default to positions.
func Build(codes []bitvec.Code, ids []int, opts Options) (*Index, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("mih: empty dataset")
	}
	if ids == nil {
		ids = make([]int, len(codes))
		for i := range ids {
			ids[i] = i
		}
	}
	if len(ids) != len(codes) {
		return nil, fmt.Errorf("mih: %d ids for %d codes", len(ids), len(codes))
	}
	return build(codes[0].Len(), codes, ids, opts)
}

// TupleSource is any index that can enumerate its tuples — both HA-Index
// forms satisfy it, so a serving shard can grow an MIH engine from whatever
// snapshot it loaded.
type TupleSource interface {
	Length() int
	Tuples(fn func(id int, code bitvec.Code))
}

// FromTuples builds the engine from an existing index's tuples. An empty
// source yields an empty (but valid) engine whose searches match nothing.
func FromTuples(src TupleSource, opts Options) (*Index, error) {
	var codes []bitvec.Code
	var ids []int
	src.Tuples(func(id int, c bitvec.Code) {
		ids = append(ids, id)
		codes = append(codes, c)
	})
	return build(src.Length(), codes, ids, opts)
}

func build(length int, codes []bitvec.Code, ids []int, opts Options) (*Index, error) {
	if length <= 0 {
		return nil, fmt.Errorf("mih: invalid code length %d", length)
	}
	blocks, matched := opts.Blocks, opts.Matched
	if matched == 0 {
		matched = 1
	}
	if blocks == 0 {
		blocks = autoBlocks(length, len(codes), matched)
	}
	m, err := newIndex(length, blocks, matched)
	if err != nil {
		return nil, err
	}

	// Distinct-code groups shared by every table.
	type bucket struct {
		gi  int32
		ids []int
	}
	byCode := make(map[string]int32, len(codes))
	var order []bucket
	for i, c := range codes {
		if c.Len() != length {
			return nil, fmt.Errorf("mih: code %d is %d-bit, index is %d-bit", i, c.Len(), length)
		}
		if gi, ok := byCode[c.Key()]; ok {
			order[gi].ids = append(order[gi].ids, ids[i])
			continue
		}
		gi := int32(len(order))
		byCode[c.Key()] = gi
		order = append(order, bucket{gi: gi, ids: []int{ids[i]}})
	}
	ng := len(order)
	m.n = len(codes)
	m.codeSlab = make([]uint64, ng*m.nw)
	m.idStart = make([]int32, ng+1)
	m.idSlab = make([]int, 0, len(codes))
	gi := 0
	seen := make(map[string]bool, ng)
	for _, c := range codes {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		copy(m.codeSlab[gi*m.nw:(gi+1)*m.nw], c.Words())
		m.idStart[gi] = int32(len(m.idSlab))
		m.idSlab = append(m.idSlab, order[byCode[k]].ids...)
		gi++
	}
	m.idStart[ng] = int32(len(m.idSlab))
	m.buildGroups()
	m.buildTables()
	return m, nil
}

// autoBlocks picks the block count for n codes of length bits: key width
// near log2(n) (Norouzi's substring-length heuristic — buckets then hold O(1)
// codes), clamped so every block fits a uint64 key and the table count stays
// modest. With matched > 1 the per-block target shrinks proportionally so
// the concatenated key keeps the same selectivity.
func autoBlocks(length, n, matched int) int {
	lg := 1
	for v := 1; v < n; v *= 2 {
		lg++
	}
	target := lg * matched // concatenated key width target, ≈ log2(n)·matched... per block combination
	if target < 1 {
		target = 1
	}
	b := (length + target/2) / target * matched
	if b < matched {
		b = matched
	}
	if min := (length + 63) / 64 * matched; b < min {
		b = min // widest matched blocks must concatenate into ≤ 64 key bits
	}
	if b > 16 {
		b = 16
	}
	if b > length {
		b = length
	}
	return b
}

// newIndex validates the parameters and derives bounds, combos, and widths.
func newIndex(length, blocks, matched int) (*Index, error) {
	if blocks <= 0 || blocks > length {
		return nil, fmt.Errorf("mih: invalid block count %d for %d-bit codes", blocks, length)
	}
	if matched <= 0 || matched > blocks {
		return nil, fmt.Errorf("mih: invalid matched count %d of %d blocks", matched, blocks)
	}
	m := &Index{
		length:  length,
		nw:      (length + 63) / 64,
		blocks:  blocks,
		matched: matched,
	}
	// Nearly equal blocks, the first length%blocks one bit wider.
	base, extra := length/blocks, length%blocks
	at := 0
	for i := 0; i < blocks; i++ {
		w := base
		if i < extra {
			w++
		}
		m.bounds = append(m.bounds, [2]int{at, w})
		at += w
	}
	keyBits := 0
	for i := 0; i < matched; i++ {
		keyBits += m.bounds[i][1] // widest blocks come first
	}
	if keyBits > 64 {
		return nil, fmt.Errorf("mih: %d-bit combination keys exceed 64 bits", keyBits)
	}
	// All matched-element subsets of the blocks, one table per subset; the
	// count is bounded before enumerating so implausible Options cannot
	// allocate unboundedly.
	nt, err := tableCount(blocks, matched)
	if err != nil {
		return nil, err
	}
	m.combos = make([][]int, 0, nt)
	combo := make([]int, matched)
	var rec func(start, at int)
	rec = func(start, at int) {
		if at == matched {
			m.combos = append(m.combos, append([]int(nil), combo...))
			return
		}
		for i := start; i < blocks; i++ {
			combo[at] = i
			rec(i+1, at+1)
		}
	}
	rec(0, 0)
	m.widths = make([]int, len(m.combos))
	for t, c := range m.combos {
		for _, b := range c {
			m.widths[t] += m.bounds[b][1]
		}
	}
	return m, nil
}

// tableCount computes C(blocks, matched), refusing configurations whose
// table count would be implausible.
func tableCount(blocks, matched int) (int, error) {
	c := 1
	for i := 0; i < matched; i++ {
		c = c * (blocks - i) / (i + 1)
		if c > 1<<16 {
			return 0, fmt.Errorf("mih: C(%d,%d) tables is implausible", blocks, matched)
		}
	}
	return c, nil
}

// buildGroups wraps the code and id slabs as group values aliasing the
// arenas (capacity-clamped so appends can never bleed).
func (m *Index) buildGroups() {
	ng := len(m.idStart) - 1
	m.groups = make([]group, ng)
	for i := 0; i < ng; i++ {
		lo, hi := m.idStart[i], m.idStart[i+1]
		m.groups[i] = group{
			code: bitvec.FromWords(m.codeSlab[i*m.nw:(i+1)*m.nw], m.length),
			ids:  m.idSlab[lo:hi:hi],
		}
	}
}

// buildTables sorts every table's (key, group) pairs and compacts them into
// the shared key/candidate arenas.
func (m *Index) buildTables() {
	ng := len(m.groups)
	nt := len(m.combos)
	m.tabStart = make([]int32, nt+1)
	type pair struct {
		key uint64
		gi  int32
	}
	pairs := make([]pair, ng)
	for t, combo := range m.combos {
		m.tabStart[t] = int32(len(m.keys))
		for g := 0; g < ng; g++ {
			pairs[g] = pair{key: m.comboKey(m.groups[g].code, combo), gi: int32(g)}
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a].key != pairs[b].key {
				return pairs[a].key < pairs[b].key
			}
			return pairs[a].gi < pairs[b].gi
		})
		for i := 0; i < ng; i++ {
			if i == 0 || pairs[i].key != pairs[i-1].key {
				m.keys = append(m.keys, pairs[i].key)
				m.candStart = append(m.candStart, int32(len(m.cands)))
			}
			m.cands = append(m.cands, pairs[i].gi)
		}
	}
	m.tabStart[nt] = int32(len(m.keys))
	m.candStart = append(m.candStart, int32(len(m.cands)))
}

// segKey extracts the width-bit segment starting at bit `from` as a uint64,
// reading at most two words (codes store bit i at word i/64, shift 63-i%64).
func segKey(words []uint64, from, width int) uint64 {
	hi, off := from/64, uint(from%64)
	v := words[hi] << off
	if int(off)+width > 64 {
		v |= words[hi+1] >> (64 - off)
	}
	return v >> uint(64-width)
}

// comboKey concatenates the blocks selected by combo into one key.
func (m *Index) comboKey(c bitvec.Code, combo []int) uint64 {
	words := c.Words()
	var key uint64
	for _, b := range combo {
		from, width := m.bounds[b][0], m.bounds[b][1]
		key = key<<uint(width) | segKey(words, from, width)
	}
	return key
}

// Length returns the code length L in bits.
func (m *Index) Length() int { return m.length }

// Len returns the number of indexed tuples.
func (m *Index) Len() int { return m.n }

// Blocks returns the block count.
func (m *Index) Blocks() int { return m.blocks }

// Matched returns how many blocks each table keys on.
func (m *Index) Matched() int { return m.matched }

// Tables returns the table count C(Blocks, Matched).
func (m *Index) Tables() int { return len(m.combos) }

// GroupCount returns the number of distinct indexed codes.
func (m *Index) GroupCount() int { return len(m.groups) }

// Radius returns the per-table probe radius at threshold h: the pigeonhole
// bound floor(matched·h/blocks).
func (m *Index) Radius(h int) int { return m.matched * h / m.blocks }

// SizeBytes returns the resident footprint of the arenas. The distinct codes
// are stored once; each table adds only its sorted key run and candidate
// references — the flat-arena answer to the per-table code replicas the
// paper criticizes in Manku's layout.
func (m *Index) SizeBytes() int {
	sz := 8 * (len(m.codeSlab) + len(m.keys) + len(m.idSlab))
	sz += 4 * (len(m.idStart) + len(m.tabStart) + len(m.candStart) + len(m.cands))
	sz += 40 * len(m.groups)
	return sz
}

// Tuples invokes fn for every (id, code) pair in the index.
func (m *Index) Tuples(fn func(id int, code bitvec.Code)) {
	for i := range m.groups {
		g := &m.groups[i]
		for _, id := range g.ids {
			fn(id, g.code)
		}
	}
}

// NewScratch implements core.Engine.
func (m *Index) NewScratch() core.EngineScratch {
	return &Scratch{
		m:       m,
		visited: make([]uint32, len(m.groups)),
		comb:    make([]int, 65),
	}
}

// Search is a convenience for tools and tests: a fresh-scratch, allocating
// select. Serving paths use core.NewSearcher(core.AsIndex(m)) instead, whose
// per-searcher scratch makes the steady state allocation-free.
func (m *Index) Search(q bitvec.Code, h int) []int {
	var out []int
	var stats core.SearchStats
	m.NewScratch().Search(q, h, &stats, func(ids []int, _ bitvec.Code) {
		out = append(out, ids...)
	})
	return out
}

// Scratch is one searcher's mutable state: the iterative combination
// enumerator and the epoch-marked visited table that deduplicates candidate
// groups across tables. Not safe for concurrent use; the Index is.
type Scratch struct {
	m       *Index
	visited []uint32
	epoch   uint32
	comb    []int
}

// Search implements core.EngineScratch: probe every table with every key
// variant within the pigeonhole radius, verify candidates once each, and
// emit the qualifying groups. Probes count into stats.NodesVisited,
// candidate verifications into LeavesChecked and DistanceComputations.
func (s *Scratch) Search(q bitvec.Code, h int, stats *core.SearchStats, emit func(ids []int, code bitvec.Code)) {
	m := s.m
	if q.Len() != m.length {
		panic(fmt.Sprintf("mih: %d-bit query against %d-bit index", q.Len(), m.length))
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	radius := m.matched * h / m.blocks
	qw := q.Words()
	for t, combo := range m.combos {
		key := m.comboKey(q, combo)
		width := m.widths[t]
		lo, hi := m.tabStart[t], m.tabStart[t+1]
		s.probe(lo, hi, key, qw, h, stats, emit)
		r := radius
		if r > width {
			r = width
		}
		// Key variants at exact flip-count k, for k = 1..r: the classic
		// iterative combination enumeration over the key's bit positions,
		// on preallocated scratch — no recursion, no closures.
		for k := 1; k <= r; k++ {
			comb := s.comb[:k]
			for i := range comb {
				comb[i] = i
			}
			for {
				var mask uint64
				for _, b := range comb {
					mask |= 1 << uint(b)
				}
				s.probe(lo, hi, key^mask, qw, h, stats, emit)
				i := k - 1
				for i >= 0 && comb[i] == width-k+i {
					i--
				}
				if i < 0 {
					break
				}
				comb[i]++
				for j := i + 1; j < k; j++ {
					comb[j] = comb[j-1] + 1
				}
			}
		}
	}
}

// probe binary-searches one table's sorted key run and verifies that
// bucket's candidates, emitting first-seen qualifying groups.
func (s *Scratch) probe(lo, hi int32, key uint64, qw []uint64, h int, stats *core.SearchStats, emit func(ids []int, code bitvec.Code)) {
	m := s.m
	stats.NodesVisited++
	i, j := int(lo), int(hi)
	for i < j {
		mid := int(uint(i+j) >> 1)
		if m.keys[mid] < key {
			i = mid + 1
		} else {
			j = mid
		}
	}
	if i >= int(hi) || m.keys[i] != key {
		return
	}
	nw := m.nw
	for _, gi := range m.cands[m.candStart[i]:m.candStart[i+1]] {
		if s.visited[gi] == s.epoch {
			continue
		}
		s.visited[gi] = s.epoch
		stats.LeavesChecked++
		stats.DistanceComputations++
		if distWithin(qw, m.codeSlab[int(gi)*nw:(int(gi)+1)*nw], h) {
			g := &m.groups[gi]
			emit(g.ids, g.code)
		}
	}
}

// distWithin reports whether two word-aligned codes are within Hamming
// distance h, short-circuiting once the running count exceeds it.
func distWithin(qw, cw []uint64, h int) bool {
	sum := 0
	for i, w := range qw {
		sum += bits.OnesCount64(w ^ cw[i])
		if sum > h {
			return false
		}
	}
	return true
}
