// Package tanimoto implements Tanimoto-similarity search over binary
// fingerprints by reduction to Hamming-distance range queries — the
// transformation the paper's related work cites for chemical informatics
// (Zhang et al., SSDBM'13, Section 2 of the paper).
//
// For fingerprints a, b with popcounts |a|, |b| and Hamming distance H:
//
//	|a ∧ b| = (|a| + |b| − H) / 2      |a ∨ b| = (|a| + |b| + H) / 2
//	T(a,b)  = |a ∧ b| / |a ∨ b| ≥ t  ⇔  H ≤ (1−t)/(1+t) · (|a| + |b|)
//
// and T ≥ t also forces the popcount ratio bound t ≤ min/max(|a|,|b|).
// The index therefore buckets fingerprints by popcount, builds one Dynamic
// HA-Index per bucket, and answers a query by probing only the qualifying
// popcount buckets, each with its tight per-bucket Hamming threshold,
// verifying the exact Tanimoto on the survivors.
package tanimoto

import (
	"fmt"
	"math"
	"sort"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// Match is one Tanimoto search result.
type Match struct {
	ID         int
	Similarity float64
}

// Index answers Tanimoto range queries over fixed-length fingerprints.
type Index struct {
	length  int
	n       int
	buckets map[int]*bucket
}

type bucket struct {
	idx   *core.DynamicIndex
	codes []bitvec.Code // by position, for exact verification
	ids   []int
}

// Similarity returns the Tanimoto coefficient of two equal-length
// fingerprints (1 for two empty fingerprints, by convention).
func Similarity(a, b bitvec.Code) float64 {
	ca, cb := a.OnesCount(), b.OnesCount()
	h := a.Distance(b)
	union := ca + cb + h
	if union == 0 {
		return 1
	}
	return float64(ca+cb-h) / float64(union)
}

// New indexes the fingerprints (ids default to positions).
func New(prints []bitvec.Code, ids []int, opts core.Options) (*Index, error) {
	if len(prints) == 0 {
		return nil, fmt.Errorf("tanimoto: empty dataset")
	}
	length := prints[0].Len()
	type group struct {
		codes []bitvec.Code
		ids   []int
	}
	byCount := make(map[int]*group)
	for i, p := range prints {
		if p.Len() != length {
			return nil, fmt.Errorf("tanimoto: mixed fingerprint lengths %d and %d", length, p.Len())
		}
		id := i
		if ids != nil {
			id = ids[i]
		}
		c := p.OnesCount()
		g := byCount[c]
		if g == nil {
			g = &group{}
			byCount[c] = g
		}
		g.codes = append(g.codes, p)
		g.ids = append(g.ids, id)
	}
	x := &Index{length: length, n: len(prints), buckets: make(map[int]*bucket, len(byCount))}
	for c, g := range byCount {
		x.buckets[c] = &bucket{
			idx:   core.BuildDynamic(g.codes, nil, opts),
			codes: g.codes,
			ids:   g.ids,
		}
	}
	return x, nil
}

// Len returns the number of indexed fingerprints.
func (x *Index) Len() int { return x.n }

// Search returns all fingerprints with Tanimoto similarity at least t to q,
// sorted by descending similarity (ties by ascending id). t must be in
// (0, 1].
func (x *Index) Search(q bitvec.Code, t float64) ([]Match, error) {
	var stats core.SearchStats
	return x.SearchInto(q, t, &stats)
}

// SearchInto is Search that also adds the Hamming search work to stats; it
// does not mutate the index and is safe for concurrent use.
func (x *Index) SearchInto(q bitvec.Code, t float64, stats *core.SearchStats) ([]Match, error) {
	if q.Len() != x.length {
		return nil, fmt.Errorf("tanimoto: %d-bit query against %d-bit index", q.Len(), x.length)
	}
	if t <= 0 || t > 1 {
		return nil, fmt.Errorf("tanimoto: threshold %v outside (0, 1]", t)
	}
	qc := q.OnesCount()
	var out []Match
	if qc == 0 {
		// Only the empty fingerprint has nonzero similarity (=1) to an
		// empty query.
		if b, ok := x.buckets[0]; ok {
			for _, id := range b.ids {
				out = append(out, Match{ID: id, Similarity: 1})
			}
		}
		sortMatches(out)
		return out, nil
	}
	// Popcount ratio bound: t <= min/max(qc, c).
	lo := int(math.Ceil(t * float64(qc)))
	hi := int(math.Floor(float64(qc) / t))
	ratio := (1 - t) / (1 + t)
	for c := lo; c <= hi && c <= x.length; c++ {
		b, ok := x.buckets[c]
		if !ok {
			continue
		}
		h := int(math.Floor(ratio * float64(qc+c)))
		for _, pos := range b.idx.SearchInto(q, h, stats) {
			// The Hamming bound is exact given the popcounts, but guard
			// with the definition for clarity and float safety.
			if s := Similarity(q, b.codes[pos]); s >= t-1e-12 {
				out = append(out, Match{ID: b.ids[pos], Similarity: s})
			}
		}
	}
	sortMatches(out)
	return out, nil
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Similarity != ms[j].Similarity {
			return ms[i].Similarity > ms[j].Similarity
		}
		return ms[i].ID < ms[j].ID
	})
}
