package main

import (
	"fmt"
	"math/rand"
	"sort"

	"haindex/internal/bitvec"
)

// model is the benchmark's own view of the live tuples, answered by brute
// force.
type model struct {
	ids   []int
	codes []bitvec.Code
}

func staticModel(codes []bitvec.Code) model {
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = i
	}
	return model{ids: ids, codes: codes}
}

// churnModel is the churn stream's live set.
func churnModel(st *churnStream) model {
	var m model
	for _, id := range st.live.ids {
		m.ids = append(m.ids, id)
		m.codes = append(m.codes, st.live.code[id])
	}
	return m
}

func (m model) search(q bitvec.Code, h int) []int {
	var out []int
	for i, c := range m.codes {
		if _, ok := q.DistanceWithin(c, h); ok {
			out = append(out, m.ids[i])
		}
	}
	sort.Ints(out)
	return out
}

// topKDists returns the k smallest distances to q, ascending.
func (m model) topKDists(q bitvec.Code, k int) []int {
	d := make([]int, len(m.codes))
	for i, c := range m.codes {
		d[i] = q.Distance(c)
	}
	sort.Ints(d)
	if len(d) > k {
		d = d[:k]
	}
	return d
}

// checkSearch reports whether got is exactly the brute-force answer.
func checkSearch(m model, q bitvec.Code, h int, got []int) error {
	want := m.search(q, h)
	g := append([]int(nil), got...)
	sort.Ints(g)
	if len(g) != len(want) {
		return fmt.Errorf("search h=%d %s: %d ids, brute force finds %d", h, q, len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("search h=%d %s: id %d where brute force has %d", h, q, g[i], want[i])
		}
	}
	return nil
}

// checkTopK accepts any tie order: the distances must equal the k smallest
// by brute force, and each id must be live, distinct and at its stated
// distance.
func checkTopK(m model, byID map[int]bitvec.Code, q bitvec.Code, k int, ids, dists []int) error {
	want := m.topKDists(q, k)
	if len(ids) != len(want) || len(dists) != len(want) {
		return fmt.Errorf("top-%d %s: %d ids/%d dists, brute force has %d", k, q, len(ids), len(dists), len(want))
	}
	seen := map[int]bool{}
	for i, id := range ids {
		c, ok := byID[id]
		switch {
		case !ok:
			return fmt.Errorf("top-%d %s: id %d is not live", k, q, id)
		case seen[id]:
			return fmt.Errorf("top-%d %s: id %d returned twice", k, q, id)
		case dists[i] != want[i]:
			return fmt.Errorf("top-%d %s: rank %d at distance %d, brute force has %d", k, q, i, dists[i], want[i])
		case q.Distance(c) != dists[i]:
			return fmt.Errorf("top-%d %s: id %d reported at %d, is at %d", k, q, id, dists[i], q.Distance(c))
		}
		seen[id] = true
	}
	return nil
}

// answerer is the part of client.Router the gate queries.
type answerer interface {
	SearchBatch(queries []bitvec.Code, h int) ([][]int, error)
	TopK(queries []bitvec.Code, k int) ([][]int, [][]int, error)
}

// Correctness sample sizes: per threshold 0..maxH, and top-k queries.
const (
	checkPerH  = 8
	checkTopKs = 16
	checkPool  = 8
)

// gate checks a fixed, seed-chosen sample of Router answers against the
// model: searches at every threshold 0..maxH, top-k, and on the Zipf
// workload the hottest pooled requests, which the result cache answers.
func gate(r answerer, m model, seed int64, pool [][]bitvec.Code) (checked int, err error) {
	rng := rand.New(rand.NewSource(seed ^ saltCheck))
	for h := 0; h <= maxH; h++ {
		qs := make([]bitvec.Code, checkPerH)
		for i := range qs {
			qs[i] = perturb(rng, m.codes)
		}
		got, err := r.SearchBatch(qs, h)
		if err != nil {
			return checked, err
		}
		for i, q := range qs {
			if err := checkSearch(m, q, h, got[i]); err != nil {
				return checked, err
			}
			checked++
		}
	}
	for i := 0; i < checkPool && i < len(pool); i++ {
		got, err := r.SearchBatch(pool[i], zipfH)
		if err != nil {
			return checked, err
		}
		for j, q := range pool[i] {
			if err := checkSearch(m, q, zipfH, got[j]); err != nil {
				return checked, err
			}
			checked++
		}
	}
	byID := make(map[int]bitvec.Code, len(m.ids))
	for i, id := range m.ids {
		byID[id] = m.codes[i]
	}
	qs := make([]bitvec.Code, checkTopKs)
	for i := range qs {
		qs[i] = perturb(rng, m.codes)
	}
	ids, dists, err := r.TopK(qs, topK)
	if err != nil {
		return checked, err
	}
	for i, q := range qs {
		if err := checkTopK(m, byID, q, topK, ids[i], dists[i]); err != nil {
			return checked, err
		}
		checked++
	}
	return checked, nil
}
