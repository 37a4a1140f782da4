package tanimoto

import (
	"math/rand"
	"testing"
	"testing/quick"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// sparseFingerprints mimics chemical fingerprints: mostly-zero codes with a
// few dozen set bits, with family structure.
func sparseFingerprints(rng *rand.Rand, n, bits, families int) []bitvec.Code {
	bases := make([]bitvec.Code, families)
	for i := range bases {
		c := bitvec.New(bits)
		for j := 0; j < bits/8; j++ {
			c.SetBit(rng.Intn(bits), true)
		}
		bases[i] = c
	}
	out := make([]bitvec.Code, n)
	for i := range out {
		c := bases[rng.Intn(families)].Clone()
		for j := 0; j < 4; j++ {
			c.FlipBit(rng.Intn(bits))
		}
		out[i] = c
	}
	return out
}

func TestSimilarityBasics(t *testing.T) {
	a := bitvec.MustFromString("11110000")
	b := bitvec.MustFromString("11000000")
	// |a∧b|=2, |a∨b|=4.
	if got := Similarity(a, b); got != 0.5 {
		t.Fatalf("similarity = %v", got)
	}
	if Similarity(a, a) != 1 {
		t.Fatal("self similarity must be 1")
	}
	empty := bitvec.New(8)
	if Similarity(empty, empty) != 1 {
		t.Fatal("empty-empty similarity is 1 by convention")
	}
	if Similarity(a, empty) != 0 {
		t.Fatal("anything vs empty is 0")
	}
}

// TestHammingReduction verifies the T >= t ⇔ H <= (1-t)/(1+t)(|a|+|b|)
// equivalence the index relies on.
func TestHammingReduction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(100)
		a, b := bitvec.Rand(rng, n), bitvec.Rand(rng, n)
		tt := 0.05 + rng.Float64()*0.9
		lhs := Similarity(a, b) >= tt
		bound := (1 - tt) / (1 + tt) * float64(a.OnesCount()+b.OnesCount())
		rhs := float64(a.Distance(b)) <= bound+1e-9
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSearchAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	prints := sparseFingerprints(rng, 400, 128, 8)
	idx, err := New(prints, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 400 {
		t.Fatalf("len=%d", idx.Len())
	}
	for trial := 0; trial < 30; trial++ {
		q := prints[rng.Intn(len(prints))].Clone()
		for j := 0; j < rng.Intn(4); j++ {
			q.FlipBit(rng.Intn(128))
		}
		tt := []float64{0.5, 0.7, 0.85, 0.95}[rng.Intn(4)]
		got, err := idx.Search(q, tt)
		if err != nil {
			t.Fatal(err)
		}
		want := map[int]float64{}
		for i, p := range prints {
			if s := Similarity(q, p); s >= tt {
				want[i] = s
			}
		}
		if len(got) != len(want) {
			t.Fatalf("t=%v: got %d want %d", tt, len(got), len(want))
		}
		for _, m := range got {
			if s, ok := want[m.ID]; !ok || s != m.Similarity {
				t.Fatalf("unexpected match %v", m)
			}
		}
		// Sorted by descending similarity.
		for i := 1; i < len(got); i++ {
			if got[i].Similarity > got[i-1].Similarity {
				t.Fatal("not sorted")
			}
		}
	}
}

func TestSearchEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(172))
	prints := sparseFingerprints(rng, 50, 64, 3)
	empty := bitvec.New(64)
	prints = append(prints, empty)
	idx, err := New(prints, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Empty query matches only the empty fingerprint.
	got, err := idx.Search(empty, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 50 || got[0].Similarity != 1 {
		t.Fatalf("empty query matches = %v", got)
	}
	// Threshold validation.
	if _, err := idx.Search(empty, 0); err == nil {
		t.Fatal("t=0 must error")
	}
	if _, err := idx.Search(empty, 1.5); err == nil {
		t.Fatal("t>1 must error")
	}
	if _, err := idx.Search(bitvec.New(32), 0.5); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := New(nil, nil, core.Options{}); err == nil {
		t.Fatal("empty dataset must error")
	}
}

// TestBucketPruning: high thresholds should probe far fewer than all
// fingerprints.
func TestBucketPruning(t *testing.T) {
	rng := rand.New(rand.NewSource(173))
	prints := sparseFingerprints(rng, 3000, 256, 30)
	idx, err := New(prints, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := prints[0]
	var st core.SearchStats
	if _, err := idx.SearchInto(q, 0.95, &st); err != nil {
		t.Fatal(err)
	}
	if st.DistanceComputations >= len(prints) {
		t.Fatalf("no pruning: %d computations for %d prints",
			st.DistanceComputations, len(prints))
	}
}
