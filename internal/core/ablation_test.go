package core

import (
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

// TestSearchRecomputeAllEquivalence: the ablation search must return exactly
// the same results as H-Search.
func TestSearchRecomputeAllEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for trial := 0; trial < 6; trial++ {
		codes := clusteredCodes(rng, 300, 32, 6, 3)
		dyn := BuildDynamic(codes, nil, Options{Window: 4 + rng.Intn(8)})
		for q := 0; q < 15; q++ {
			query := codes[rng.Intn(len(codes))].Clone()
			for f := 0; f < rng.Intn(4); f++ {
				query.FlipBit(rng.Intn(32))
			}
			h := rng.Intn(7)
			if !equalIDs(dyn.Search(query, h), dyn.SearchRecomputeAll(query, h, &SearchStats{})) {
				t.Fatal("ablation search diverges from H-Search")
			}
		}
	}
}

// TestLexOrderAblationCorrect: a lexicographically-ordered index stays
// correct (only less effective).
func TestLexOrderAblationCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(132))
	codes := clusteredCodes(rng, 300, 32, 6, 3)
	lex := BuildDynamic(codes, nil, Options{Window: 8, LexOrder: true})
	for q := 0; q < 20; q++ {
		query := codes[rng.Intn(len(codes))].Clone()
		query.FlipBit(rng.Intn(32))
		h := rng.Intn(6)
		if got, want := lex.Search(query, h), oracle(codes, query, h); !equalIDs(got, want) {
			t.Fatal("lex-order index incorrect")
		}
	}
}

// TestNoConsolidateAblationCorrect: disabling node consolidation must not
// change results.
func TestNoConsolidateAblationCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(133))
	codes := clusteredCodes(rng, 300, 32, 6, 3)
	nc := BuildDynamic(codes, nil, Options{Window: 8, NoConsolidate: true})
	for q := 0; q < 20; q++ {
		query := codes[rng.Intn(len(codes))].Clone()
		query.FlipBit(rng.Intn(32))
		h := rng.Intn(6)
		if got, want := nc.Search(query, h), oracle(codes, query, h); !equalIDs(got, want) {
			t.Fatal("no-consolidate index incorrect")
		}
	}
}

// TestGrayOrderBeatsLexOnSuffixClusters: codes sharing suffixes but split on
// the first bit (the paper's t2/t7 scenario) favor Gray clustering over
// plain prefix order in distance computations.
func TestGrayOrderBeatsLexOnSuffixClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(134))
	// Clusters whose members differ in the high bits but share low bits.
	var codes []bitvec.Code
	for c := 0; c < 16; c++ {
		base := bitvec.Rand(rng, 32)
		for i := 0; i < 60; i++ {
			v := base.Clone()
			v.FlipBit(rng.Intn(4)) // churn only the leading bits
			codes = append(codes, v)
		}
	}
	grayIdx := BuildDynamic(codes, nil, Options{Window: 8})
	lexIdx := BuildDynamic(codes, nil, Options{Window: 8, LexOrder: true})
	grayWork, lexWork := 0, 0
	for q := 0; q < 30; q++ {
		query := codes[rng.Intn(len(codes))].Clone()
		query.FlipBit(rng.Intn(32))
		var gray, lex SearchStats
		grayIdx.SearchInto(query, 3, &gray)
		grayWork += gray.DistanceComputations
		lexIdx.SearchInto(query, 3, &lex)
		lexWork += lex.DistanceComputations
	}
	if grayWork > lexWork*2 {
		t.Errorf("gray order did %d computations vs lex %d; expected competitive or better", grayWork, lexWork)
	}
}
