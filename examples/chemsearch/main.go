// Chemsearch demonstrates Tanimoto-similarity screening over chemical
// fingerprints — the application the paper's related work maps onto
// Hamming-distance queries (Zhang et al.). Synthetic 1024-bit structural
// fingerprints are generated from scaffold families (as real fingerprints
// derive from shared substructures); the Tanimoto index buckets them by
// popcount and answers each similarity query with a handful of tight
// Hamming range queries over per-bucket HA-Indexes.
package main

import (
	"fmt"
	"math/rand"
	"time"

	"haindex"
)

const (
	bits      = 1024 // fingerprint length (e.g. ECFP-style folded prints)
	nPrints   = 20000
	scaffolds = 60
)

// corpus builds fingerprints around scaffold families: each scaffold sets a
// core bit pattern, members add/remove a few substructure bits.
func corpus(rng *rand.Rand) []haindex.Code {
	cores := make([]haindex.Code, scaffolds)
	for i := range cores {
		c := haindex.NewCode(bits)
		for j := 0; j < 90; j++ {
			c.SetBit(rng.Intn(bits), true)
		}
		cores[i] = c
	}
	out := make([]haindex.Code, nPrints)
	for i := range out {
		c := cores[rng.Intn(scaffolds)].Clone()
		for j := 0; j < 10; j++ {
			c.SetBit(rng.Intn(bits), true) // extra substituents
		}
		for j := 0; j < 4; j++ {
			c.SetBit(rng.Intn(bits), false) // missing fragments
		}
		out[i] = c
	}
	return out
}

func main() {
	rng := rand.New(rand.NewSource(7))
	prints := corpus(rng)
	fmt.Printf("corpus: %d fingerprints of %d bits\n", len(prints), bits)

	t0 := time.Now()
	idx, err := haindex.NewTanimotoIndex(prints, nil, haindex.IndexOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("built popcount-bucketed Tanimoto index in %v\n\n", time.Since(t0).Round(time.Millisecond))

	query := prints[4242]
	for _, t := range []float64{0.95, 0.85, 0.7} {
		t0 = time.Now()
		var work haindex.SearchStats
		matches, err := idx.SearchInto(query, t, &work)
		if err != nil {
			panic(err)
		}
		took := time.Since(t0)

		// Brute force for comparison.
		t0 = time.Now()
		brute := 0
		for _, p := range prints {
			if haindex.Tanimoto(query, p) >= t {
				brute++
			}
		}
		bruteTook := time.Since(t0)

		if len(matches) != brute {
			panic("index disagrees with brute force")
		}
		fmt.Printf("T >= %.2f: %4d matches in %8v (index, %5d Hamming computations) vs %8v (scan) — %4.1fx\n",
			t, len(matches), took.Round(time.Microsecond), work.DistanceComputations,
			bruteTook.Round(time.Microsecond), float64(bruteTook)/float64(took))
		if len(matches) > 0 {
			fmt.Printf("          best: id %d at T=%.3f\n", matches[0].ID, matches[0].Similarity)
		}
	}
	fmt.Println("\n(the popcount-ratio bound prunes whole buckets and each surviving bucket")
	fmt.Println(" is probed with a tight per-bucket Hamming threshold on its HA-Index)")
}
