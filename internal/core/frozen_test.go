package core

import (
	"bytes"
	"math/rand"
	"testing"

	"haindex/internal/bitvec"
)

// frozenEnv builds a clustered dataset, its pointer index, and the frozen
// compilation, plus a mixed query set (members and random outsiders).
func frozenEnv(tb testing.TB, seed int64, n, bitsLen int) ([]bitvec.Code, []bitvec.Code, *DynamicIndex, *FrozenIndex) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	codes := clusteredCodes(rng, n, bitsLen, 10, 3)
	queries := make([]bitvec.Code, 32)
	for i := range queries {
		if i%3 == 0 {
			queries[i] = bitvec.Rand(rng, bitsLen)
		} else {
			queries[i] = codes[rng.Intn(len(codes))]
		}
	}
	dyn := BuildDynamic(codes, nil, Options{})
	return codes, queries, dyn, Freeze(dyn)
}

// TestFreezeSearchEquivalence: the property pinning the tentpole — for random
// datasets across one-word and multi-word code widths and every threshold in
// 0..8, Freeze∘Search answers exactly the brute-force oracle and exactly the
// pointer walk it was compiled from.
func TestFreezeSearchEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 64, 128} {
		codes, queries, dyn, frozen := frozenEnv(t, int64(900+bitsLen), 900, bitsLen)
		if frozen.Len() != dyn.Len() || frozen.Length() != dyn.Length() {
			t.Fatalf("L=%d: frozen (%d tuples, %d bits) != dynamic (%d tuples, %d bits)",
				bitsLen, frozen.Len(), frozen.Length(), dyn.Len(), dyn.Length())
		}
		fsr := NewSearcher(frozen)
		dsr := NewSearcher(dyn)
		for h := 0; h <= 8; h++ {
			for qi, q := range queries {
				got := append([]int(nil), fsr.Search(q, h)...)
				if want := oracle(codes, q, h); !equalIDs(got, want) {
					t.Fatalf("L=%d h=%d q#%d: frozen %d ids, oracle %d", bitsLen, h, qi, len(got), len(want))
				}
				if ptr := dsr.Search(q, h); !equalIDs(got, ptr) {
					t.Fatalf("L=%d h=%d q#%d: frozen %d ids, pointer walk %d", bitsLen, h, qi, len(got), len(ptr))
				}
			}
		}
	}
}

// TestFrozenTopKEquivalence: frozen TopK (native radius escalation with the
// epoch memo) returns exactly the generic escalation's (distance, id) pairs.
func TestFrozenTopKEquivalence(t *testing.T) {
	for _, bitsLen := range []int{32, 128} {
		_, queries, dyn, frozen := frozenEnv(t, int64(1100+bitsLen), 700, bitsLen)
		fsr := NewSearcher(frozen)
		dsr := NewSearcher(dyn)
		for _, k := range []int{0, 1, 3, 17, 64, dyn.Len() + 5} {
			for qi, q := range queries {
				gotIDs, gotDists := fsr.TopK(q, k)
				wantIDs, wantDists := dsr.TopK(q, k)
				if !equalIDs(gotIDs, wantIDs) {
					t.Fatalf("L=%d k=%d q#%d: frozen ids %v, want %v", bitsLen, k, qi, gotIDs, wantIDs)
				}
				for i := range gotDists {
					if gotDists[i] != wantDists[i] {
						t.Fatalf("L=%d k=%d q#%d: dist[%d]=%d, want %d", bitsLen, k, qi, i, gotDists[i], wantDists[i])
					}
				}
			}
		}
	}
}

// TestFreezeFlushesBuffer: freezing an index with unflushed inserts must
// flush them first — buffered tuples appear in frozen results.
func TestFreezeFlushesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	codes := clusteredCodes(rng, 400, 32, 8, 3)
	dyn := BuildDynamic(codes[:300], nil, Options{BufferMax: 1 << 30})
	for i := 300; i < len(codes); i++ {
		dyn.Insert(i, codes[i])
	}
	frozen := Freeze(dyn)
	if frozen.Len() != len(codes) {
		t.Fatalf("frozen index has %d tuples, want %d (buffer dropped?)", frozen.Len(), len(codes))
	}
	sr := NewSearcher(frozen)
	for _, q := range codes[290:310] {
		if got, want := sr.Search(q, 3), oracle(codes, q, 3); !equalIDs(got, want) {
			t.Fatalf("frozen search over buffered build: got %d ids, want %d", len(got), len(want))
		}
	}
}

// TestFrozenSearchConcurrent: one FrozenIndex, many Searchers in parallel.
func TestFrozenSearchConcurrent(t *testing.T) {
	codes, queries, _, frozen := frozenEnv(t, 73, 1000, 64)
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int) {
			sr := NewSearcher(frozen)
			for r := 0; r < 20; r++ {
				q := queries[(seed+r)%len(queries)]
				if got, want := sr.Search(q, 4), oracle(codes, q, 4); !equalIDs(got, want) {
					done <- &searchMismatchError{len(got), len(want)}
					return
				}
				sr.TopK(q, 5)
			}
			done <- nil
		}(w * 7)
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

type searchMismatchError struct{ got, want int }

func (e *searchMismatchError) Error() string {
	return "concurrent frozen search mismatch"
}

// TestFrozenCodecRoundTrip: Encode∘DecodeFrozen is the identity on the search
// surface, with and without id tables; DecodeIndex still hands v1 bytes to
// the pointer decoder, and DecodeFrozen rejects them.
func TestFrozenCodecRoundTrip(t *testing.T) {
	for _, withIDs := range []bool{true, false} {
		data, orig := validArenaEncoding(t, withIDs)
		got, err := DecodeFrozen(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("withIDs=%v: %v", withIDs, err)
		}
		if got.Length() != orig.Length() || got.GroupCount() != orig.GroupCount() ||
			got.NodeCount() != orig.NodeCount() || got.EdgeCount() != orig.EdgeCount() {
			t.Fatalf("withIDs=%v: structure mismatch after round trip", withIDs)
		}
		wantLen := orig.Len()
		if !withIDs {
			wantLen = 0
		}
		if got.Len() != wantLen {
			t.Fatalf("withIDs=%v: %d tuples after round trip, want %d", withIDs, got.Len(), wantLen)
		}
		gsr, osr := NewSearcher(got), NewSearcher(orig)
		for _, c := range orig.Codes()[:20] {
			gotCodes := gsr.SearchCodes(c, 2)
			wantCodes := osr.SearchCodes(c, 2)
			if len(gotCodes) != len(wantCodes) {
				t.Fatalf("withIDs=%v: decoded index answers %d codes, want %d", withIDs, len(gotCodes), len(wantCodes))
			}
			if withIDs {
				if got, want := gsr.Search(c, 2), osr.Search(c, 2); !equalIDs(got, want) {
					t.Fatalf("decoded index answers %d ids, want %d", len(got), len(want))
				}
			}
		}
	}
	idx, err := DecodeIndex(bytes.NewReader(validEncoding(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := idx.(*DynamicIndex); !ok {
		t.Fatalf("DecodeIndex returned %T for a v1 encoding", idx)
	}
	if _, err := DecodeFrozen(bytes.NewReader(validEncoding(t))); err == nil {
		t.Fatal("DecodeFrozen accepted a v1 pointer encoding")
	}
}

// TestDecodeFrozenCorruptInput: the reader entry point rejects short and
// mislabelled input — including the retired v2/v3 version bytes — and
// truncations of a real encoding. TestDecodeArenaCorruptInput covers the
// section-table and structural checks behind it.
func TestDecodeFrozenCorruptInput(t *testing.T) {
	valid, _ := validArenaEncoding(t, true)
	relabel := func(version byte) []byte {
		return corrupt(valid, func(d []byte) { d[4] = version })
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short magic", []byte("HA")},
		{"bad magic", corrupt(valid, func(d []byte) { copy(d, "XDAH") })},
		{"header only", valid[:8]},
		{"v1 version byte", relabel(1)},
		{"v2 version byte", relabel(2)},
		{"v3 version byte", relabel(3)},
		{"v5 version byte", relabel(5)},
	}
	for _, cut := range []int{5, arenaHeaderSize - 1, len(valid) / 2, len(valid) - 8} {
		cases = append(cases, struct {
			name string
			data []byte
		}{"truncated", valid[:cut]})
	}
	for _, tc := range cases {
		if _, err := DecodeFrozen(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s (%d bytes): decode accepted corrupt input", tc.name, len(tc.data))
		}
	}
	if _, err := DecodeFrozen(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
}

// FuzzDecodeFrozen mutates a known-valid encoding — truncating and flipping
// one byte, the FuzzDecodeIndex recipe — so the fuzzer reaches the deep
// decoder states (section table, CSR arrays) that random prefixes rarely
// survive to. Decoding must either error or yield a usable index.
func FuzzDecodeFrozen(f *testing.F) {
	valid, _ := validArenaEncoding(f, true)
	f.Add(uint16(len(valid)), uint16(0), byte(0))
	f.Add(uint16(len(valid)/2), uint16(5), byte(0xff))
	f.Add(uint16(10), uint16(4), byte(1))
	f.Fuzz(func(t *testing.T, cut uint16, flipAt uint16, flipMask byte) {
		data := append([]byte(nil), valid...)
		if int(cut) < len(data) {
			data = data[:cut]
		}
		if len(data) > 0 {
			data[int(flipAt)%len(data)] ^= flipMask
		}
		got, err := DecodeFrozen(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever survived must behave like an index: searching every
		// decoded code must terminate and not panic.
		sr := NewSearcher(got)
		for _, c := range got.Codes() {
			sr.Search(c, 0)
		}
		sr.TopK(bitvec.New(got.Length()), 3)
	})
}

// TestFrozenSizeBytes: the arena footprint is positive and grows with the
// dataset; sanity for the habench resident-bytes row.
func TestFrozenSizeBytes(t *testing.T) {
	_, _, _, small := frozenEnv(t, 81, 200, 32)
	_, _, _, large := frozenEnv(t, 81, 2000, 32)
	if small.SizeBytes() <= 0 || large.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("SizeBytes: small=%d large=%d", small.SizeBytes(), large.SizeBytes())
	}
}

func BenchmarkFreeze(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := BuildDynamic(codes, nil, Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Freeze(idx)
	}
}

func BenchmarkSearcherSearchFrozen(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.Search(codes[i%len(codes)], 3)
	}
}

func BenchmarkFrozenTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	sr := NewSearcher(idx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr.TopK(codes[i%len(codes)], 10)
	}
}

func BenchmarkDecodeFrozen(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codes := clusteredCodes(rng, 20000, 32, 16, 3)
	idx := Freeze(BuildDynamic(codes, nil, Options{}))
	var buf bytes.Buffer
	if err := idx.Encode(&buf, true); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrozen(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
