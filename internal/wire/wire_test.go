package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/histo"
)

func randCodes(rng *rand.Rand, n, bits int) []bitvec.Code {
	out := make([]bitvec.Code, n)
	for i := range out {
		out[i] = bitvec.Rand(rng, bits)
	}
	return out
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{1, 2, 3, 250}
	if err := WriteFrame(&buf, MsgSearch, payload); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgStats, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err := ReadFrame(&buf)
	if err != nil || typ != MsgSearch || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: %v %v %v", typ, got, err)
	}
	typ, got, err = ReadFrame(&buf)
	if err != nil || typ != MsgStats || len(got) != 0 {
		t.Fatalf("frame 2: %v %v %v", typ, got, err)
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized length prefix.
	hdr := []byte{0xff, 0xff, 0xff, 0xff, 1}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Zero-length frame (no type byte).
	if _, _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 0})); err == nil {
		t.Fatal("zero frame accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHello, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:buf.Len()-2])); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestMessageRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, bits := range []int{16, 64, 100} {
		pivots := randCodes(rng, 3, bits)
		hello := HelloOK{Version: Version, Length: bits, Part: 2, Parts: 4, Tuples: 999, Pivots: pivots}
		got, err := ParseHelloOK(hello.Append(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got.Part != 2 || got.Parts != 4 || got.Tuples != 999 || got.Length != bits || len(got.Pivots) != 3 {
			t.Fatalf("hello round trip: %+v", got)
		}
		for i := range pivots {
			if !got.Pivots[i].Equal(pivots[i]) {
				t.Fatalf("pivot %d mismatch", i)
			}
		}

		req := SearchReq{H: 5, Queries: randCodes(rng, 7, bits)}
		gotReq, err := ParseSearchReq(req.Append(nil), bits)
		if err != nil {
			t.Fatal(err)
		}
		if gotReq.H != 5 || len(gotReq.Queries) != 7 {
			t.Fatalf("search req: %+v", gotReq)
		}
		for i := range req.Queries {
			if !gotReq.Queries[i].Equal(req.Queries[i]) {
				t.Fatalf("query %d mismatch", i)
			}
		}
	}

	resp := SearchResp{IDs: [][]int{{1, 5, 900000}, nil, {0}}}
	gotResp, err := ParseSearchResp(resp.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotResp.IDs) != 3 || len(gotResp.IDs[0]) != 3 || gotResp.IDs[0][2] != 900000 || gotResp.IDs[2][0] != 0 {
		t.Fatalf("search resp: %+v", gotResp)
	}

	tk := TopKResp{IDs: [][]int{{9, 2}}, Dists: [][]int{{0, 3}}}
	gotTK, err := ParseTopKResp(tk.Append(nil))
	if err != nil {
		t.Fatal(err)
	}
	if gotTK.IDs[0][1] != 2 || gotTK.Dists[0][1] != 3 {
		t.Fatalf("topk resp: %+v", gotTK)
	}

	st := StatsResp{Requests: 7, Queries: 100, IDsReturned: 12, FaultsInjected: 2, DistanceComputations: 555}
	gotSt, err := ParseStatsResp(st.Append(nil))
	if err != nil || gotSt != st {
		t.Fatalf("stats resp: %+v err %v", gotSt, err)
	}

	em := ErrorMsg{Msg: "injected failure"}
	gotEm, err := ParseErrorMsg(em.Append(nil))
	if err != nil || gotEm.Msg != em.Msg {
		t.Fatalf("error msg: %+v err %v", gotEm, err)
	}
}

func TestParseErrorPaths(t *testing.T) {
	cases := []struct {
		name  string
		parse func([]byte) error
		data  []byte
	}{
		{"hello empty", func(b []byte) error { _, err := ParseHello(b); return err }, nil},
		{"hello trailing", func(b []byte) error { _, err := ParseHello(b); return err }, []byte{1, 99}},
		{"hello-ok truncated", func(b []byte) error { _, err := ParseHelloOK(b); return err }, []byte{1, 32}},
		{"hello-ok zero length", func(b []byte) error { _, err := ParseHelloOK(b); return err }, []byte{1, 0, 0, 2, 0, 0}},
		{"hello-ok hostile pivot count", func(b []byte) error { _, err := ParseHelloOK(b); return err },
			[]byte{1, 16, 0, 2, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"search-resp hostile count", func(b []byte) error { _, err := ParseSearchResp(b); return err },
			[]byte{0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"topk-resp truncated pair", func(b []byte) error { _, err := ParseTopKResp(b); return err },
			[]byte{1, 2, 5}},
		{"stats truncated", func(b []byte) error { _, err := ParseStatsResp(b); return err }, []byte{1, 2}},
		{"error-msg short", func(b []byte) error { _, err := ParseErrorMsg(b); return err }, []byte{9, 'h', 'i'}},
	}
	for _, tc := range cases {
		if err := tc.parse(tc.data); err == nil {
			t.Errorf("%s: corrupt payload accepted", tc.name)
		}
	}
	if _, err := ParseSearchReq([]byte{3, 2, 0xAA}, 64); err == nil {
		t.Error("search req with short code accepted")
	}
}

// buildSnapshot writes one partition of random codes as a snapshot and
// returns the pointer index over the same tuples as the oracle.
func buildSnapshot(t testing.TB, rng *rand.Rand, bits, parts int) (SnapshotMeta, *core.DynamicIndex, []byte) {
	codes := randCodes(rng, 300, bits)
	pivots := histo.Pivots(codes[:100], parts)
	meta := SnapshotMeta{Part: 1, Parts: parts, Length: bits, Pivots: pivots}
	own := make([]bitvec.Code, 0, len(codes))
	ids := make([]int, 0, len(codes))
	for i, c := range codes {
		if histo.PartitionID(pivots, c) == meta.Part {
			own = append(own, c)
			ids = append(ids, i)
		}
	}
	idx := core.BuildDynamic(own, ids, core.Options{})
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, meta, core.Freeze(idx)); err != nil {
		t.Fatal(err)
	}
	return meta, idx, buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	meta, idx, data := buildSnapshot(t, rng, 32, 4)
	gotMeta, gotIdx, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if gotMeta.Part != meta.Part || gotMeta.Parts != meta.Parts || gotMeta.Length != meta.Length {
		t.Fatalf("meta: %+v vs %+v", gotMeta, meta)
	}
	for i := range meta.Pivots {
		if !gotMeta.Pivots[i].Equal(meta.Pivots[i]) {
			t.Fatalf("pivot %d mismatch", i)
		}
	}
	if gotIdx.Len() != idx.Len() {
		t.Fatalf("tuples %d vs %d", gotIdx.Len(), idx.Len())
	}
	q := idx.Codes()[0]
	if got, want := core.NewSearcher(gotIdx).Search(q, 2), idx.Search(q, 2); len(got) != len(want) {
		t.Fatalf("decoded snapshot answers differently: %v vs %v", got, want)
	}
}

// TestFrozenSnapshotRoundTrip: the eager reader yields a frozen index that
// answers exactly like the pointer oracle.
func TestFrozenSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	meta, idx, data := buildSnapshot(t, rng, 32, 4)
	gotMeta, gotIdx, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	gotFrozen, ok := gotIdx.(*core.FrozenIndex)
	if !ok {
		t.Fatalf("snapshot decoded as %T", gotIdx)
	}
	if gotMeta.Part != meta.Part || gotMeta.Parts != meta.Parts || gotMeta.Length != meta.Length {
		t.Fatalf("meta: %+v vs %+v", gotMeta, meta)
	}
	if gotFrozen.Len() != idx.Len() {
		t.Fatalf("tuples %d vs %d", gotFrozen.Len(), idx.Len())
	}
	sr := core.NewSearcher(gotFrozen)
	oracle := core.NewSearcher(idx)
	for _, q := range idx.Codes()[:10] {
		got := append([]int(nil), sr.Search(q, 3)...)
		want := append([]int(nil), oracle.Search(q, 3)...)
		sort.Ints(got)
		sort.Ints(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frozen snapshot answers differently: %v vs %v", got, want)
		}
	}
}

func TestSnapshotErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, _, data := buildSnapshot(t, rng, 32, 3)
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE this is not a snapshot")},
		{"truncated header", data[:6]},
		{"truncated pivots", data[:10]},
		{"truncated index", data[:len(data)-20]},
		{"index magic corrupted", append(append([]byte{}, data[:len(data)-idxLen(t, data)]...), 'X')},
	}
	for _, tc := range cases {
		if _, _, err := ReadSnapshot(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: corrupt snapshot accepted", tc.name)
		}
	}
	// Inconsistent meta must fail validation on write.
	idx := core.Freeze(core.BuildDynamic(randCodes(rng, 10, 16), nil, core.Options{}))
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, SnapshotMeta{Part: 5, Parts: 2, Length: 16, Pivots: randCodes(rng, 1, 16)}, idx); err == nil {
		t.Error("out-of-range partition accepted")
	}
	if err := WriteSnapshot(&buf, SnapshotMeta{Part: 0, Parts: 1, Length: 32}, idx); err == nil {
		t.Error("length mismatch with index accepted")
	}
}

// idxLen finds how many trailing bytes belong to the embedded index by
// locating the HADX magic.
func idxLen(t *testing.T, data []byte) int {
	i := bytes.Index(data, []byte("HADX"))
	if i < 0 {
		t.Fatal("no embedded index magic")
	}
	return len(data) - i
}

// TestSearchReqEngineHint: the engine field round-trips and unknown hints
// are rejected.
func TestSearchReqEngineHint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := randCodes(rng, 3, 64)
	for _, engine := range []int{EngineAuto, EngineHA, EngineMIH, EngineScan} {
		payload := SearchReq{H: 4, Engine: engine, Queries: queries}.Append(nil)
		got, err := ParseSearchReq(payload, 64)
		if err != nil {
			t.Fatalf("engine %s: %v", EngineName(engine), err)
		}
		if got.Engine != engine || got.H != 4 || len(got.Queries) != 3 {
			t.Fatalf("engine %s round trip: %+v", EngineName(engine), got)
		}
	}
	// The engine is the second-to-last varint.
	bad := SearchReq{H: 4, Queries: queries}.Append(nil)
	bad[len(bad)-2] = 9
	if _, err := ParseSearchReq(bad, 64); err == nil {
		t.Error("unknown engine hint accepted")
	}
}

// TestSearchReqPriority: the priority class round-trips with and without an
// engine hint, and out-of-range classes are rejected.
func TestSearchReqPriority(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	queries := randCodes(rng, 2, 32)
	for _, engine := range []int{EngineAuto, EngineMIH} {
		for _, prio := range []int{PriorityNormal, PriorityInteractive, PriorityBatch} {
			payload := SearchReq{H: 3, Engine: engine, Priority: prio, Queries: queries}.Append(nil)
			got, err := ParseSearchReq(payload, 32)
			if err != nil {
				t.Fatalf("engine %s priority %s: %v", EngineName(engine), PriorityName(prio), err)
			}
			if got.Engine != engine || got.Priority != prio || got.H != 3 || len(got.Queries) != 2 {
				t.Fatalf("engine %s priority %s round trip: %+v", EngineName(engine), PriorityName(prio), got)
			}
		}
	}
	bad := SearchReq{H: 3, Engine: EngineHA, Queries: queries}.Append(nil)
	bad[len(bad)-1] = 7
	if _, err := ParseSearchReq(bad, 32); err == nil {
		t.Error("unknown priority class accepted")
	}
}

// TestSearchReqFixedLayout: every request carries both the engine and the
// priority field, defaults included, and a payload missing either — or
// carrying anything after them — is rejected rather than defaulted.
func TestSearchReqFixedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	queries := randCodes(rng, 2, 32)
	full := SearchReq{H: 5, Queries: queries}.Append(nil)
	// H, count, and the two fixed-width codes, then engine and priority.
	if want := 1 + 1 + 2*bitvec.EncodedLen(32) + 2; len(full) != want {
		t.Fatalf("default request is %d bytes, want %d", len(full), want)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"no engine or priority", full[:len(full)-2]},
		{"no priority", full[:len(full)-1]},
		{"trailing byte", append(append([]byte(nil), full...), 0)},
	} {
		if _, err := ParseSearchReq(tc.data, 32); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestShedRespRoundTrip: the v5 shed payload round-trips and rejects junk.
func TestShedRespRoundTrip(t *testing.T) {
	payload := ShedResp{WaitNs: 123456789}.Append(nil)
	got, err := ParseShedResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.WaitNs != 123456789 {
		t.Fatalf("WaitNs round trip: %d", got.WaitNs)
	}
	if _, err := ParseShedResp(append(payload, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	if _, err := ParseShedResp(nil); err == nil {
		t.Error("empty payload accepted")
	}
}
