package wire

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haindex/internal/core"
)

// writeArenaSnapshot builds a frozen shard and writes it as a snapshot file,
// returning the path and the source index.
func writeArenaSnapshot(t *testing.T, dir string) (string, SnapshotMeta, *core.FrozenIndex) {
	t.Helper()
	rng := rand.New(rand.NewSource(44))
	meta, idx, _ := buildSnapshot(t, rng, 64, 3)
	frozen := core.Freeze(idx)
	path := filepath.Join(dir, "shard.hasn")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(f, meta, frozen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, meta, frozen
}

// TestArenaSnapshotRoundTrip: a snapshot reads back through both the
// eager ReadSnapshotFile and the zero-copy MapSnapshotFile, and both answer
// exactly like the source index.
func TestArenaSnapshotRoundTrip(t *testing.T) {
	path, meta, frozen := writeArenaSnapshot(t, t.TempDir())

	gotMeta, eagerIdx, err := ReadSnapshotFile(path)
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
	eager, ok := eagerIdx.(*core.FrozenIndex)
	if !ok {
		t.Fatalf("snapshot decoded as %T", eagerIdx)
	}

	mapMeta, mapped, err := MapSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if mapMeta.Part != meta.Part || mapMeta.Length != meta.Length {
		t.Fatalf("mapped meta: %+v vs %+v", mapMeta, meta)
	}

	esr, msr, osr := core.NewSearcher(eager), core.NewSearcher(mapped), core.NewSearcher(frozen)
	for _, q := range frozen.Codes()[:20] {
		want := append([]int(nil), osr.Search(q, 3)...)
		if got := esr.Search(q, 3); !sameIDs(got, want) {
			t.Fatalf("eager v4 answers %d ids, want %d", len(got), len(want))
		}
		if got := msr.Search(q, 3); !sameIDs(got, want) {
			t.Fatalf("mapped v4 answers %d ids, want %d", len(got), len(want))
		}
	}
}

// TestWriteSnapshotPicksArena: WriteSnapshot emits the mmap-native layout
// for any frozen index — freshly compiled by Freeze (contiguous roots) or
// decoded from an arena — so both files map zero-copy and answer alike.
func TestWriteSnapshotPicksArena(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	meta, idx, _ := buildSnapshot(t, rng, 32, 4)
	frozen := core.Freeze(idx)
	var arena bytes.Buffer
	if err := frozen.Encode(&arena, true); err != nil {
		t.Fatal(err)
	}
	arenaIdx, err := core.DecodeArenaBytes(arena.Bytes(), false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	oracle := core.NewSearcher(idx)
	for i, src := range []*core.FrozenIndex{frozen, arenaIdx} {
		var buf bytes.Buffer
		if err := WriteSnapshot(&buf, meta, src); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("s%d.hasn", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		_, mapped, err := MapSnapshotFile(path)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		msr := core.NewSearcher(mapped)
		for _, q := range idx.Codes()[:10] {
			want := append([]int(nil), oracle.Search(q, 3)...)
			if got := msr.Search(q, 3); !sameIDs(got, want) {
				t.Fatalf("source %d: mapped snapshot answers %d ids, want %d", i, len(got), len(want))
			}
		}
		mapped.Close()
	}
}

// TestSnapshotRejectsRetiredVersions: HASN versions 1–3 (pointer, v2 frozen
// and MIH embeddings) are no longer read; both readers reject the header
// with an error naming the version, before touching the body.
func TestSnapshotRejectsRetiredVersions(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeArenaSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The version is the single-byte varint right after the magic.
	if data[4] != snapshotVersion {
		t.Fatalf("snapshot version byte %d, want %d", data[4], snapshotVersion)
	}
	for _, v := range []byte{1, 2, 3} {
		old := append([]byte(nil), data...)
		old[4] = v
		want := fmt.Sprintf("version %d", v)
		if _, _, err := ReadSnapshot(bytes.NewReader(old)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ReadSnapshot on version %d: %v", v, err)
		}
		bad := filepath.Join(dir, "old.hasn")
		if err := os.WriteFile(bad, old, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapSnapshotFile(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("MapSnapshotFile on version %d: %v", v, err)
		}
	}
}

// TestArenaSnapshotCorrupt: splices and pad corruption must be rejected by
// both readers, never crash.
func TestArenaSnapshotCorrupt(t *testing.T) {
	dir := t.TempDir()
	path, _, _ := writeArenaSnapshot(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Locate the embedded arena: it starts at the first 8-aligned offset
	// whose bytes are the HADX magic with version 4.
	arenaOff := -1
	for off := 8; off+8 < len(data); off += 8 {
		if string(data[off:off+4]) == "HADX" && data[off+4] == 4 {
			arenaOff = off
			break
		}
	}
	if arenaOff < 0 {
		t.Fatal("embedded arena not found")
	}

	// Splice: a snapshot header over a v1 pointer-index body.
	spliced := append([]byte(nil), data[:arenaOff]...)
	rng := rand.New(rand.NewSource(46))
	_, idx, _ := buildSnapshot(t, rng, 64, 3)
	var v1body bytes.Buffer
	if err := idx.Encode(&v1body, true); err != nil {
		t.Fatal(err)
	}
	spliced = append(spliced, v1body.Bytes()...)
	if _, _, err := ReadSnapshot(bytes.NewReader(spliced)); err == nil {
		t.Error("snapshot header over a v1 body accepted")
	}

	// Deleting one byte just before the arena either breaks the pad chain or
	// leaves the arena misaligned — both readers must notice.
	shifted := append(append([]byte(nil), data[:arenaOff-1]...), data[arenaOff:]...)
	cases := [][]byte{
		data[:arenaOff-1],                     // truncated before the arena
		data[:len(data)-9],                    // truncated inside the arena
		shifted,                               // arena shifted off alignment
		corruptAt(data, arenaOff+4, 9),        // wrong embedded version
		append(data[:len(data):len(data)], 1), // trailing garbage breaks tight layout
	}
	for i, c := range cases {
		if _, _, err := ReadSnapshot(bytes.NewReader(c)); err == nil {
			t.Errorf("corrupt case %d accepted by ReadSnapshot", i)
		}
		bad := filepath.Join(dir, "bad.hasn")
		if err := os.WriteFile(bad, c, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := MapSnapshotFile(bad); err == nil {
			t.Errorf("corrupt case %d accepted by MapSnapshotFile", i)
		}
	}
}

func corruptAt(data []byte, off int, v byte) []byte {
	out := append([]byte(nil), data...)
	out[off] ^= v
	return out
}

func sameIDs(got, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	seen := map[int]int{}
	for _, id := range got {
		seen[id]++
	}
	for _, id := range want {
		seen[id]--
		if seen[id] < 0 {
			return false
		}
	}
	return true
}
