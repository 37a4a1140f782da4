package mrjoin

import (
	"sort"
	"testing"

	"haindex/internal/core"
	"haindex/internal/mapreduce"
	"haindex/internal/wire"
)

// TestBuildShardSnapshots: the reducer-emitted v4 snapshots load through
// both the eager and the mmap readers, and the union of shard answers equals
// a monolithic single-index build's answers.
func TestBuildShardSnapshots(t *testing.T) {
	r, _ := testData(t, 600, 0)
	r = roundTrip(r)
	opt := testOptions()
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Tiny chunk so every partition streams through several chunks.
	snaps, err := BuildShardSnapshots(r, pre, opt, dir, 48)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps.Paths) != opt.Partitions {
		t.Fatalf("%d snapshot files, want %d", len(snaps.Paths), opt.Partitions)
	}
	total := 0
	for _, n := range snaps.Tuples {
		total += n
	}
	if total != len(r) {
		t.Fatalf("shards hold %d tuples, dataset has %d", total, len(r))
	}

	codes := hashCodes(pre, r)
	mono := core.NewSearcher(core.BuildDynamic(codes, nil, opt.IndexOpts))

	searchers := make([]*core.Searcher, 0, len(snaps.Paths))
	for i, path := range snaps.Paths {
		meta, mapped, err := wire.MapSnapshotFile(path)
		if err != nil {
			t.Fatalf("mapping %s: %v", path, err)
		}
		defer mapped.Close()
		if meta.Part != i || meta.Parts != opt.Partitions {
			t.Fatalf("%s: meta %d/%d", path, meta.Part, meta.Parts)
		}
		if mapped.Len() != snaps.Tuples[i] {
			t.Fatalf("%s: %d tuples, job reported %d", path, mapped.Len(), snaps.Tuples[i])
		}
		// The eager reader must accept the same file.
		if _, eager, err := wire.ReadSnapshotFile(path); err != nil {
			t.Fatalf("eager read %s: %v", path, err)
		} else if _, ok := eager.(*core.FrozenIndex); !ok {
			t.Fatalf("%s decoded as %T", path, eager)
		}
		searchers = append(searchers, core.NewSearcher(mapped))
	}

	for qi := 0; qi < 40; qi++ {
		q := codes[qi*len(codes)/40]
		want := append([]int(nil), mono.Search(q, opt.Threshold)...)
		var got []int
		for _, sr := range searchers {
			got = append(got, sr.Search(q, opt.Threshold)...)
		}
		sort.Ints(want)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("query %d: sharded %d ids, monolithic %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: id mismatch at %d", qi, i)
			}
		}
	}
}

// TestBuildShardSnapshotsEmptyPartition: partitions that receive no tuples
// still produce a loadable snapshot.
func TestBuildShardSnapshotsEmptyPartition(t *testing.T) {
	r, _ := testData(t, 40, 0)
	r = roundTrip(r)
	opt := testOptions()
	opt.Partitions = 16 // far more partitions than clusters: some go empty
	opt.Nodes = 4
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := BuildShardSnapshots(r, pre, opt, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sawEmpty := false
	for i, path := range snaps.Paths {
		_, idx, err := wire.ReadSnapshotFile(path)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if idx.Len() == 0 {
			sawEmpty = true
		}
	}
	if !sawEmpty {
		t.Skip("no empty partition produced; dataset change?")
	}
}

// TestBuildShardSnapshotsUnderFaults: reducer re-execution rewrites shard
// files idempotently — the job still yields correct, loadable snapshots.
func TestBuildShardSnapshotsUnderFaults(t *testing.T) {
	r, _ := testData(t, 300, 0)
	r = roundTrip(r)
	opt := testOptions()
	opt.Faults = mapreduce.NewFaultPlan().
		FailEvery(mapreduce.MapTask, 3).
		FailEvery(mapreduce.ReduceTask, 2)
	opt.Retry = mapreduce.RetryPolicy{MaxAttempts: 5}
	pre, err := Preprocess(r, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := BuildShardSnapshots(r, pre, opt, t.TempDir(), 64)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, path := range snaps.Paths {
		_, idx, err := wire.ReadSnapshotFile(path)
		if err != nil {
			t.Fatalf("shard %d after faults: %v", i, err)
		}
		total += idx.Len()
	}
	if total != len(r) {
		t.Fatalf("shards hold %d tuples after faulty run, want %d", total, len(r))
	}
}
