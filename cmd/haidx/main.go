// Command haidx builds, inspects and queries persisted HA-Index files. build
// writes the frozen index in the mmap-native HADX v4 layout; info and search
// read that and the v1 Dynamic encoding a MapReduce build broadcasts.
//
// Usage:
//
//	hagen -profile NUS-WIDE -n 20000 -o d.csv
//	haidx build -data d.csv -bits 32 -o d.hadx
//	haidx info -index d.hadx
//	haidx search -index d.hadx -data d.csv -query-rows 0,42 -h 3
//	haidx shard -data d.csv -bits 32 -parts 4 -o shards/
//
// The shard subcommand splits the dataset into Gray-code partitions and
// writes one self-describing snapshot per partition (shard-00000.hasn …),
// ready to be served by haserve and queried through haquery. It also writes
// codes.txt (one bit-string per row) so queries can be issued by code.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
	"haindex/internal/gray"
	"haindex/internal/hash"
	"haindex/internal/histo"
	"haindex/internal/wire"
)

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: haidx <build|info|search|shard> [flags]")
	}
	switch os.Args[1] {
	case "build":
		cmdBuild(os.Args[2:])
	case "info":
		cmdInfo(os.Args[2:])
	case "search":
		cmdSearch(os.Args[2:])
	case "shard":
		cmdShard(os.Args[2:])
	default:
		fatalf("unknown subcommand %q; want build|info|search|shard", os.Args[1])
	}
}

func cmdBuild(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	data := fs.String("data", "", "CSV dataset (required)")
	bits := fs.Int("bits", 32, "binary code length")
	out := fs.String("o", "index.hadx", "output index file")
	seed := fs.Int64("seed", 1, "hash-learning sample seed")
	leafless := fs.Bool("leafless", false, "write the Option-B form without tuple-id tables")
	fs.Parse(args)
	if *data == "" {
		fatalf("build: -data is required")
	}
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	hf, err := hash.LearnSpectral(dataset.Reservoir(vecs, len(vecs)/10+100, *seed), *bits)
	if err != nil {
		fatalf("learning hash: %v", err)
	}
	t0 := time.Now()
	idx := core.Freeze(core.BuildDynamic(hash.HashAll(hf, vecs), nil, core.Options{}))
	buildTime := time.Since(t0)
	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := idx.Encode(f, !*leafless); err != nil {
		fatalf("encoding: %v", err)
	}
	sz := idx.EncodedSize(!*leafless)
	fmt.Printf("haidx: indexed %d tuples (%d-bit codes) in %v; wrote %s (%.1f KB)\n",
		idx.Len(), *bits, buildTime.Round(time.Millisecond), *out, float64(sz)/1e3)
	fmt.Println("note: queries must be hashed with the same learned function; keep the dataset and seed")
}

func loadIndex(path string) core.Index {
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	idx, err := core.DecodeIndex(f)
	if err != nil {
		fatalf("decoding %s: %v", path, err)
	}
	return idx
}

func cmdInfo(args []string) {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	fs.Parse(args)
	if *index == "" {
		fatalf("info: -index is required")
	}
	idx := loadIndex(*index)
	// Both index forms expose the same structural counters.
	stats := idx.(interface {
		Codes() []bitvec.Code
		NodeCount() int
		EdgeCount() int
		SizeBytes() int
	})
	form := "pointer (v1)"
	if _, ok := idx.(*core.FrozenIndex); ok {
		form = "arena (v4, mmap-native)"
	}
	fmt.Printf("HA-Index file: %s\n", *index)
	fmt.Printf("  form:           %s\n", form)
	fmt.Printf("  code length:    %d bits\n", idx.Length())
	fmt.Printf("  tuples:         %d\n", idx.Len())
	fmt.Printf("  distinct codes: %d\n", len(stats.Codes()))
	fmt.Printf("  internal nodes: %d\n", stats.NodeCount())
	fmt.Printf("  edges:          %d\n", stats.EdgeCount())
	if dyn, ok := idx.(*core.DynamicIndex); ok {
		fmt.Printf("  memory:         %.1f KB (internal %.1f KB)\n",
			float64(dyn.SizeBytes())/1e3, float64(dyn.InternalSizeBytes())/1e3)
	} else {
		fmt.Printf("  memory:         %.1f KB (flat arena)\n", float64(stats.SizeBytes())/1e3)
	}
}

func cmdSearch(args []string) {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	index := fs.String("index", "", "index file (required)")
	data := fs.String("data", "", "CSV dataset the index was built from (required)")
	rows := fs.String("query-rows", "0", "comma-separated dataset rows used as queries")
	h := fs.Int("h", 3, "Hamming threshold")
	seed := fs.Int64("seed", 1, "hash-learning sample seed used at build time")
	fs.Parse(args)
	if *index == "" || *data == "" {
		fatalf("search: -index and -data are required")
	}
	idx := loadIndex(*index)
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	hf, err := hash.LearnSpectral(dataset.Reservoir(vecs, len(vecs)/10+100, *seed), idx.Length())
	if err != nil {
		fatalf("re-learning hash: %v", err)
	}
	sr := core.NewSearcher(idx)
	for _, part := range strings.Split(*rows, ",") {
		row, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || row < 0 || row >= len(vecs) {
			fatalf("invalid query row %q (dataset has %d rows)", part, len(vecs))
		}
		q := hf.Hash(vecs[row])
		t0 := time.Now()
		ids := append([]int(nil), sr.Search(q, *h)...)
		took := time.Since(t0)
		sort.Ints(ids)
		fmt.Printf("row %d: %d matches within h=%d in %v [%d distance computations]\n",
			row, len(ids), *h, took, sr.Stats.DistanceComputations)
	}
}

// cmdShard hashes the dataset, picks Gray-rank pivots from a sample, splits
// the rows into contiguous Gray partitions, and writes one serving snapshot
// per partition. Row numbers in the CSV become the global tuple ids, so
// results from a sharded deployment line up with a single-index build.
func cmdShard(args []string) {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	data := fs.String("data", "", "CSV dataset (required)")
	bits := fs.Int("bits", 32, "binary code length")
	parts := fs.Int("parts", 2, "number of partitions (one snapshot each)")
	out := fs.String("o", "shards", "output directory")
	seed := fs.Int64("seed", 1, "hash-learning sample seed")
	chunk := fs.Int("chunk", 1<<18, "streaming-build chunk size in tuples (peak memory is O(chunk), not O(partition))")
	fs.Parse(args)
	if *data == "" {
		fatalf("shard: -data is required")
	}
	if *parts < 1 {
		fatalf("shard: -parts must be >= 1")
	}
	vecs, err := dataset.ReadCSV(*data)
	if err != nil {
		fatalf("%v", err)
	}
	hf, err := hash.LearnSpectral(dataset.Reservoir(vecs, len(vecs)/10+100, *seed), *bits)
	if err != nil {
		fatalf("learning hash: %v", err)
	}
	codes := hash.HashAll(hf, vecs)

	// Strided sample: a prefix sample is biased on row-ordered (clustered)
	// datasets and dumps the unseen clusters into one partition.
	pivots := histo.Pivots(histo.Sample(codes, 2000), *parts)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("%v", err)
	}
	byPart := make([][]int, *parts)
	for i, c := range codes {
		m := histo.PartitionID(pivots, c)
		byPart[m] = append(byPart[m], i)
	}
	t0 := time.Now()
	for m := 0; m < *parts; m++ {
		rows := byPart[m]
		partCodes := make([]bitvec.Code, len(rows))
		for j, i := range rows {
			partCodes[j] = codes[i]
		}
		meta := wire.SnapshotMeta{Part: m, Parts: *parts, Length: *bits, Pivots: pivots}
		path := filepath.Join(*out, fmt.Sprintf("shard-%05d.hasn", m))
		f, err := os.Create(path)
		if err != nil {
			fatalf("%v", err)
		}
		// Streaming build: Gray-sort the partition so chunks cover tight
		// Gray ranges, then freeze-and-spool chunk by chunk straight into the
		// snapshot — the partition index is never resident at once.
		gray.Sort(partCodes, rows)
		sw, err := core.NewFrozenStreamWriter(*bits, *chunk, core.Options{})
		if err != nil {
			fatalf("%v", err)
		}
		for j, c := range partCodes {
			if err := sw.Add(rows[j], c); err != nil {
				fatalf("streaming %s: %v", path, err)
			}
		}
		if err := wire.WriteSnapshotStream(f, meta, sw); err != nil {
			fatalf("writing %s: %v", path, err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("haidx: %s: %d tuples\n", path, len(rows))
	}
	cf, err := os.Create(filepath.Join(*out, "codes.txt"))
	if err != nil {
		fatalf("%v", err)
	}
	cw := bufio.NewWriter(cf)
	for _, c := range codes {
		fmt.Fprintln(cw, c.String())
	}
	if err := cw.Flush(); err != nil {
		fatalf("%v", err)
	}
	cf.Close()
	fmt.Printf("haidx: sharded %d tuples into %d partitions in %v; codes in %s\n",
		len(codes), *parts, time.Since(t0).Round(time.Millisecond), filepath.Join(*out, "codes.txt"))
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "haidx: "+format+"\n", args...)
	os.Exit(1)
}
