package main

import (
	"fmt"
	"math/rand"

	"haindex/internal/bitvec"
	"haindex/internal/dataset"
	"haindex/internal/loadgen"
)

// Every workload stores clustered 64-bit codes on two shards behind one
// Router, driven by a closed loop of one client that sends its next
// operation only once the last one has answered. One client keeps the two
// vCPUs of the reference host busy, since the shards serve each request in
// parallel: a second client added about a tenth more throughput on
// select-uniform and select-zipf-cached and several times the p90 and p99,
// which then measured the queue behind the other client.
const (
	bits        = 64
	numShards   = 2
	clusterSize = 1000 // codes per cluster
	clusterFlip = 3    // bit flips from the cluster centre per stored code
	queryFlip   = 2    // bit flips from a stored code per query
	maxH        = 8    // searches draw h uniformly from 0..maxH
	topK        = 10
)

// workload is one traffic mix over one deployment shape.
type workload struct {
	name string
	why  string
	n    int // stored codes
	// mutable seeds LSM shards (haserve -mutable) instead of immutable
	// mmap'd ones; cacheEntries is the per-shard result cache (haserve
	// -cache), 0 for none.
	mutable      bool
	cacheEntries int
	// minShardCodes, when positive, is a floor every shard must exceed; the
	// run fails loudly otherwise.
	minShardCodes int
	// deployments is how many times an untraced run sets the deployment up
	// and measures it. On select-uniform each is a fresh planner
	// calibration, whose engine mix moves throughput by up to a third.
	deployments int
	// blockOps is the unit the untraced run measures in: about a second of
	// operations on the reference host, and on mutable-churn one cycle of
	// three seals and a compaction per shard.
	blockOps int
	// newStream returns the client's operation stream.
	newStream func(seed int64, codes []bitvec.Code) opStream
}

// opStream yields the client's operations in a fixed, seed-determined order.
type opStream interface{ next() op }

var workloads = []*workload{
	{
		name:          "select-uniform",
		why:           "300k codes, no cache, 90% searches at h 0-8 and 10% top-10 that never repeat: loads the request path, planner and engines, and shows planner calibration in setup",
		n:             300_000,
		minShardCodes: 1 << 17,
		deployments:   4,
		blockOps:      4000,
		newStream: func(seed int64, codes []bitvec.Code) opStream {
			return &uniformStream{rng: opRNG(seed), codes: codes}
		},
	},
	{
		name:         "select-zipf-cached",
		why:          "100k codes with the server result cache; 400 distinct 16-query requests at h=6 under Zipf 1.1: loads qcache, the wire codec and the Router merge, not the engines",
		n:            100_000,
		cacheEntries: 16384,
		deployments:  3,
		blockOps:     2000,
		newStream: func(seed int64, codes []bitvec.Code) opStream {
			return &zipfStream{rng: opRNG(seed), pool: zipfPool(seed, codes), pick: zipfPicker}
		},
	},
	{
		name:        "mutable-churn",
		why:         "100k codes on mutable LSM shards; 70% searches, 25% 16-code inserts, 5% deletes: writes seal and compact beside reads on the same layers",
		n:           100_000,
		mutable:     true,
		deployments: 3,
		blockOps:    churnCycle,
		newStream: func(seed int64, codes []bitvec.Code) opStream {
			return newChurnStream(seed, codes)
		},
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Every random stream derives its source from the run seed and a fixed salt,
// so the stored codes, the client's operations and the correctness sample
// are independent yet all reproducible from --seed alone.
const (
	saltCodes = 0x636f646573
	saltOps   = 0x636c69656e74
	saltPool  = 0x706f6f6c
	saltCheck = 0x636865636b
)

// The Zipf and churn mixes.
const (
	zipfSkew    = 1.1
	zipfPoolLen = 400
	zipfBatch   = 16
	zipfH       = 6
	churnInsert = 16
	// churnCycle is the operations in which each shard takes in three
	// memtables' worth of codes (lsm's default MemtableMax of 4096, halved
	// across two shards, at a quarter of operations inserting churnInsert
	// codes): three seals and, at lsm's default CompactAt of 4 segments,
	// one compaction.
	churnCycle = 3 * 4096 * numShards * 4 / churnInsert
)

func opRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ saltOps))
}

// genCodes returns n clustered codes: clusters of clusterSize codes, each a
// random centre with clusterFlip random bit flips.
func genCodes(seed int64, n int) []bitvec.Code {
	rng := rand.New(rand.NewSource(seed ^ saltCodes))
	out := make([]bitvec.Code, 0, n)
	for len(out) < n {
		center := bitvec.Rand(rng, bits)
		for i := 0; i < clusterSize && len(out) < n; i++ {
			c := center.Clone()
			for f := 0; f < clusterFlip; f++ {
				c.FlipBit(rng.Intn(bits))
			}
			out = append(out, c)
		}
	}
	return out
}

// perturb returns a fresh query near a random stored code.
func perturb(rng *rand.Rand, codes []bitvec.Code) bitvec.Code {
	q := codes[rng.Intn(len(codes))].Clone()
	for f := 0; f < queryFlip; f++ {
		q.FlipBit(rng.Intn(bits))
	}
	return q
}

type opKind uint8

const (
	opSearch opKind = iota
	opTopK
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"search", "topk", "insert", "delete"}

// op is one Router call. arg is h for a search and k for a top-k.
type op struct {
	kind    opKind
	arg     int
	queries []bitvec.Code
	ids     []int
}

// uniformStream: 90% single-query searches at h uniform in 0..maxH, 10%
// single-query top-k; every query is a fresh perturbation.
type uniformStream struct {
	rng   *rand.Rand
	codes []bitvec.Code
}

func (s *uniformStream) next() op {
	if s.rng.Intn(10) == 0 {
		return op{kind: opTopK, arg: topK, queries: []bitvec.Code{perturb(s.rng, s.codes)}}
	}
	h := s.rng.Intn(maxH + 1)
	return op{kind: opSearch, arg: h, queries: []bitvec.Code{perturb(s.rng, s.codes)}}
}

var zipfPicker = loadgen.NewPicker(dataset.ZipfWeights(zipfPoolLen, zipfSkew))

// zipfPool is the fixed set of distinct requests the Zipf workload draws
// from. A handful of hot requests carry most of the
// traffic, so their answer sizes set the run's work. A plain perturbation
// that happens to flip back one of its stored code's own cluster flips lands
// nearer the cluster's centre and matches up to the whole cluster at h=6,
// about four times the usual answer, and whether a hot request holds such a
// query varied the work per request by up to a fifth from seed to seed.
// Pool queries therefore sit exactly clusterFlip+queryFlip bits from their
// cluster's centre: each perturbs a stored code that is clusterFlip bits from
// the centre, flipping queryFlip bits in which it agrees with the centre.
func zipfPool(seed int64, codes []bitvec.Code) [][]bitvec.Code {
	rng := rand.New(rand.NewSource(seed ^ saltPool))
	centres := map[int]bitvec.Code{}
	pool := make([][]bitvec.Code, zipfPoolLen)
	for i := range pool {
		pool[i] = make([]bitvec.Code, zipfBatch)
		for j := range pool[i] {
			for {
				row := rng.Intn(len(codes))
				cl := row / clusterSize
				if _, ok := centres[cl]; !ok {
					centres[cl] = clusterCentre(codes[cl*clusterSize : min((cl+1)*clusterSize, len(codes))])
				}
				if q, ok := perturbAway(rng, codes[row], centres[cl]); ok {
					pool[i][j] = q
					break
				}
			}
		}
	}
	return pool
}

// clusterCentre is the bitwise majority of a cluster's codes, which is the
// centre they were flipped from: each bit is flipped in a few codes at most.
func clusterCentre(members []bitvec.Code) bitvec.Code {
	c := members[0].Clone()
	for b := 0; b < bits; b++ {
		ones := 0
		for _, m := range members {
			if m.Bit(b) {
				ones++
			}
		}
		c.SetBit(b, 2*ones > len(members))
	}
	return c
}

// perturbAway returns stored with queryFlip distinct bits flipped, each one
// in which stored agrees with centre, so the query is queryFlip bits farther
// from the centre than stored. It reports false when stored is not exactly
// clusterFlip bits from the centre.
func perturbAway(rng *rand.Rand, stored, centre bitvec.Code) (bitvec.Code, bool) {
	if stored.Distance(centre) != clusterFlip {
		return bitvec.Code{}, false
	}
	q := stored.Clone()
	for f := 0; f < queryFlip; {
		b := rng.Intn(bits)
		if q.Bit(b) == centre.Bit(b) {
			q.FlipBit(b)
			f++
		}
	}
	return q, true
}

type zipfStream struct {
	rng  *rand.Rand
	pool [][]bitvec.Code
	pick *loadgen.Picker
}

func (s *zipfStream) next() op {
	return op{kind: opSearch, arg: zipfH, queries: s.pool[s.pick.Pick(s.rng)]}
}

// churnStream: 70% searches, 25% inserts of churnInsert new codes, 5% single
// deletes. live is its model of the live tuples, which the gate checks
// against.
type churnStream struct {
	rng    *rand.Rand
	codes  []bitvec.Code
	nextID int
	live   *liveSet
}

func newChurnStream(seed int64, codes []bitvec.Code) *churnStream {
	s := &churnStream{rng: opRNG(seed), codes: codes, nextID: len(codes), live: newLiveSet()}
	for id, c := range codes {
		s.live.add(id, c)
	}
	return s
}

func (s *churnStream) next() op {
	switch r := s.rng.Intn(100); {
	case r < 70:
		return op{kind: opSearch, arg: s.rng.Intn(maxH + 1), queries: []bitvec.Code{perturb(s.rng, s.codes)}}
	case r < 95:
		o := op{kind: opInsert}
		for i := 0; i < churnInsert; i++ {
			q := perturb(s.rng, s.codes)
			o.ids = append(o.ids, s.nextID)
			o.queries = append(o.queries, q)
			s.live.add(s.nextID, q)
			s.nextID++
		}
		return o
	default:
		id := s.live.ids[s.rng.Intn(len(s.live.ids))]
		s.live.remove(id)
		return op{kind: opDelete, ids: []int{id}}
	}
}

// liveSet is the model of live tuples: id → code, with O(1) random choice.
type liveSet struct {
	ids  []int
	pos  map[int]int
	code map[int]bitvec.Code
}

func newLiveSet() *liveSet {
	return &liveSet{pos: map[int]int{}, code: map[int]bitvec.Code{}}
}

func (l *liveSet) add(id int, c bitvec.Code) {
	if _, ok := l.pos[id]; !ok {
		l.pos[id] = len(l.ids)
		l.ids = append(l.ids, id)
	}
	l.code[id] = c
}

func (l *liveSet) remove(id int) {
	i, ok := l.pos[id]
	if !ok {
		return
	}
	last := l.ids[len(l.ids)-1]
	l.ids[i] = last
	l.pos[last] = i
	l.ids = l.ids[:len(l.ids)-1]
	delete(l.pos, id)
	delete(l.code, id)
}
