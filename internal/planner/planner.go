// Package planner routes each Hamming-select to the cheapest of three
// engines — the HA-Index walk, multi-index hashing, and the brute scan — in
// the spirit of the paper's Section 4.7 cost analysis: the walk's search
// cost is bounded by its nodes and edges and collapses toward a scan when
// the threshold stops pruning, while MIH's probe count explodes with its
// pigeonhole radius but ignores the walk's cliff. Neither analytical bound
// ranks real engines reliably across (bits, threshold, n, distribution), so
// the planner's cost model is *measured*: at build time it calibrates
// per-engine nanosecond costs by timing sampled probes over a threshold
// grid (interpolating between grid points), and at serve time it refines
// every cell with an EWMA of observed latencies, exploring a runner-up
// engine periodically so a stale cell cannot pin a threshold to a slow
// engine forever.
//
// The planner is safe for concurrent use: cost cells and decision counters
// are atomics, and a lost racing EWMA store merely drops one observation.
package planner

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"time"

	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/mih"
)

// Strategy names an access path.
type Strategy int

const (
	// UseHA routes the query through the HA-Index walk.
	UseHA Strategy = iota
	// UseMIH routes the query through multi-index hashing.
	UseMIH
	// UseScan routes the query through the linear scan.
	UseScan

	numStrategies
)

func (s Strategy) String() string {
	switch s {
	case UseHA:
		return "ha"
	case UseMIH:
		return "mih"
	case UseScan:
		return "scan"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategy maps the -engine flag spelling to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "ha", "ha-index":
		return UseHA, nil
	case "mih":
		return UseMIH, nil
	case "scan":
		return UseScan, nil
	}
	return 0, fmt.Errorf("planner: unknown engine %q (want ha, mih, or scan)", name)
}

// Engines is the set of access paths the planner chooses among. HA is
// required; MIH and the scan arrays are optional — a missing engine is
// simply never chosen.
type Engines struct {
	// HA is the HA-Index (pointer or frozen).
	HA core.Index
	// MIH is the adapted multi-index-hashing engine, or nil.
	MIH *core.EngineIndex
	// Codes and IDs drive the brute scan and supply calibration probes.
	// IDs defaults to positions when nil; an empty Codes disables both the
	// scan path and calibration.
	Codes []bitvec.Code
	IDs   []int
}

// Options tunes the planner. The zero value selects sane defaults.
type Options struct {
	// Seed drives probe sampling and the distance histogram.
	Seed int64
	// CalibProbes is the number of timed queries per (engine, grid
	// threshold) during build-time calibration; 0 selects 2, negative
	// disables calibration (cells start unmeasured and fill online).
	CalibProbes int
	// Alpha is the EWMA weight of a new observation; 0 selects 0.2.
	Alpha float64
	// ExploreEvery routes every k-th decision at a threshold to the
	// runner-up engine so stale cells heal; 0 selects 64, negative disables.
	ExploreEvery int64
}

// Plan describes one routing decision.
type Plan struct {
	Strategy Strategy
	// Explore marks a periodic runner-up probe rather than a cost win.
	Explore bool
	// EstimatedResults is the selectivity-based expected answer count.
	EstimatedResults float64
	// CostNs is the modeled per-query cost of each strategy in nanoseconds
	// (0 = unmeasured or engine unavailable).
	CostNs [numStrategies]float64
	// Reason is a human-readable justification (EXPLAIN).
	Reason string
}

// Planner owns the engine set and the measured cost model.
type Planner struct {
	eng  Engines
	n    int
	bits int

	alpha        float64
	exploreEvery uint64

	distHist []float64 // P(pairwise distance = d), sampled

	avail [numStrategies]bool
	// cost[s][h] is the EWMA per-query cost of strategy s at threshold h,
	// stored as float64 bits; 0 means unmeasured.
	cost [numStrategies][]atomic.Uint64
	// decisions[h] counts Plan calls at threshold h, pacing exploration.
	decisions []atomic.Uint64

	// srHA and srMIH back the single-goroutine Select/SelectWith
	// convenience paths, created lazily.
	srHA, srMIH *core.Searcher
}

// New builds a planner over an existing engine set and calibrates its cost
// model (unless opts.CalibProbes is negative).
func New(eng Engines, opts Options) (*Planner, error) {
	if eng.HA == nil {
		return nil, fmt.Errorf("planner: HA engine is required")
	}
	bits := eng.HA.Length()
	if eng.MIH != nil && eng.MIH.Length() != bits {
		return nil, fmt.Errorf("planner: MIH engine is %d-bit, HA is %d-bit", eng.MIH.Length(), bits)
	}
	if eng.IDs == nil && eng.Codes != nil {
		eng.IDs = make([]int, len(eng.Codes))
		for i := range eng.IDs {
			eng.IDs[i] = i
		}
	}
	if eng.Codes != nil && len(eng.IDs) != len(eng.Codes) {
		return nil, fmt.Errorf("planner: %d ids for %d codes", len(eng.IDs), len(eng.Codes))
	}
	alpha := opts.Alpha
	if alpha == 0 {
		alpha = 0.2
	}
	explore := opts.ExploreEvery
	if explore == 0 {
		explore = 64
	}
	if explore < 0 {
		explore = math.MaxInt64 // never
	}
	p := &Planner{
		eng:          eng,
		n:            eng.HA.Len(),
		bits:         bits,
		alpha:        alpha,
		exploreEvery: uint64(explore),
		decisions:    make([]atomic.Uint64, bits+1),
	}
	for s := range p.cost {
		p.cost[s] = make([]atomic.Uint64, bits+1)
	}
	p.avail[UseHA] = true
	p.avail[UseMIH] = eng.MIH != nil
	p.avail[UseScan] = len(eng.Codes) > 0
	rng := rand.New(rand.NewSource(opts.Seed))
	if len(eng.Codes) > 0 {
		p.distHist = sampleDistanceHistogram(eng.Codes, rng)
	} else {
		p.distHist = make([]float64, bits+1)
	}
	probes := opts.CalibProbes
	if probes == 0 {
		probes = 2
	}
	if probes > 0 && len(eng.Codes) > 0 {
		p.calibrate(probes, rng)
	}
	return p, nil
}

// Auto builds the full engine set — frozen HA-Index, MIH, scan — over the
// codes and returns a calibrated planner. ids default to positions.
func Auto(codes []bitvec.Code, ids []int, opts Options) (*Planner, error) {
	if len(codes) == 0 {
		return nil, fmt.Errorf("planner: empty dataset")
	}
	m, err := mih.Build(codes, ids, mih.Options{})
	if err != nil {
		return nil, err
	}
	eng := Engines{
		HA:    core.Freeze(core.BuildDynamic(codes, ids, core.Options{})),
		MIH:   core.AsIndex(m),
		Codes: codes,
		IDs:   ids,
	}
	return New(eng, opts)
}

// sampleDistanceHistogram estimates P(dist = d) from random pairs.
func sampleDistanceHistogram(codes []bitvec.Code, rng *rand.Rand) []float64 {
	bits := codes[0].Len()
	hist := make([]float64, bits+1)
	const pairs = 2000
	for i := 0; i < pairs; i++ {
		a := codes[rng.Intn(len(codes))]
		b := codes[rng.Intn(len(codes))]
		hist[a.Distance(b)]++
	}
	for d := range hist {
		hist[d] /= pairs
	}
	return hist
}

// calibGrid returns the thresholds measured at build time: dense where the
// engines cross over at small h, sparse toward the full code width.
func (p *Planner) calibGrid() []int {
	grid := []int{0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96}
	out := grid[:0]
	for _, h := range grid {
		if h <= p.bits {
			out = append(out, h)
		}
	}
	if len(out) == 0 || out[len(out)-1] != p.bits {
		out = append(out, p.bits)
	}
	return out
}

// calibrate seeds every cost cell: each available engine is timed on
// `probes` data-distributed queries at each grid threshold, and the cells
// between grid points are filled by linear interpolation — so the very
// first real query at any threshold already has a comparable cost model.
func (p *Planner) calibrate(probes int, rng *rand.Rand) {
	queries := make([]bitvec.Code, probes)
	for i := range queries {
		q := p.eng.Codes[rng.Intn(len(p.eng.Codes))].Clone()
		// Perturb so exact-duplicate groups do not make h=0 look free.
		for f := 0; f < 2; f++ {
			q.FlipBit(rng.Intn(p.bits))
		}
		queries[i] = q
	}
	srHA := core.NewSearcher(p.eng.HA)
	var srMIH *core.Searcher
	if p.avail[UseMIH] {
		srMIH = core.NewSearcher(p.eng.MIH)
	}
	grid := p.calibGrid()
	measured := make([][numStrategies]float64, len(grid))
	for gi, h := range grid {
		for s := Strategy(0); s < numStrategies; s++ {
			if !p.avail[s] {
				continue
			}
			start := time.Now()
			for _, q := range queries {
				switch s {
				case UseHA:
					srHA.Search(q, h)
				case UseMIH:
					srMIH.Search(q, h)
				case UseScan:
					p.Scan(q, h, nil, nil)
				}
			}
			measured[gi][s] = float64(time.Since(start).Nanoseconds()) / float64(len(queries))
		}
	}
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.avail[s] {
			continue
		}
		for gi := 0; gi < len(grid); gi++ {
			lo := grid[gi]
			hi, next := p.bits, measured[gi][s]
			if gi+1 < len(grid) {
				hi, next = grid[gi+1], measured[gi+1][s]
			}
			for h := lo; h <= hi; h++ {
				v := measured[gi][s]
				if hi > lo {
					t := float64(h-lo) / float64(hi-lo)
					v = (1-t)*measured[gi][s] + t*next
				}
				p.cost[s][h].Store(math.Float64bits(math.Max(v, 1)))
			}
		}
	}
}

// Scan is the brute-force path over the Engines' Codes and IDs, appending
// matches to out; with out and stats both nil it is a timing-only run that
// collects nothing. It only reads the immutable engine arrays, so it is
// safe for concurrent use.
func (p *Planner) Scan(q bitvec.Code, h int, out []int, stats *core.SearchStats) []int {
	for i, c := range p.eng.Codes {
		if _, ok := q.DistanceWithin(c, h); ok {
			if out != nil || stats != nil {
				out = append(out, p.eng.IDs[i])
			}
		}
	}
	if stats != nil {
		stats.DistanceComputations += len(p.eng.Codes)
		stats.LeavesChecked += len(p.eng.Codes)
	}
	return out
}

// CostNs returns the modeled per-query cost of strategy s at threshold h in
// nanoseconds (0 = unmeasured or unavailable).
func (p *Planner) CostNs(s Strategy, h int) float64 {
	h = p.clamp(h)
	if s < 0 || s >= numStrategies || !p.avail[s] {
		return 0
	}
	return math.Float64frombits(p.cost[s][h].Load())
}

// Available reports whether strategy s can serve queries.
func (p *Planner) Available(s Strategy) bool {
	return s >= 0 && s < numStrategies && p.avail[s]
}

func (p *Planner) clamp(h int) int {
	if h < 0 {
		return 0
	}
	if h > p.bits {
		return p.bits
	}
	return h
}

// Selectivity returns the estimated fraction of tuples within distance h of
// a data-distributed query.
func (p *Planner) Selectivity(h int) float64 {
	if h >= p.bits {
		return 1
	}
	s := 0.0
	for d := 0; d <= h && d < len(p.distHist); d++ {
		s += p.distHist[d]
	}
	return s
}

// exploreCostCap bounds how bad a runner-up may look before periodic
// exploration stops probing it. Exploration heals stale cells near the
// decision boundary; a runner-up this far behind cannot plausibly become
// the winner before drift re-prices the whole grid, and probing it charges
// its full cost to a live query.
const exploreCostCap = 8.0

// Plan decides the access path for threshold h without executing. Every
// exploreEvery-th decision at a threshold deliberately picks the runner-up
// so its EWMA cell keeps tracking reality — unless the runner-up is modeled
// at more than exploreCostCap times the winner, in which case the probe
// would cost far more than the staleness it guards against.
func (p *Planner) Plan(h int) Plan {
	h = p.clamp(h)
	pl := Plan{EstimatedResults: p.Selectivity(h) * float64(p.n)}
	best, second := Strategy(-1), Strategy(-1)
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.avail[s] {
			continue
		}
		c := math.Float64frombits(p.cost[s][h].Load())
		pl.CostNs[s] = c
		if c == 0 {
			// Unmeasured cells win outright: one real query prices them.
			pl.Strategy = s
			pl.Reason = fmt.Sprintf("%s unmeasured at h=%d; probing it", s, h)
			return pl
		}
		if best < 0 || c < pl.CostNs[best] {
			best, second = s, best
		} else if second < 0 || c < pl.CostNs[second] {
			second = s
		}
	}
	if best < 0 {
		// Only the HA walk exists and nothing is measured.
		pl.Strategy = UseHA
		pl.Reason = "no cost model; defaulting to the HA-Index walk"
		return pl
	}
	d := p.decisions[h].Add(1)
	if second >= 0 && d%p.exploreEvery == 0 &&
		pl.CostNs[second] <= exploreCostCap*pl.CostNs[best] {
		pl.Strategy = second
		pl.Explore = true
		pl.Reason = fmt.Sprintf("exploring runner-up %s (%.0fns vs best %s %.0fns)",
			second, pl.CostNs[second], best, pl.CostNs[best])
		return pl
	}
	pl.Strategy = best
	if second >= 0 {
		pl.Reason = fmt.Sprintf("%s %.0fns beats %s %.0fns at h=%d",
			best, pl.CostNs[best], second, pl.CostNs[second], h)
	} else {
		pl.Reason = fmt.Sprintf("%s is the only available engine", best)
	}
	return pl
}

// Observe folds a measured per-query cost (nanoseconds) into the EWMA cell
// for (s, h). Safe for concurrent use; a racing store loses one sample.
func (p *Planner) Observe(s Strategy, h int, ns float64) {
	if s < 0 || s >= numStrategies || ns <= 0 {
		return
	}
	h = p.clamp(h)
	cell := &p.cost[s][h]
	old := math.Float64frombits(cell.Load())
	v := ns
	if old != 0 {
		v = (1-p.alpha)*old + p.alpha*ns
	}
	cell.Store(math.Float64bits(v))
}

// Select answers the Hamming-select through the planned path, observes the
// measured cost, and returns the plan that was used. Select and SelectWith
// reuse planner-owned searchers and so must not be called concurrently;
// concurrent servers run their own Searchers and use Plan/Observe directly.
func (p *Planner) Select(q bitvec.Code, h int) ([]int, core.SearchStats, Plan) {
	pl := p.Plan(h)
	out, stats := p.SelectWith(pl.Strategy, q, h)
	return out, stats, pl
}

// SelectWith forces one strategy, still feeding the observation loop.
func (p *Planner) SelectWith(s Strategy, q bitvec.Code, h int) ([]int, core.SearchStats) {
	var out []int
	var stats core.SearchStats
	start := time.Now()
	switch s {
	case UseMIH:
		if p.srMIH == nil {
			p.srMIH = core.NewSearcher(p.eng.MIH)
		}
		out = append(out, p.srMIH.Search(q, h)...)
		stats = p.srMIH.Stats
	case UseScan:
		out = p.Scan(q, h, []int{}, &stats)
	default:
		if p.srHA == nil {
			p.srHA = core.NewSearcher(p.eng.HA)
		}
		out = append(out, p.srHA.Search(q, h)...)
		stats = p.srHA.Stats
	}
	p.Observe(s, h, float64(time.Since(start).Nanoseconds()))
	return out, stats
}

// Explain renders the decision for threshold h, EXPLAIN-style.
func (p *Planner) Explain(h int) string {
	pl := p.Plan(h)
	var b strings.Builder
	fmt.Fprintf(&b, "Hamming-select h=%d over %d tuples (%d-bit codes)\n", h, p.n, p.bits)
	fmt.Fprintf(&b, "  estimated selectivity: %.4f (~%.0f results)\n", p.Selectivity(h), pl.EstimatedResults)
	for s := Strategy(0); s < numStrategies; s++ {
		if !p.avail[s] {
			fmt.Fprintf(&b, "  %-4s: unavailable\n", s)
		} else if pl.CostNs[s] == 0 {
			fmt.Fprintf(&b, "  %-4s: unmeasured\n", s)
		} else {
			fmt.Fprintf(&b, "  %-4s: %.0f ns/query (measured EWMA)\n", s, pl.CostNs[s])
		}
	}
	fmt.Fprintf(&b, "  -> %s: %s\n", pl.Strategy, pl.Reason)
	return b.String()
}

// Engines exposes the planner's engine set (e.g. so a server can share the
// same indexes for forced-engine requests).
func (p *Planner) Engines() Engines { return p.eng }
