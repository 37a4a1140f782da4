package bench

import (
	"fmt"
	"time"

	"haindex/internal/baseline"
	"haindex/internal/bitvec"
	"haindex/internal/core"
	"haindex/internal/dataset"
)

// Scaling measures how the Hamming-select gap between the Dynamic HA-Index
// and the linear scan widens with dataset size — the projection of Table 4
// toward the paper's 270k–1M-tuple regime that EXPERIMENTS.md reports.
func Scaling(sc Scale) ([]Table, error) {
	sizes := []int{20000, 50000, 100000, 200000}
	if sc.SelectN < 20000 {
		// Quick mode: shrink the sweep proportionally.
		sizes = []int{sc.SelectN, 2 * sc.SelectN, 4 * sc.SelectN}
	}
	t := Table{
		Title:  "Scaling: Hamming-select query time vs dataset size (NUS-WIDE)",
		Note:   fmt.Sprintf("h=%d, %d-bit codes; per-query means over %d queries", sc.Threshold, sc.Bits, sc.Queries),
		Header: []string{"n", "DHA (ms)", "Nested-Loops (ms)", "NL/DHA", "DHA distance comps"},
	}
	for _, n := range sizes {
		env, err := NewEnv(dataset.NUSWide, n, sc.Bits, sc.Queries, sc.Seed)
		if err != nil {
			return nil, err
		}
		dha := core.BuildDynamic(env.Codes, nil, core.Options{})
		nl := baseline.NewNestedLoop(env.Codes, nil)
		var comps int
		dhaT := timeQueries(env.Queries, func(q bitvec.Code) {
			var st core.SearchStats
			dha.SearchInto(q, sc.Threshold, &st)
			comps += st.DistanceComputations
		})
		nlT := timeQueries(env.Queries, func(q bitvec.Code) { nl.Search(q, sc.Threshold) })
		ratio := float64(nlT) / float64(max64(dhaT, time.Nanosecond))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(dhaT),
			ms(nlT),
			fmt.Sprintf("%.1f", ratio),
			fmt.Sprintf("%d", comps/len(env.Queries)),
		})
	}
	return []Table{t}, nil
}

func max64(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
