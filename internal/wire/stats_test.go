package wire

import (
	"testing"
)

// fullStats has every field distinct and nonzero, so any mis-sliced or
// misordered encoding shows up as a wrong value, not a coincidental match.
func fullStats() StatsResp {
	return StatsResp{
		Requests:             101,
		Queries:              102,
		TopKQueries:          103,
		IDsReturned:          104,
		Errors:               105,
		FaultsInjected:       106,
		DistanceComputations: 107,
		NodesVisited:         108,
		LeavesChecked:        109,
		LatencyP50Ns:         201,
		LatencyP95Ns:         202,
		LatencyP99Ns:         203,
		LatencyMaxNs:         204,
		CacheEntries:         301,
		CacheHits:            302,
		CacheMisses:          303,
		AdmissionP50Ns:       304,
		PoolIdle:             305,
	}
}

// TestStatsRespRoundTrip: every field survives the round trip, and every
// strict prefix of the payload — a peer with fewer fields — is rejected.
func TestStatsRespRoundTrip(t *testing.T) {
	st := fullStats()
	full := st.Append(nil)
	got, err := ParseStatsResp(full)
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("parsed %+v, want %+v", got, st)
	}
	for cut := 0; cut < len(full); cut++ {
		if _, err := ParseStatsResp(full[:cut]); err == nil {
			t.Fatalf("%d-byte prefix of a %d-byte payload accepted", cut, len(full))
		}
	}
}

// TestStatsRespCorruptInputs: damaged payloads must fail softly with an
// error, never panic and never parse as a plausible snapshot.
func TestStatsRespCorruptInputs(t *testing.T) {
	full := fullStats().Append(nil)
	cases := []struct {
		name string
		b    []byte
	}{
		{"empty", nil},
		{"short base", full[:3]},
		{"truncated varint", append(append([]byte(nil), full[:9]...), 0x80)},
		{"trailing garbage varint", append(append([]byte(nil), full...), 0x80)},
		{"one extra field", append(append([]byte(nil), full...), 7)},
		{"mid-latency cut", full[:10]},
		{"continuation-only", []byte{0x80, 0x80, 0x80}},
	}
	for _, tc := range cases {
		if _, err := ParseStatsResp(tc.b); err == nil {
			t.Fatalf("%s: corrupt payload parsed without error", tc.name)
		}
	}
}

// FuzzStatsResp throws arbitrary bytes at the parser: it must never panic,
// parse∘append must be the identity on whatever it accepts, and the
// re-encoded payload must be rejected when cut short or followed by a byte.
func FuzzStatsResp(f *testing.F) {
	f.Add(fullStats().Append(nil))
	f.Add(StatsResp{}.Append(nil))
	f.Add(StatsResp{Requests: 1 << 62, PoolIdle: 3}.Append(nil))
	f.Add([]byte{0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseStatsResp(data)
		if err != nil {
			return
		}
		enc := m.Append(nil)
		got, err := ParseStatsResp(enc)
		if err != nil {
			t.Fatalf("re-parse: %v", err)
		}
		if got != m {
			t.Fatalf("round trip: %+v, want %+v", got, m)
		}
		if _, err := ParseStatsResp(enc[:len(enc)-1]); err == nil {
			t.Fatal("truncated payload accepted")
		}
		if _, err := ParseStatsResp(append(enc, 0)); err == nil {
			t.Fatal("payload with a trailing byte accepted")
		}
	})
}
