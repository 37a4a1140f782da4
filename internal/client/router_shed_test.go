package client

import (
	"bufio"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"haindex/internal/obs"
	"haindex/internal/wire"
)

// startSheddingServer runs a minimal in-test shard server that handshakes
// and answers every subsequent request with MsgShed after delay —
// a shard that is permanently saturated. It returns its address and a counter
// of accepted connections.
func startSheddingServer(t *testing.T, delay time.Duration) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var dials atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, _, err := wire.ReadFrame(br)
				if err != nil || typ != wire.MsgHello {
					return
				}
				ok := wire.HelloOK{Version: wire.Version, Length: 32, Part: 0, Parts: 1}
				if err := wire.WriteFrame(conn, wire.MsgHelloOK, ok.Append(nil)); err != nil {
					return
				}
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					shed := wire.ShedResp{WaitNs: int64(time.Millisecond)}
					if err := wire.WriteFrame(conn, wire.MsgShed, shed.Append(nil)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &dials
}

// startStatsServer runs a minimal in-test shard server that handshakes and
// answers every subsequent request with MsgStatsOK — a
// healthy, unloaded sibling. It returns its address and a counter of
// requests served.
func startStatsServer(t *testing.T) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var served atomic.Int32
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				typ, _, err := wire.ReadFrame(br)
				if err != nil || typ != wire.MsgHello {
					return
				}
				ok := wire.HelloOK{Version: wire.Version, Length: 32, Part: 0, Parts: 1}
				if err := wire.WriteFrame(conn, wire.MsgHelloOK, ok.Append(nil)); err != nil {
					return
				}
				for {
					if _, _, err := wire.ReadFrame(br); err != nil {
						return
					}
					served.Add(1)
					st := wire.StatsResp{Requests: int64(served.Load())}
					if err := wire.WriteFrame(conn, wire.MsgStatsOK, st.Append(nil)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String(), &served
}

// TestShedSteersToLeastLoadedReplica: after a shed backoff the retry must
// move to the sibling replica with the lowest (health, load) score — not
// return to the replica that just asked for less, and not to a sibling whose
// reported admission wait says it is drowning too. Pre-fix the router
// retried the shedding replica forever and this request could only end in
// ErrShed.
func TestShedSteersToLeastLoadedReplica(t *testing.T) {
	shedAddr, _ := startSheddingServer(t, 0)
	busyAddr, busyServed := startStatsServer(t)
	idleAddr, idleServed := startStatsServer(t)

	clk := &fakeClock{t: time.Unix(1000, 0)}
	maxJitter := func(n int64) int64 { return n - 1 }
	r := newBackoffRouter(t, Options{
		MaxAttempts: 3,
		Backoff:     4 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		DialTimeout: time.Second,
		Timeout:     50 * time.Millisecond,
	}, clk, maxJitter)
	busy := &replica{addr: busyAddr, opts: r.opts}
	busy.warmAdmNs.Store(int64(5 * time.Millisecond)) // reports a long admission wait
	r.shards[0].replicas = []*replica{
		{addr: shedAddr, opts: r.opts},
		busy,
		{addr: idleAddr, opts: r.opts},
	}

	respType, _, err := r.do(r.shards[0], routePrimary, 0, wire.MsgStats, nil, nil, obs.NoSpan)
	if err != nil {
		t.Fatalf("steered request failed: %v", err)
	}
	if respType != wire.MsgStatsOK {
		t.Fatalf("respType = %s, want MsgStatsOK", respType)
	}
	if got := []time.Duration{4 * time.Millisecond}; len(clk.sleeps) != 1 || clk.sleeps[0] != got[0] {
		t.Fatalf("sleeps %v, want %v", clk.sleeps, got)
	}
	st := r.Stats()
	if st.Sheds != 1 || st.Steers != 1 {
		t.Fatalf("Sheds = %d, Steers = %d, want 1 and 1", st.Sheds, st.Steers)
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d: a steered shed retry must not count as a failed attempt", st.Retries)
	}
	if n := idleServed.Load(); n != 1 {
		t.Fatalf("idle replica served %d requests, want the steered retry", n)
	}
	if n := busyServed.Load(); n != 0 {
		t.Fatalf("busy replica served %d requests: steering ignored the load signal", n)
	}
	if r.Obs().Counter("steers").Value() != st.Steers {
		t.Fatal("steers counter not mirrored into the registry")
	}
}

// TestShedBackoffBoundedByDeadline pins the router's overload etiquette with
// a fake clock when the whole replica set is saturated: MsgShed answers back
// off with a doubling, capped sleep, each retry steers to the sibling, none
// of it counts as a retry/failure, and the loop gives up with ErrShed once
// the next sleep would cross the request deadline — the shard may bounce
// between saturated replicas but can never sleep past its budget.
func TestShedBackoffBoundedByDeadline(t *testing.T) {
	shedAddr, shedDials := startSheddingServer(t, 0)
	spareAddr, spareDials := startSheddingServer(t, 0)

	clk := &fakeClock{t: time.Unix(1000, 0)}
	maxJitter := func(n int64) int64 { return n - 1 } // top of [0, n): d = b
	r := newBackoffRouter(t, Options{
		MaxAttempts: 3,
		Backoff:     4 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		DialTimeout: time.Second,
		Timeout:     50 * time.Millisecond,
	}, clk, maxJitter)
	r.shards[0].replicas = []*replica{
		{addr: shedAddr, opts: r.opts},
		{addr: spareAddr, opts: r.opts},
	}

	_, _, err := r.do(r.shards[0], routePrimary, 0, wire.MsgStats, nil, nil, obs.NoSpan)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	// With max jitter each shed sleep is the full (capped) base: 4, 8, 16,
	// 20ms land at t+48ms; the next 20ms draw would cross the 50ms deadline.
	want := []time.Duration{4 * time.Millisecond, 8 * time.Millisecond, 16 * time.Millisecond, 20 * time.Millisecond}
	if len(clk.sleeps) != len(want) {
		t.Fatalf("sleeps %v, want %v", clk.sleeps, want)
	}
	for i, d := range want {
		if clk.sleeps[i] != d {
			t.Fatalf("sleep %d = %v, want %v (all %v)", i, clk.sleeps[i], d, clk.sleeps)
		}
	}
	st := r.Stats()
	if st.Sheds != int64(len(want))+1 {
		t.Fatalf("Sheds = %d, want %d (one per MsgShed answer)", st.Sheds, len(want)+1)
	}
	if st.Steers != int64(len(want)) {
		t.Fatalf("Steers = %d, want %d (one per backoff cycle)", st.Steers, len(want))
	}
	if st.Retries != 0 {
		t.Fatalf("Retries = %d: a shed must not count as a failed attempt", st.Retries)
	}
	if n := shedDials.Load(); n != 1 {
		t.Fatalf("shedding replica dialed %d times, want 1 pooled connection", n)
	}
	if n := spareDials.Load(); n != 1 {
		t.Fatalf("sibling replica dialed %d times, want 1 pooled connection", n)
	}
	if r.Obs().Counter("sheds").Value() != st.Sheds {
		t.Fatal("sheds counter not mirrored into the registry")
	}
}

// TestShedDisablesHedging: once a shard sheds, the shed-backoff cycles must
// stop launching speculative duplicates — a hedge is extra load aimed at a
// shard that just asked for less. The primary answers its shed slowly enough
// that every hedged call would fire its hedge timer, and the sibling sheds
// too, so without the guard each backoff cycle would launch a fresh hedge.
func TestShedDisablesHedging(t *testing.T) {
	shedAddr, _ := startSheddingServer(t, 30*time.Millisecond)
	spareAddr, _ := startSheddingServer(t, 0)

	clk := &fakeClock{t: time.Unix(1000, 0)}
	maxJitter := func(n int64) int64 { return n - 1 }
	r := newBackoffRouter(t, Options{
		MaxAttempts: 3,
		Backoff:     4 * time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
		DialTimeout: time.Second,
		HedgeAfter:  time.Millisecond,
		Timeout:     50 * time.Millisecond,
	}, clk, maxJitter)
	r.shards[0].replicas = []*replica{
		{addr: shedAddr, opts: r.opts},
		{addr: spareAddr, opts: r.opts},
	}

	_, _, err := r.do(r.shards[0], routePrimary, 0, wire.MsgStats, nil, nil, obs.NoSpan)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	st := r.Stats()
	if st.Sheds < 2 {
		t.Fatalf("Sheds = %d, want several backoff cycles", st.Sheds)
	}
	// Only the first cycle may hedge; every later one saw shedSeen.
	if st.Hedges > 1 {
		t.Fatalf("Hedges = %d: shed cycles kept launching speculative duplicates", st.Hedges)
	}
}
