// Package wire is the binary protocol between the haserve shard server and
// the haquery client router, plus the on-disk shard snapshot format both
// ends load. The conversation is length-prefixed frames over TCP:
//
//	frame   := length uint32 BE (type + payload) | type byte | payload
//	session := Hello -> HelloOK, then any number of
//	           Search -> SearchOK | TopK -> TopKOK | Stats -> StatsOK |
//	           Insert -> InsertOK | Delete -> DeleteOK | Seal -> SealOK,
//	           any of which may instead answer Error (or, for Search and
//	           TopK, Shed).
//
// There is one protocol version. Both ends of a session are built from this
// repository, so the handshake does not negotiate: a server refuses a Hello
// whose version differs from its own, and a client refuses a HelloOK whose
// version differs from its own, so mixed builds fail at connect time instead
// of misparsing frames. Each message has exactly one layout. Payload
// integers are unsigned varints; binary codes travel fixed-width
// (bitvec.AppendBytes) since the code length is fixed per session by the
// handshake.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"haindex/internal/bitvec"
)

// Version is the protocol version spoken by this build; bump it on any frame
// layout change so a peer built before the change fails at the handshake.
const Version = 7

// Engine hints a SearchReq carries. EngineAuto (the zero value) leaves the
// choice to the server's planner.
const (
	EngineAuto = iota // let the server's planner choose per request
	EngineHA          // force the HA-Index walk
	EngineMIH         // force multi-index hashing
	EngineScan        // force the brute-force scan
)

// ParseEngine maps an -engine flag spelling to its wire hint.
func ParseEngine(name string) (int, error) {
	switch name {
	case "", "auto":
		return EngineAuto, nil
	case "ha", "ha-index":
		return EngineHA, nil
	case "mih":
		return EngineMIH, nil
	case "scan":
		return EngineScan, nil
	}
	return 0, fmt.Errorf("wire: unknown engine %q (want auto, ha, mih, or scan)", name)
}

// EngineName renders an engine hint for errors and logs.
func EngineName(e int) string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineHA:
		return "ha"
	case EngineMIH:
		return "mih"
	case EngineScan:
		return "scan"
	}
	return fmt.Sprintf("engine(%d)", e)
}

// Priority classes a SearchReq carries. They scale the server's
// admission-wait budget before it sheds: interactive traffic waits longest,
// batch traffic is shed first.
const (
	PriorityNormal      = iota // default admission budget
	PriorityInteractive        // user-facing: shed last
	PriorityBatch              // backfill: shed first
)

// ParsePriority maps a -priority flag spelling to its wire class.
func ParsePriority(name string) (int, error) {
	switch name {
	case "", "normal":
		return PriorityNormal, nil
	case "interactive", "high":
		return PriorityInteractive, nil
	case "batch", "low":
		return PriorityBatch, nil
	}
	return 0, fmt.Errorf("wire: unknown priority %q (want normal, interactive, or batch)", name)
}

// PriorityName renders a priority class for errors and logs.
func PriorityName(p int) string {
	switch p {
	case PriorityNormal:
		return "normal"
	case PriorityInteractive:
		return "interactive"
	case PriorityBatch:
		return "batch"
	}
	return fmt.Sprintf("priority(%d)", p)
}

// MaxFrame bounds a frame's payload so a corrupt or hostile length prefix
// cannot make a reader allocate unboundedly.
const MaxFrame = 1 << 26

// MsgType tags a frame.
type MsgType uint8

const (
	MsgHello MsgType = iota + 1
	MsgHelloOK
	MsgSearch
	MsgSearchOK
	MsgTopK
	MsgTopKOK
	MsgStats
	MsgStatsOK
	MsgError

	// Mutation frames for the LSM serving tier.
	MsgInsert
	MsgInsertOK
	MsgDelete
	MsgDeleteOK
	MsgSeal
	MsgSealOK

	// The overload answer to a search or top-k request. Unlike MsgError it
	// is polite — the server is healthy but its admission queue
	// exceeded the request's wait budget, and the client should back off and
	// retry the same replica rather than fail over.
	MsgShed
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgHelloOK:
		return "hello-ok"
	case MsgSearch:
		return "search"
	case MsgSearchOK:
		return "search-ok"
	case MsgTopK:
		return "topk"
	case MsgTopKOK:
		return "topk-ok"
	case MsgStats:
		return "stats"
	case MsgStatsOK:
		return "stats-ok"
	case MsgError:
		return "error"
	case MsgInsert:
		return "insert"
	case MsgInsertOK:
		return "insert-ok"
	case MsgDelete:
		return "delete"
	case MsgDeleteOK:
		return "delete-ok"
	case MsgSeal:
		return "seal"
	case MsgSealOK:
		return "seal-ok"
	case MsgShed:
		return "shed"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// WriteFrame writes one frame. The payload must be under MaxFrame bytes.
func WriteFrame(w io.Writer, t MsgType, payload []byte) error {
	if len(payload) >= MaxFrame {
		return fmt.Errorf("wire: %s frame payload %d exceeds limit", t, len(payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame, rejecting empty or oversized length prefixes.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrame {
		return 0, nil, fmt.Errorf("wire: implausible frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("wire: short frame body: %w", err)
	}
	return MsgType(buf[0]), buf[1:], nil
}

// buf is a cursor over a received payload; every parse helper fails softly
// so corrupt input surfaces as an error, never a panic.
type buf struct {
	b   []byte
	err error
}

func (p *buf) uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.err = fmt.Errorf("wire: truncated varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

// count reads a length field that predicts at least perItem remaining bytes
// per element, so hostile counts fail immediately instead of allocating.
func (p *buf) count(perItem int) int {
	v := p.uvarint()
	if p.err != nil {
		return 0
	}
	if perItem < 1 {
		perItem = 1
	}
	if v > uint64(len(p.b)/perItem)+1 {
		p.err = fmt.Errorf("wire: count %d exceeds remaining payload", v)
		return 0
	}
	return int(v)
}

func (p *buf) intv() int {
	v := p.uvarint()
	if v > math.MaxInt32 {
		p.err = fmt.Errorf("wire: varint %d out of range", v)
		return 0
	}
	return int(v)
}

func (p *buf) code(length int) bitvec.Code {
	if p.err != nil {
		return bitvec.Code{}
	}
	c, n, err := bitvec.CodeFromBytes(p.b, length)
	if err != nil {
		p.err = err
		return bitvec.Code{}
	}
	p.b = p.b[n:]
	return c
}

func (p *buf) done() error {
	if p.err != nil {
		return p.err
	}
	if len(p.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(p.b))
	}
	return nil
}

// Hello is the client's opening frame.
type Hello struct {
	Version int
}

func (m Hello) Append(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(m.Version))
}

func ParseHello(payload []byte) (Hello, error) {
	p := &buf{b: payload}
	m := Hello{Version: p.intv()}
	return m, p.done()
}

// HelloOK describes the shard behind the connection: protocol version, code
// length, which Gray partition it owns out of how many, the pivot list the
// partitioning was built from (so a router can learn the routing table from
// the shards themselves), and the tuple count.
type HelloOK struct {
	Version int
	Length  int
	Part    int
	Parts   int
	Tuples  int
	Pivots  []bitvec.Code
}

func (m HelloOK) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Version))
	dst = binary.AppendUvarint(dst, uint64(m.Length))
	dst = binary.AppendUvarint(dst, uint64(m.Part))
	dst = binary.AppendUvarint(dst, uint64(m.Parts))
	dst = binary.AppendUvarint(dst, uint64(m.Tuples))
	dst = binary.AppendUvarint(dst, uint64(len(m.Pivots)))
	for _, c := range m.Pivots {
		dst = c.AppendBytes(dst)
	}
	return dst
}

func ParseHelloOK(payload []byte) (HelloOK, error) {
	p := &buf{b: payload}
	m := HelloOK{
		Version: p.intv(),
		Length:  p.intv(),
		Part:    p.intv(),
		Parts:   p.intv(),
		Tuples:  p.intv(),
	}
	if p.err == nil && (m.Length <= 0 || m.Length > 1<<20) {
		return m, fmt.Errorf("wire: implausible code length %d", m.Length)
	}
	n := p.count(bitvec.EncodedLen(m.Length))
	for i := 0; i < n && p.err == nil; i++ {
		m.Pivots = append(m.Pivots, p.code(m.Length))
	}
	return m, p.done()
}

// SearchReq is a batch of Hamming-select queries at threshold H. Engine is
// the per-batch engine hint (EngineAuto lets the server's planner choose);
// Priority is the admission class.
type SearchReq struct {
	H        int
	Length   int
	Engine   int
	Priority int
	Queries  []bitvec.Code
}

func (m SearchReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.H))
	dst = binary.AppendUvarint(dst, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		dst = q.AppendBytes(dst)
	}
	dst = binary.AppendUvarint(dst, uint64(m.Engine))
	return binary.AppendUvarint(dst, uint64(m.Priority))
}

// ParseSearchReq decodes a request whose codes have the session's length.
func ParseSearchReq(payload []byte, length int) (SearchReq, error) {
	p := &buf{b: payload}
	m := SearchReq{Length: length, H: p.intv()}
	n := p.count(bitvec.EncodedLen(length))
	for i := 0; i < n && p.err == nil; i++ {
		m.Queries = append(m.Queries, p.code(length))
	}
	m.Engine = p.intv()
	if p.err == nil && (m.Engine < EngineAuto || m.Engine > EngineScan) {
		return m, fmt.Errorf("wire: unknown engine hint %d", m.Engine)
	}
	m.Priority = p.intv()
	if p.err == nil && (m.Priority < PriorityNormal || m.Priority > PriorityBatch) {
		return m, fmt.Errorf("wire: unknown priority class %d", m.Priority)
	}
	return m, p.done()
}

// SearchResp carries, per query, the sorted matching ids (delta-encoded).
type SearchResp struct {
	IDs [][]int
}

func (m SearchResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for _, ids := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		prev := 0
		for _, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id-prev))
			prev = id
		}
	}
	return dst
}

func ParseSearchResp(payload []byte) (SearchResp, error) {
	p := &buf{b: payload}
	nq := p.count(1)
	m := SearchResp{IDs: make([][]int, 0, nq)}
	for i := 0; i < nq && p.err == nil; i++ {
		n := p.count(1)
		var ids []int
		prev := 0
		for j := 0; j < n && p.err == nil; j++ {
			prev += p.intv()
			ids = append(ids, prev)
		}
		m.IDs = append(m.IDs, ids)
	}
	return m, p.done()
}

// TopKReq asks for the K nearest ids per query.
type TopKReq struct {
	K       int
	Length  int
	Queries []bitvec.Code
}

func (m TopKReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.K))
	dst = binary.AppendUvarint(dst, uint64(len(m.Queries)))
	for _, q := range m.Queries {
		dst = q.AppendBytes(dst)
	}
	return dst
}

func ParseTopKReq(payload []byte, length int) (TopKReq, error) {
	p := &buf{b: payload}
	m := TopKReq{Length: length, K: p.intv()}
	n := p.count(bitvec.EncodedLen(length))
	for i := 0; i < n && p.err == nil; i++ {
		m.Queries = append(m.Queries, p.code(length))
	}
	return m, p.done()
}

// TopKResp carries, per query, (id, distance) pairs ordered by
// (distance, id) — the order the router's k-way merge preserves.
type TopKResp struct {
	IDs   [][]int
	Dists [][]int
}

func (m TopKResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for i, ids := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(len(ids)))
		for j, id := range ids {
			dst = binary.AppendUvarint(dst, uint64(id))
			dst = binary.AppendUvarint(dst, uint64(m.Dists[i][j]))
		}
	}
	return dst
}

func ParseTopKResp(payload []byte) (TopKResp, error) {
	p := &buf{b: payload}
	nq := p.count(1)
	m := TopKResp{IDs: make([][]int, 0, nq), Dists: make([][]int, 0, nq)}
	for i := 0; i < nq && p.err == nil; i++ {
		n := p.count(2)
		var ids, dists []int
		for j := 0; j < n && p.err == nil; j++ {
			ids = append(ids, p.intv())
			dists = append(dists, p.intv())
		}
		m.IDs = append(m.IDs, ids)
		m.Dists = append(m.Dists, dists)
	}
	return m, p.done()
}

// StatsResp is the server's counter snapshot. The nine counters come
// first; the four latency fields are per-request search/top-k latency
// percentiles in nanoseconds, served from the shard's observability
// registry; the five warmth fields are result-cache occupancy and lifetime
// hit/miss counts, the admission-wait median, and the number of idle
// admission tickets — the cheap load signal a router steers replica
// selection with.
type StatsResp struct {
	Requests             int64
	Queries              int64
	TopKQueries          int64
	IDsReturned          int64
	Errors               int64
	FaultsInjected       int64
	DistanceComputations int64
	NodesVisited         int64
	LeavesChecked        int64

	LatencyP50Ns int64
	LatencyP95Ns int64
	LatencyP99Ns int64
	LatencyMaxNs int64

	CacheEntries   int64
	CacheHits      int64
	CacheMisses    int64
	AdmissionP50Ns int64
	PoolIdle       int64
}

// fields lists every StatsResp field in wire order.
func (m *StatsResp) fields() []*int64 {
	return []*int64{
		&m.Requests, &m.Queries, &m.TopKQueries, &m.IDsReturned, &m.Errors,
		&m.FaultsInjected, &m.DistanceComputations, &m.NodesVisited, &m.LeavesChecked,
		&m.LatencyP50Ns, &m.LatencyP95Ns, &m.LatencyP99Ns, &m.LatencyMaxNs,
		&m.CacheEntries, &m.CacheHits, &m.CacheMisses, &m.AdmissionP50Ns, &m.PoolIdle,
	}
}

func (m StatsResp) Append(dst []byte) []byte {
	for _, f := range m.fields() {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	return dst
}

func ParseStatsResp(payload []byte) (StatsResp, error) {
	p := &buf{b: payload}
	var m StatsResp
	for _, f := range m.fields() {
		*f = int64(p.uvarint())
	}
	return m, p.done()
}

// ShedResp is the payload of a MsgShed answer: the server refused to queue
// the request past its admission budget. WaitNs reports how long the
// request did wait before being shed, so clients and load harnesses can see
// the budget that was burned.
type ShedResp struct {
	WaitNs int64
}

func (m ShedResp) Append(dst []byte) []byte {
	return binary.AppendUvarint(dst, uint64(m.WaitNs))
}

func ParseShedResp(payload []byte) (ShedResp, error) {
	p := &buf{b: payload}
	m := ShedResp{WaitNs: int64(p.uvarint())}
	return m, p.done()
}

// ErrorMsg is the server-side failure report for one request.
type ErrorMsg struct {
	Msg string
}

func (m ErrorMsg) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.Msg)))
	return append(dst, m.Msg...)
}

func ParseErrorMsg(payload []byte) (ErrorMsg, error) {
	p := &buf{b: payload}
	n := p.count(1)
	if p.err != nil {
		return ErrorMsg{}, p.err
	}
	if n > len(p.b) {
		return ErrorMsg{}, fmt.Errorf("wire: error message length %d exceeds payload", n)
	}
	m := ErrorMsg{Msg: string(p.b[:n])}
	p.b = p.b[n:]
	return m, p.done()
}
