package wire

import (
	"encoding/binary"

	"haindex/internal/bitvec"
)

// The mutation frames. A mutable shard server (internal/lsm
// behind internal/server) answers InsertReq/DeleteReq/SealReq; an immutable
// server refuses them with MsgError. All three responses carry the shard's
// structural epoch so a client can observe when its writes caused a seal or
// compaction swap.

// InsertReq is a batch of upserts: each (id, code) pair replaces any live
// tuple with the same id, wherever it sits in the LSM layering.
type InsertReq struct {
	Length int
	IDs    []int
	Codes  []bitvec.Code
}

func (m InsertReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for i, id := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(id))
		dst = m.Codes[i].AppendBytes(dst)
	}
	return dst
}

// ParseInsertReq decodes a batch whose codes have the session's length.
func ParseInsertReq(payload []byte, length int) (InsertReq, error) {
	p := &buf{b: payload}
	m := InsertReq{Length: length}
	n := p.count(1 + bitvec.EncodedLen(length))
	for i := 0; i < n && p.err == nil; i++ {
		m.IDs = append(m.IDs, p.intv())
		m.Codes = append(m.Codes, p.code(length))
	}
	return m, p.done()
}

// InsertResp acknowledges a batch of upserts.
type InsertResp struct {
	Upserts      int // pairs applied (the whole batch, inserts are total)
	Replaced     int // pairs that superseded an older live version
	MemtableSize int
	Epoch        uint64
}

func (m InsertResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Upserts))
	dst = binary.AppendUvarint(dst, uint64(m.Replaced))
	dst = binary.AppendUvarint(dst, uint64(m.MemtableSize))
	return binary.AppendUvarint(dst, m.Epoch)
}

func ParseInsertResp(payload []byte) (InsertResp, error) {
	p := &buf{b: payload}
	m := InsertResp{
		Upserts:      p.intv(),
		Replaced:     p.intv(),
		MemtableSize: p.intv(),
		Epoch:        p.uvarint(),
	}
	return m, p.done()
}

// DeleteReq is a batch of deletes by tuple id.
type DeleteReq struct {
	IDs []int
}

func (m DeleteReq) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(m.IDs)))
	for _, id := range m.IDs {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

func ParseDeleteReq(payload []byte) (DeleteReq, error) {
	p := &buf{b: payload}
	n := p.count(1)
	m := DeleteReq{}
	for i := 0; i < n && p.err == nil; i++ {
		m.IDs = append(m.IDs, p.intv())
	}
	return m, p.done()
}

// DeleteResp acknowledges a batch of deletes.
type DeleteResp struct {
	Deleted int // ids that were live on this shard
	Epoch   uint64
}

func (m DeleteResp) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Deleted))
	return binary.AppendUvarint(dst, m.Epoch)
}

func ParseDeleteResp(payload []byte) (DeleteResp, error) {
	p := &buf{b: payload}
	m := DeleteResp{
		Deleted: p.intv(),
		Epoch:   p.uvarint(),
	}
	return m, p.done()
}

// SealReq asks the shard to freeze its memtable into a segment now, and
// optionally compact the segment stack afterwards. The server answers after
// the structural change is live, so SealOK is a durability barrier for
// every previously-acknowledged mutation on this connection.
type SealReq struct {
	Compact bool
}

func (m SealReq) Append(dst []byte) []byte {
	v := uint64(0)
	if m.Compact {
		v = 1
	}
	return binary.AppendUvarint(dst, v)
}

func ParseSealReq(payload []byte) (SealReq, error) {
	p := &buf{b: payload}
	m := SealReq{Compact: p.uvarint() != 0}
	return m, p.done()
}

// SealOK reports the shard layering after the seal (and compaction).
type SealOK struct {
	Segments     int
	MemtableSize int
	Tombstones   int
	Epoch        uint64
}

func (m SealOK) Append(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(m.Segments))
	dst = binary.AppendUvarint(dst, uint64(m.MemtableSize))
	dst = binary.AppendUvarint(dst, uint64(m.Tombstones))
	return binary.AppendUvarint(dst, m.Epoch)
}

func ParseSealOK(payload []byte) (SealOK, error) {
	p := &buf{b: payload}
	m := SealOK{
		Segments:     p.intv(),
		MemtableSize: p.intv(),
		Tombstones:   p.intv(),
		Epoch:        p.uvarint(),
	}
	return m, p.done()
}
