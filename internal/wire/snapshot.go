package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"haindex/internal/bitvec"
	"haindex/internal/core"
)

// Shard snapshot format: the unit haidx emits per Gray partition and haserve
// loads at startup. A snapshot is self-describing — it carries the full
// pivot list and its own partition id, so a server can report the cluster
// routing table in its handshake and a router can verify that the shards it
// dialed belong to one consistent partitioning.
//
// Layout:
//
//	magic "HASN" | version 4 | part | parts | code length L | pivot count |
//	pivots (fixed-width codes) | pad-length byte + 0–7 zero bytes |
//	embedded HADX v4 arena (core codec, to EOF)
//
// The pad brings the embedded arena to an 8-aligned file offset, so
// MapSnapshotFile can alias its slabs straight out of an mmap of the file.
// Version 4 is the only snapshot version: readers reject every other one.

const (
	snapshotMagic   = "HASN"
	snapshotVersion = 4
)

// SnapshotMeta is the shard header of a snapshot file.
type SnapshotMeta struct {
	Part   int // this shard's partition id in [0, Parts)
	Parts  int // total partitions in the deployment
	Length int // code length in bits
	Pivots []bitvec.Code
}

func (m SnapshotMeta) validate() error {
	if m.Parts <= 0 || m.Part < 0 || m.Part >= m.Parts {
		return fmt.Errorf("wire: snapshot partition %d of %d out of range", m.Part, m.Parts)
	}
	if m.Parts != len(m.Pivots)+1 {
		return fmt.Errorf("wire: snapshot has %d partitions but %d pivots", m.Parts, len(m.Pivots))
	}
	if m.Length <= 0 || m.Length > 1<<20 {
		return fmt.Errorf("wire: implausible snapshot code length %d", m.Length)
	}
	for _, p := range m.Pivots {
		if p.Len() != m.Length {
			return fmt.Errorf("wire: snapshot pivot length %d != code length %d", p.Len(), m.Length)
		}
	}
	return nil
}

// WriteSnapshot writes a snapshot: the shard header, then the frozen index
// (always with id tables — a serving shard must return ids) in the HADX v4
// layout at an 8-aligned file offset, so the file can later be served
// zero-copy via MapSnapshotFile.
func WriteSnapshot(w io.Writer, meta SnapshotMeta, f *core.FrozenIndex) error {
	if err := meta.validate(); err != nil {
		return err
	}
	if f.Length() != meta.Length {
		return fmt.Errorf("wire: snapshot index is %d-bit, header says %d", f.Length(), meta.Length)
	}
	if err := writeSnapshotPrefix(w, meta); err != nil {
		return err
	}
	return f.Encode(w, true)
}

// WriteSnapshotStream writes a snapshot whose arena comes from a
// core.FrozenStreamWriter: the shard header and alignment pad are emitted,
// then the stream is finished directly onto w. The snapshot is assembled
// without the index ever being resident — peak memory is the stream's chunk
// size — which is how a reducer emits a serving-ready shard for a partition
// far larger than RAM. The writer is consumed; it must not be used after.
func WriteSnapshotStream(w io.Writer, meta SnapshotMeta, sw *core.FrozenStreamWriter) error {
	if err := meta.validate(); err != nil {
		return err
	}
	if sw.Length() != meta.Length {
		return fmt.Errorf("wire: snapshot stream is %d-bit, header says %d", sw.Length(), meta.Length)
	}
	if err := writeSnapshotPrefix(w, meta); err != nil {
		return err
	}
	return sw.Finish(w)
}

// writeSnapshotPrefix emits everything before the embedded arena: the HASN
// magic, version, shard metadata, and the pad-length byte plus padding that
// bring the arena to the next 8-aligned offset (counting the pad byte).
func writeSnapshotPrefix(w io.Writer, meta SnapshotMeta) error {
	var hdr []byte
	hdr = append(hdr, snapshotMagic...)
	for _, v := range []uint64{snapshotVersion, uint64(meta.Part), uint64(meta.Parts), uint64(meta.Length), uint64(len(meta.Pivots))} {
		hdr = binary.AppendUvarint(hdr, v)
	}
	for _, p := range meta.Pivots {
		hdr = p.AppendBytes(hdr)
	}
	padLen := (8 - (len(hdr)+1)%8) % 8
	hdr = append(hdr, byte(padLen))
	hdr = append(hdr, make([]byte, padLen)...)
	_, err := w.Write(hdr)
	return err
}

// readSnapshotHeader parses the HASN magic, version, and shard metadata, and
// consumes the alignment pad, leaving br at the embedded arena.
func readSnapshotHeader(br *bufio.Reader) (SnapshotMeta, error) {
	var meta SnapshotMeta
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return meta, fmt.Errorf("wire: reading snapshot magic: %w", err)
	}
	if string(magic) != snapshotMagic {
		return meta, fmt.Errorf("wire: bad snapshot magic %q", magic)
	}
	readU := func() (uint64, error) { return binary.ReadUvarint(br) }
	version, err := readU()
	if err != nil {
		return meta, err
	}
	if version != snapshotVersion {
		return meta, fmt.Errorf("wire: unsupported snapshot version %d (this build reads only version %d)", version, snapshotVersion)
	}
	var part, parts, length, npiv uint64
	for _, dst := range []*uint64{&part, &parts, &length, &npiv} {
		if *dst, err = readU(); err != nil {
			return meta, err
		}
	}
	meta.Part, meta.Parts, meta.Length = int(part), int(parts), int(length)
	if meta.Length <= 0 || meta.Length > 1<<20 {
		return meta, fmt.Errorf("wire: implausible snapshot code length %d", meta.Length)
	}
	if npiv > uint64(meta.Parts) {
		return meta, fmt.Errorf("wire: snapshot pivot count %d exceeds partitions %d", npiv, meta.Parts)
	}
	codeBytes := make([]byte, bitvec.EncodedLen(meta.Length))
	for i := uint64(0); i < npiv; i++ {
		if _, err := io.ReadFull(br, codeBytes); err != nil {
			return meta, fmt.Errorf("wire: reading snapshot pivot %d: %w", i, err)
		}
		c, _, err := bitvec.CodeFromBytes(codeBytes, meta.Length)
		if err != nil {
			return meta, err
		}
		meta.Pivots = append(meta.Pivots, c)
	}
	if err := meta.validate(); err != nil {
		return meta, err
	}
	padLen, err := br.ReadByte()
	if err != nil {
		return meta, fmt.Errorf("wire: reading snapshot pad: %w", err)
	}
	if padLen > 7 {
		return meta, fmt.Errorf("wire: snapshot pad length %d out of range", padLen)
	}
	if _, err := io.CopyN(io.Discard, br, int64(padLen)); err != nil {
		return meta, fmt.Errorf("wire: skipping snapshot pad: %w", err)
	}
	return meta, nil
}

// ReadSnapshot parses a snapshot: header then embedded index, decoded
// eagerly onto the heap as a *core.FrozenIndex (use MapSnapshotFile for the
// zero-copy load). Corrupt input returns an error, never panics.
func ReadSnapshot(r io.Reader) (SnapshotMeta, core.Index, error) {
	br := bufio.NewReader(r)
	meta, err := readSnapshotHeader(br)
	if err != nil {
		return meta, nil, err
	}
	idx, err := core.DecodeFrozen(br)
	if err != nil {
		return meta, nil, fmt.Errorf("wire: snapshot index: %w", err)
	}
	if idx.Length() != meta.Length {
		return meta, nil, fmt.Errorf("wire: snapshot index is %d-bit, header says %d", idx.Length(), meta.Length)
	}
	return meta, idx, nil
}

// ReadSnapshotFile loads a snapshot from disk.
func ReadSnapshotFile(path string) (SnapshotMeta, core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotMeta{}, nil, err
	}
	defer f.Close()
	return ReadSnapshot(f)
}

// countingReader tracks how many bytes have been pulled from the underlying
// reader; combined with bufio.Reader.Buffered it recovers exact file offsets.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// MapSnapshotFile loads a snapshot zero-copy: the header is parsed eagerly
// (it is tiny) and the embedded arena is aliased straight out of an mmap of
// the file, so load time and heap footprint are independent of the shard's
// size. The returned index must be Closed to release the mapping.
func MapSnapshotFile(path string) (SnapshotMeta, *core.FrozenIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotMeta{}, nil, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	meta, err := readSnapshotHeader(br)
	if err != nil {
		return meta, nil, err
	}
	off := cr.n - int64(br.Buffered())
	if off%8 != 0 {
		return meta, nil, fmt.Errorf("wire: snapshot arena at unaligned offset %d", off)
	}
	idx, err := core.MapFrozenAt(path, off)
	if err != nil {
		return meta, nil, err
	}
	if idx.Length() != meta.Length {
		idx.Close()
		return meta, nil, fmt.Errorf("wire: snapshot index is %d-bit, header says %d", idx.Length(), meta.Length)
	}
	return meta, idx, nil
}
