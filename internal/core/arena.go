package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strconv"
	"unsafe"
)

// HADX v4 — the mmap-native frozen arena layout.
//
// Every integer is fixed-width little-endian and every array sits at an
// 8-byte-aligned offset, so a mapped file can be aliased in place: the word
// slabs become []uint64 and the CSR arrays []int32 views straight into the
// page cache, with no decode pass and no heap copy. A section table up front
// carries the (offset, byte-size) of each array; hostile-input validation
// runs on that table and on the small structural int32 arrays (bounds,
// monotonicity, level order), never on the big word slabs — any bit pattern
// in a code or residual word is a valid code, so the walks cannot be driven
// out of bounds by slab contents.
//
// Layout (byte offsets):
//
//	0   magic "HADX"
//	4   version byte 0x04, then 3 zero pad bytes
//	8   9 × uint64: length L, flags (bit0 ids present), n (tuple count),
//	    nGroups, nNodes, nRoots, nChild, nLeaf, nTop
//	80  uint64 section count (11)
//	88  11 × {uint64 offset, uint64 bytes} section table
//	264 sections, ascending, each 8-aligned and tightly packed (≤7 pad
//	    bytes between consecutive sections, ≤7 trailing):
//	      rootIDs    nRoots  × int32   (ascending node ids)
//	      topLeaves  nTop    × int32
//	      childStart nNodes+1 × int32  (CSR prefix)
//	      childList  nChild  × int32
//	      leafStart  nNodes+1 × int32  (CSR prefix)
//	      leafList   nLeaf   × int32
//	      idStart    nGroups+1 × int32 (CSR prefix)
//	      codeSlab   nGroups*nw × uint64
//	      idSlab     n × int64
//	      resSlab    nNodes*2*nw × uint64
//	      maskSlab   nNodes*nw × uint64
//
// DecodeIndex tells the two HADX codecs apart by the byte after the magic:
// 4 here, the uvarint 1 for the v1 Dynamic codec.
const codecVersionArena = 4

const (
	arenaSectionCount = 11
	arenaHeaderSize   = 8 + 9*8 + 8 + arenaSectionCount*16 // = 264, 8-aligned
)

// Section indexes in layout order.
const (
	secRoots = iota
	secTop
	secChildStart
	secChildList
	secLeafStart
	secLeafList
	secIDStart
	secCodeSlab
	secIDSlab
	secResSlab
	secMaskSlab
)

// canAliasArena reports whether this host can view little-endian v4 bytes in
// place: it must be little-endian with 64-bit ints (so []int aliases the
// int64 id slab). Anything else falls back to the copying decode.
var canAliasArena = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1 && strconv.IntSize == 64
}()

func align8(v uint64) uint64 { return (v + 7) &^ 7 }

// arenaCounts is the v4 fixed header after the magic/version.
type arenaCounts struct {
	length, flags, n                             uint64
	nGroups, nNodes, nRoots, nChild, nLeaf, nTop uint64
}

// sectionSizes returns the exact byte size of each section for these counts.
func (c arenaCounts) sectionSizes() [arenaSectionCount]uint64 {
	nw := (c.length + 63) / 64
	return [arenaSectionCount]uint64{
		secRoots:      4 * c.nRoots,
		secTop:        4 * c.nTop,
		secChildStart: 4 * (c.nNodes + 1),
		secChildList:  4 * c.nChild,
		secLeafStart:  4 * (c.nNodes + 1),
		secLeafList:   4 * c.nLeaf,
		secIDStart:    4 * (c.nGroups + 1),
		secCodeSlab:   8 * c.nGroups * nw,
		secIDSlab:     8 * c.n,
		secResSlab:    8 * c.nNodes * 2 * nw,
		secMaskSlab:   8 * c.nNodes * nw,
	}
}

// sectionTable lays the sections out tightly after the header: each offset is
// the 8-byte alignment of the previous end. It returns the table and the
// total file size.
func (c arenaCounts) sectionTable() ([arenaSectionCount][2]uint64, uint64) {
	sizes := c.sectionSizes()
	var table [arenaSectionCount][2]uint64
	cur := uint64(arenaHeaderSize)
	for i, sz := range sizes {
		table[i] = [2]uint64{cur, sz}
		cur = align8(cur + sz)
	}
	return table, cur
}

// Encode writes the index in the HADX v4 mmap-native layout. With
// withIDs=false the id tables are zeroed (the leafless broadcast form).
func (f *FrozenIndex) Encode(w io.Writer, withIDs bool) error {
	nn := len(f.childStart) - 1
	c := arenaCounts{
		length:  uint64(f.length),
		nGroups: uint64(f.GroupCount()),
		nNodes:  uint64(nn),
		nRoots:  uint64(len(f.rootIDs)),
		nChild:  uint64(len(f.childList)),
		nLeaf:   uint64(len(f.leafList)),
		nTop:    uint64(len(f.topLeaves)),
	}
	if withIDs {
		c.flags = 1
		c.n = uint64(len(f.idSlab))
	}
	table, _ := c.sectionTable()

	bw := bufio.NewWriterSize(w, 1<<16)
	var u8 [8]byte
	putU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(u8[:], v)
		_, err := bw.Write(u8[:])
		return err
	}
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	if _, err := bw.Write([]byte{codecVersionArena, 0, 0, 0}); err != nil {
		return err
	}
	for _, v := range []uint64{c.length, c.flags, c.n, c.nGroups, c.nNodes, c.nRoots, c.nChild, c.nLeaf, c.nTop, arenaSectionCount} {
		if err := putU64(v); err != nil {
			return err
		}
	}
	for _, s := range table {
		if err := putU64(s[0]); err != nil {
			return err
		}
		if err := putU64(s[1]); err != nil {
			return err
		}
	}

	// Section bodies, with up-to-7 zero pad bytes between them. The bulk
	// copies go through a stack chunk, one Write per 512 words.
	var chunk [512 * 8]byte
	cur := uint64(arenaHeaderSize)
	pad := func(to uint64) error {
		var zeros [8]byte
		for cur < to {
			n := to - cur
			if n > 8 {
				n = 8
			}
			if _, err := bw.Write(zeros[:n]); err != nil {
				return err
			}
			cur += n
		}
		return nil
	}
	writeI32s := func(vals []int32) error {
		for len(vals) > 0 {
			n := len(chunk) / 4
			if n > len(vals) {
				n = len(vals)
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(chunk[i*4:], uint32(vals[i]))
			}
			if _, err := bw.Write(chunk[:n*4]); err != nil {
				return err
			}
			cur += uint64(n * 4)
			vals = vals[n:]
		}
		return nil
	}
	writeU64s := func(vals []uint64) error {
		for len(vals) > 0 {
			n := len(chunk) / 8
			if n > len(vals) {
				n = len(vals)
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(chunk[i*8:], vals[i])
			}
			if _, err := bw.Write(chunk[:n*8]); err != nil {
				return err
			}
			cur += uint64(n * 8)
			vals = vals[n:]
		}
		return nil
	}
	writeInts := func(vals []int) error {
		for len(vals) > 0 {
			n := len(chunk) / 8
			if n > len(vals) {
				n = len(vals)
			}
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(chunk[i*8:], uint64(int64(vals[i])))
			}
			if _, err := bw.Write(chunk[:n*8]); err != nil {
				return err
			}
			cur += uint64(n * 8)
			vals = vals[n:]
		}
		return nil
	}

	idStart := f.idStart
	idSlab := f.idSlab
	if !withIDs {
		idStart = make([]int32, c.nGroups+1)
		idSlab = nil
	}
	for i, body := range []func() error{
		secRoots:      func() error { return writeI32s(f.rootIDs) },
		secTop:        func() error { return writeI32s(f.topLeaves) },
		secChildStart: func() error { return writeI32s(f.childStart) },
		secChildList:  func() error { return writeI32s(f.childList) },
		secLeafStart:  func() error { return writeI32s(f.leafStart) },
		secLeafList:   func() error { return writeI32s(f.leafList) },
		secIDStart:    func() error { return writeI32s(idStart) },
		secCodeSlab:   func() error { return writeU64s(f.codeSlab) },
		secIDSlab:     func() error { return writeInts(idSlab) },
		secResSlab:    func() error { return writeU64s(f.resSlab) },
		secMaskSlab:   func() error { return writeU64s(f.maskSlab) },
	} {
		if err := pad(table[i][0]); err != nil {
			return err
		}
		if err := body(); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodedSize returns the exact v4 file size without encoding.
func (f *FrozenIndex) EncodedSize(withIDs bool) int {
	nn := len(f.childStart) - 1
	c := arenaCounts{
		length:  uint64(f.length),
		nGroups: uint64(f.GroupCount()),
		nNodes:  uint64(nn),
		nRoots:  uint64(len(f.rootIDs)),
		nChild:  uint64(len(f.childList)),
		nLeaf:   uint64(len(f.leafList)),
		nTop:    uint64(len(f.topLeaves)),
	}
	if withIDs {
		c.n = uint64(len(f.idSlab))
	}
	_, total := c.sectionTable()
	return int(total)
}

// DecodeArenaBytes parses a complete v4 arena image. When alias is true (and
// the host allows it) the returned index's slabs alias data — the caller must
// keep data immutable and alive for the index's lifetime; MapFrozen uses this
// over an mmap'd region. When alias is false every array is copied onto the
// heap and data may be discarded.
//
// Corrupt input — truncated, misaligned, overlapping or mis-sized sections,
// out-of-range or out-of-level-order references — returns an error, never
// panics. The word slabs themselves are not validated: every bit pattern is a
// legal code/residual, so they cannot make a walk misbehave.
func DecodeArenaBytes(data []byte, alias bool) (*FrozenIndex, error) {
	if len(data) < arenaHeaderSize {
		return nil, fmt.Errorf("core: arena truncated: %d bytes < %d header", len(data), arenaHeaderSize)
	}
	if string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("core: bad arena magic %q", data[:4])
	}
	if data[4] != codecVersionArena || data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return nil, fmt.Errorf("core: bad arena version bytes % x", data[4:8])
	}
	u64at := func(off int) uint64 { return binary.LittleEndian.Uint64(data[off:]) }
	c := arenaCounts{
		length: u64at(8), flags: u64at(16), n: u64at(24),
		nGroups: u64at(32), nNodes: u64at(40), nRoots: u64at(48),
		nChild: u64at(56), nLeaf: u64at(64), nTop: u64at(72),
	}
	if u64at(80) != arenaSectionCount {
		return nil, fmt.Errorf("core: arena section count %d, want %d", u64at(80), arenaSectionCount)
	}
	if c.length == 0 || c.length > 1<<20 {
		return nil, fmt.Errorf("core: implausible code length %d", c.length)
	}
	const maxCount = 1<<31 - 2
	for _, v := range []uint64{c.n, c.nGroups, c.nNodes, c.nRoots, c.nChild, c.nLeaf, c.nTop} {
		if v > maxCount {
			return nil, fmt.Errorf("core: arena counts overflow")
		}
	}
	if c.nRoots > c.nNodes {
		return nil, fmt.Errorf("core: arena claims %d roots of %d nodes", c.nRoots, c.nNodes)
	}

	// The section table must match the layout implied by the counts exactly:
	// ascending 8-aligned offsets with ≤7 pad bytes between sections, sizes
	// equal to count×width, and the last section ending within 7 bytes of
	// EOF. Anything else — overlap, gaps, truncation — is rejected here,
	// before a single array is touched.
	want, total := c.sectionTable()
	if uint64(len(data)) < total || uint64(len(data)) > align8(total) {
		return nil, fmt.Errorf("core: arena is %d bytes, layout wants %d", len(data), total)
	}
	var secs [arenaSectionCount][]byte
	for i := range want {
		off := u64at(88 + i*16)
		size := u64at(88 + i*16 + 8)
		if off != want[i][0] || size != want[i][1] {
			return nil, fmt.Errorf("core: arena section %d at (%d,%d), layout wants (%d,%d)", i, off, size, want[i][0], want[i][1])
		}
		secs[i] = data[off : off+size]
	}

	nw := int(c.length+63) / 64
	f := &FrozenIndex{
		length: int(c.length),
		n:      int(c.n),
		nw:     nw,
	}
	if alias && canAliasArena {
		f.rootIDs = aliasI32(secs[secRoots])
		f.topLeaves = aliasI32(secs[secTop])
		f.childStart = aliasI32(secs[secChildStart])
		f.childList = aliasI32(secs[secChildList])
		f.leafStart = aliasI32(secs[secLeafStart])
		f.leafList = aliasI32(secs[secLeafList])
		f.idStart = aliasI32(secs[secIDStart])
		f.codeSlab = aliasU64(secs[secCodeSlab])
		f.idSlab = aliasInt(secs[secIDSlab])
		f.resSlab = aliasU64(secs[secResSlab])
		f.maskSlab = aliasU64(secs[secMaskSlab])
	} else {
		f.rootIDs = copyI32(secs[secRoots])
		f.topLeaves = copyI32(secs[secTop])
		f.childStart = copyI32(secs[secChildStart])
		f.childList = copyI32(secs[secChildList])
		f.leafStart = copyI32(secs[secLeafStart])
		f.leafList = copyI32(secs[secLeafList])
		f.idStart = copyI32(secs[secIDStart])
		f.codeSlab = copyU64(secs[secCodeSlab])
		f.idSlab = copyInt(secs[secIDSlab])
		f.resSlab = copyU64(secs[secResSlab])
		f.maskSlab = copyU64(secs[secMaskSlab])
	}
	if err := f.validateStructure(c); err != nil {
		return nil, err
	}
	return f, nil
}

// validateStructure bounds- and order-checks every structural array so the
// walks can index the slabs without further checks. It runs on the aliased
// views directly (cheap int32 scans; the word slabs are never read).
func (f *FrozenIndex) validateStructure(c arenaCounts) error {
	nNodes, nGroups := int32(c.nNodes), int32(c.nGroups)
	prev := int32(-1)
	for _, r := range f.rootIDs {
		if r <= prev || r >= nNodes {
			return fmt.Errorf("core: arena root %d out of order or range", r)
		}
		prev = r
	}
	for _, gi := range f.topLeaves {
		if gi < 0 || gi >= nGroups {
			return fmt.Errorf("core: arena top leaf %d out of range", gi)
		}
	}
	checkCSR := func(starts []int32, total uint64, what string) error {
		if starts[0] != 0 || starts[len(starts)-1] != int32(total) {
			return fmt.Errorf("core: arena %s prefix ends [%d,%d], want [0,%d]", what, starts[0], starts[len(starts)-1], total)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				return fmt.Errorf("core: arena %s prefix decreases at %d", what, i)
			}
		}
		return nil
	}
	if err := checkCSR(f.childStart, c.nChild, "child"); err != nil {
		return err
	}
	if err := checkCSR(f.leafStart, c.nLeaf, "leaf"); err != nil {
		return err
	}
	if err := checkCSR(f.idStart, c.n, "id"); err != nil {
		return err
	}
	// Level-order invariant: every child id exceeds its parent's — rules out
	// cycles and guarantees the BFS walk terminates.
	for nid := int32(0); nid < nNodes; nid++ {
		for ci := f.childStart[nid]; ci < f.childStart[nid+1]; ci++ {
			if cc := f.childList[ci]; cc <= nid || cc >= nNodes {
				return fmt.Errorf("core: arena node %d lists child %d out of level order", nid, cc)
			}
		}
	}
	for _, gi := range f.leafList {
		if gi < 0 || gi >= nGroups {
			return fmt.Errorf("core: arena leaf ref %d out of range", gi)
		}
	}
	return nil
}

// DecodeFrozen reads a frozen index previously written by
// (*FrozenIndex).Encode, copying it onto the heap. Corrupt input returns an
// error, never panics.
func DecodeFrozen(r io.Reader) (*FrozenIndex, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading arena: %w", err)
	}
	return DecodeArenaBytes(data, false)
}

// mapFrozenEager is the portable MapFrozen fallback: read the whole file and
// decode copying.
func mapFrozenEager(path string, off int64) (*FrozenIndex, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if off < 0 || off%8 != 0 || off >= int64(len(data)) {
		return nil, fmt.Errorf("core: arena offset %d in a %d-byte file", off, len(data))
	}
	return DecodeArenaBytes(data[off:], false)
}

// ---- byte-slice views ----

func aliasI32(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}

func aliasU64(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func aliasInt(b []byte) []int {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int)(unsafe.Pointer(&b[0])), len(b)/8)
}

func copyI32(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

func copyU64(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

func copyInt(b []byte) []int {
	out := make([]int, len(b)/8)
	for i := range out {
		out[i] = int(int64(binary.LittleEndian.Uint64(b[i*8:])))
	}
	return out
}
