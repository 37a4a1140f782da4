package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"haindex/internal/bitvec"
)

// Binary serialization of the Dynamic HA-Index. A distributed deployment
// writes each reducer's local index to the DFS and ships the merged global
// index through the distributed cache (Section 5.2); this codec is that wire
// format. Encoding with withIDs=false produces the leafless Option-B form:
// the structure and distinct codes are kept, the tuple-id tables dropped.
//
// Layout (all integers unsigned varints unless noted):
//
//	magic "HADX" | version 1 | code length L | flags (bit0: ids present)
//	leaf groups: count, then per group: code words (fixed 8B each), id
//	  count + delta-encoded ids (only when ids present)
//	top-leaf group indexes: count + indexes
//	roots: count, then each subtree depth-first:
//	  pattern mask words + bits words (fixed), freq, child count, children,
//	  leaf count, leaf group indexes

const (
	codecMagic   = "HADX"
	codecVersion = 1
)

// Encode writes the index to w. With withIDs=false the leaf id tables are
// omitted (the Option-B broadcast form); decoding such an index yields one
// that answers SearchCodes but returns no ids.
func (x *DynamicIndex) Encode(w io.Writer, withIDs bool) error {
	x.Flush()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(codecMagic); err != nil {
		return err
	}
	putUvarint(bw, codecVersion)
	putUvarint(bw, uint64(x.length))
	flags := uint64(0)
	if withIDs {
		flags |= 1
	}
	putUvarint(bw, flags)

	// Leaf groups in deterministic order; remember index per group.
	groups := make([]*leafGroup, 0, len(x.byCode))
	x.walkGroups(func(g *leafGroup) { groups = append(groups, g) })
	index := make(map[*leafGroup]int, len(groups))
	putUvarint(bw, uint64(len(groups)))
	for i, g := range groups {
		index[g] = i
		for _, word := range g.code.Words() {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], word)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		if withIDs {
			putUvarint(bw, uint64(len(g.ids)))
			prev := int64(0)
			for _, id := range g.ids {
				putVarint(bw, int64(id)-prev)
				prev = int64(id)
			}
		}
	}

	putUvarint(bw, uint64(len(x.topLeaves)))
	for _, g := range x.topLeaves {
		putUvarint(bw, uint64(index[g]))
	}

	putUvarint(bw, uint64(len(x.roots)))
	var encNode func(n *dnode) error
	encNode = func(n *dnode) error {
		for _, word := range n.pat.Mask().Words() {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], word)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		for _, word := range n.pat.Bits().Words() {
			var buf [8]byte
			binary.BigEndian.PutUint64(buf[:], word)
			if _, err := bw.Write(buf[:]); err != nil {
				return err
			}
		}
		putUvarint(bw, uint64(n.freq))
		putUvarint(bw, uint64(len(n.children)))
		for _, c := range n.children {
			if err := encNode(c); err != nil {
				return err
			}
		}
		putUvarint(bw, uint64(len(n.leaves)))
		for _, g := range n.leaves {
			putUvarint(bw, uint64(index[g]))
		}
		return nil
	}
	for _, r := range x.roots {
		if err := encNode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// walkGroups visits every leaf group exactly once in hierarchy order
// (roots depth-first, then top-level leaves).
func (x *DynamicIndex) walkGroups(fn func(*leafGroup)) {
	var rec func(n *dnode)
	rec = func(n *dnode) {
		for _, c := range n.children {
			rec(c)
		}
		for _, g := range n.leaves {
			fn(g)
		}
	}
	for _, r := range x.roots {
		rec(r)
	}
	for _, g := range x.topLeaves {
		fn(g)
	}
}

// EncodedSize returns the exact wire size of the index in the chosen form.
func (x *DynamicIndex) EncodedSize(withIDs bool) (int, error) {
	var c countingWriter
	if err := x.Encode(&c, withIDs); err != nil {
		return 0, err
	}
	return int(c), nil
}

type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

// readCodecHeader consumes the HADX magic and returns the format version.
func readCodecHeader(br *bufio.Reader) (uint64, error) {
	magic := make([]byte, len(codecMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, fmt.Errorf("core: reading index magic: %w", err)
	}
	if string(magic) != codecMagic {
		return 0, fmt.Errorf("core: bad index magic %q", magic)
	}
	return binary.ReadUvarint(br)
}

// DecodeDynamic reads an index previously written by Encode. Indexes encoded
// without ids answer SearchCodes; their Search returns no ids.
func DecodeDynamic(r io.Reader) (*DynamicIndex, error) {
	br := bufio.NewReader(r)
	version, err := readCodecHeader(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", version)
	}
	return decodeDynamicBody(br)
}

// DecodeIndex reads either HADX codec from r: a v1 encoding yields the
// pointer-walk *DynamicIndex, a v4 (mmap-native arena, decoded eagerly here)
// encoding the flat *FrozenIndex.
func DecodeIndex(r io.Reader) (Index, error) {
	br := bufio.NewReader(r)
	if hdr, err := br.Peek(len(codecMagic) + 1); err == nil && hdr[len(codecMagic)] == codecVersionArena {
		f, err := DecodeFrozen(br)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	version, err := readCodecHeader(br)
	if err != nil {
		return nil, err
	}
	if version != codecVersion {
		return nil, fmt.Errorf("core: unsupported index version %d", version)
	}
	idx, err := decodeDynamicBody(br)
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// decodeDynamicBody parses the v1 layout after the magic and version.
func decodeDynamicBody(br *bufio.Reader) (*DynamicIndex, error) {
	length64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	length := int(length64)
	if length <= 0 || length > 1<<20 {
		return nil, fmt.Errorf("core: implausible code length %d", length)
	}
	flags, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	withIDs := flags&1 != 0

	readCode := func() (bitvec.Code, error) {
		c := bitvec.New(length)
		w := c.Words()
		var buf [8]byte
		for i := range w {
			if _, err := io.ReadFull(br, buf[:]); err != nil {
				return bitvec.Code{}, err
			}
			w[i] = binary.BigEndian.Uint64(buf[:])
		}
		return c, nil
	}

	x := &DynamicIndex{
		opts:   Options{}.withDefaults(1),
		length: length,
		byCode: make(map[string]*leafGroup),
	}
	nGroups, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Grow incrementally: every group consumes at least one code worth of
	// input, so a hostile count fails at EOF instead of pre-allocating.
	groups := make([]*leafGroup, 0, 1024)
	for i := uint64(0); i < nGroups; i++ {
		code, err := readCode()
		if err != nil {
			return nil, fmt.Errorf("core: reading leaf code %d: %w", i, err)
		}
		g := &leafGroup{code: code}
		if withIDs {
			cnt, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			prev := int64(0)
			for j := uint64(0); j < cnt; j++ {
				d, err := binary.ReadVarint(br)
				if err != nil {
					return nil, err
				}
				prev += d
				g.ids = append(g.ids, int(prev))
			}
			x.n += len(g.ids)
		}
		groups = append(groups, g)
		x.byCode[code.Key()] = g
	}

	groupAt := func(i uint64) (*leafGroup, error) {
		if i >= uint64(len(groups)) {
			return nil, fmt.Errorf("core: leaf group index %d out of range", i)
		}
		return groups[i], nil
	}

	nTop, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < nTop; i++ {
		gi, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		g, err := groupAt(gi)
		if err != nil {
			return nil, err
		}
		x.topLeaves = append(x.topLeaves, g)
	}

	nRoots, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	var decNode func(parent *dnode) (*dnode, error)
	decNode = func(parent *dnode) (*dnode, error) {
		mask, err := readCode()
		if err != nil {
			return nil, err
		}
		bits, err := readCode()
		if err != nil {
			return nil, err
		}
		n := &dnode{pat: bitvec.PatternFromMaskBits(mask, bits), parent: parent}
		freq, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		n.freq = int(freq)
		nc, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nc; i++ {
			c, err := decNode(n)
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
		}
		nl, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < nl; i++ {
			gi, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			g, err := groupAt(gi)
			if err != nil {
				return nil, err
			}
			g.parent = n
			n.leaves = append(n.leaves, g)
		}
		return n, nil
	}
	for i := uint64(0); i < nRoots; i++ {
		r, err := decNode(nil)
		if err != nil {
			return nil, fmt.Errorf("core: decoding root %d: %w", i, err)
		}
		x.roots = append(x.roots, r)
	}
	x.finalizeResiduals()
	return x, nil
}

func putUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func putVarint(w *bufio.Writer, v int64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	w.Write(buf[:n])
}
