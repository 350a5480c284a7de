package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
)

// nodeHeaderSize is the per-node page header: 1 flag byte, 2 count bytes,
// 1 reserved byte.
const nodeHeaderSize = 4

// encodeNode serializes a node into the tree's page buffer and returns the
// bytes used, valid until the next encodeNode: a Disk copies what WritePage
// is given, so a bulk load writes every page through one buffer.
func (t *Tree) encodeNode(n *Node) ([]byte, error) {
	lay := t.layout(n.Leaf)
	if len(n.Entries) > lay.capacity {
		return nil, fmt.Errorf("rtree: node overflow: %d entries, capacity %d", len(n.Entries), lay.capacity)
	}
	if t.encBuf == nil {
		t.encBuf = make([]byte, t.cfg.PageSize)
	}
	buf := t.encBuf
	clear(buf)
	if n.Leaf {
		buf[0] = 1
	}
	binary.LittleEndian.PutUint16(buf[1:3], uint16(len(n.Entries)))
	off := nodeHeaderSize
	for i := range n.Entries {
		e := &n.Entries[i]
		if n.Leaf {
			binary.LittleEndian.PutUint64(buf[off:], uint64(e.ItemID))
			off += 8
			off = putFloat(buf, off, e.Rect.Min.X)
			off = putFloat(buf, off, e.Rect.Min.Y)
		} else {
			binary.LittleEndian.PutUint32(buf[off:], uint32(e.Child))
			off += 4
			off = putFloat(buf, off, e.Rect.Min.X)
			off = putFloat(buf, off, e.Rect.Min.Y)
			off = putFloat(buf, off, e.Rect.Max.X)
			off = putFloat(buf, off, e.Rect.Max.Y)
		}
		if t.cfg.WithScore {
			off = putFloat(buf, off, e.Score)
		}
		if lay.words > 0 {
			raw := e.Keywords.WordsBits()
			for w := 0; w < lay.words; w++ {
				var v uint64
				if w < len(raw) {
					v = raw[w]
				}
				binary.LittleEndian.PutUint64(buf[off:], v)
				off += 8
			}
		}
	}
	return buf[:off], nil
}

// decodeNode parses a page image into a fresh Node that aliases nothing of
// data: Entry over every visible slot, so the slot format is read in one
// place (PageView). Two allocations besides the header, each of exactly
// the size it needs: the entry array and one keyword arena shared by all
// entries. The bits are copied out of data: it is the disk's image, which
// a write to the page rewrites in place.
func (t *Tree) decodeNode(data []byte) (*Node, error) {
	v, err := t.viewOf(data)
	if err != nil {
		return nil, err
	}
	n := &Node{Leaf: v.leaf, Entries: make([]Entry, v.count)}
	arena := make([]uint64, 0, v.words*v.count)
	kept := 0
	for i := range n.Entries {
		if v.Entry(i, &n.Entries[kept], &arena) {
			kept++
		}
	}
	n.Entries = n.Entries[:kept]
	return n, nil
}

// putFloat writes a float64 at off and returns the next offset.
func putFloat(buf []byte, off int, v float64) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
	return off + 8
}
