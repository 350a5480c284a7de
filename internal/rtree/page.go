package rtree

import (
	"encoding/binary"
	"fmt"
	"math"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// nodeHeaderSize is the per-node page header: 1 flag byte, 2 count bytes,
// 1 reserved byte.
const nodeHeaderSize = 4

// encodeNode serializes a node into the tree's page buffer and returns the
// bytes used, valid until the next encodeNode: a Disk copies what WritePage
// is given, so a bulk load writes every page through one buffer.
func (t *Tree) encodeNode(n *Node) ([]byte, error) {
	capacity := t.innerCap
	if n.Leaf {
		capacity = t.leafCap
	}
	if len(n.Entries) > capacity {
		return nil, fmt.Errorf("rtree: node overflow: %d entries, capacity %d", len(n.Entries), capacity)
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
	words := kwWords(t.cfg.KeywordWidth)
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
		if words > 0 {
			raw := e.Keywords.WordsBits()
			for w := 0; w < words; w++ {
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
// data. It has two callers: the buffer pool, once per residency of a page
// (Tree.DecodePage), and the mutators' private read (mutableNode).
func (t *Tree) decodeNode(data []byte) (*Node, error) {
	if len(data) < nodeHeaderSize {
		return nil, fmt.Errorf("rtree: short page: %d bytes", len(data))
	}
	n := &Node{Leaf: data[0]&1 == 1}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	capacity := t.innerCap
	if n.Leaf {
		capacity = t.leafCap
	}
	if count > capacity {
		return nil, fmt.Errorf("rtree: corrupt page: count %d exceeds capacity %d", count, capacity)
	}
	n.Entries = make([]Entry, count)
	off := nodeHeaderSize
	words := kwWords(t.cfg.KeywordWidth)
	// Three allocations per node, each of exactly the size it needs: the
	// header, the entry array and one keyword arena shared by all entries
	// (not one slice per entry). The bits are copied out of data: it is the
	// disk's image, which a write to the page rewrites in place. A pool
	// smaller than the working set pays this decode on every miss, so it
	// stays as cheap as the format allows.
	var arena []uint64
	if words > 0 && count > 0 {
		arena = make([]uint64, words*count)
	}
	for i := 0; i < count; i++ {
		e := &n.Entries[i]
		if n.Leaf {
			e.Leaf = true
			e.Child = storage.InvalidPage
			e.ItemID = int64(binary.LittleEndian.Uint64(data[off:]))
			off += 8
			var x, y float64
			x, off = getFloat(data, off)
			y, off = getFloat(data, off)
			e.Rect = geo.RectOf(geo.Point{X: x, Y: y})
		} else {
			e.Child = storage.PageID(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			var x1, y1, x2, y2 float64
			x1, off = getFloat(data, off)
			y1, off = getFloat(data, off)
			x2, off = getFloat(data, off)
			y2, off = getFloat(data, off)
			e.Rect = geo.Rect{Min: geo.Point{X: x1, Y: y1}, Max: geo.Point{X: x2, Y: y2}}
		}
		if t.cfg.WithScore {
			e.Score, off = getFloat(data, off)
		}
		if words > 0 {
			raw := arena[i*words : (i+1)*words : (i+1)*words]
			for w := 0; w < words; w++ {
				raw[w] = binary.LittleEndian.Uint64(data[off:])
				off += 8
			}
			e.Keywords = kwset.FromBitsOwned(t.cfg.KeywordWidth, raw)
		}
	}
	return n, nil
}

// putFloat writes a float64 at off and returns the next offset.
func putFloat(buf []byte, off int, v float64) int {
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
	return off + 8
}

// getFloat reads a float64 at off and returns it with the next offset.
func getFloat(buf []byte, off int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])), off + 8
}
