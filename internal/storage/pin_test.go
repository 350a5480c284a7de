package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"
	"testing"

	"stpq/internal/obs"
)

// checkedPageSize is the page size of checkedDisk: the page id, a body
// derived from it and a checksum over both.
const checkedPageSize = 32

// checkedPage is the content of page id on a checkedDisk.
func checkedPage(id PageID) []byte {
	p := make([]byte, checkedPageSize)
	binary.LittleEndian.PutUint32(p, uint32(id))
	for i := 4; i < checkedPageSize-4; i++ {
		p[i] = byte(int(id)*31 + i)
	}
	binary.LittleEndian.PutUint32(p[checkedPageSize-4:], crc32.ChecksumIEEE(p[:checkedPageSize-4]))
	return p
}

// checkedDisk returns a disk of n pages, each holding checkedPage(id).
func checkedDisk(t testing.TB, n int) *MemDisk {
	t.Helper()
	d := NewMemDisk(checkedPageSize)
	for i := 0; i < n; i++ {
		id, _ := d.Allocate()
		if err := d.WritePage(id, checkedPage(id)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// checkImage reports how an image differs from page id's content.
func checkImage(id PageID, img []byte) error {
	if !bytes.Equal(img, checkedPage(id)) {
		return fmt.Errorf("page %d: image reads id %d, %x", id, binary.LittleEndian.Uint32(img), img)
	}
	return nil
}

// idDecoder decodes a checked page into its id, failing on a page whose
// bytes are not the content of the page they claim to be.
type idDecoder struct{}

func (idDecoder) DecodePage(data []byte) (any, error) {
	id := PageID(binary.LittleEndian.Uint32(data))
	if err := checkImage(id, data); err != nil {
		return nil, err
	}
	return id, nil
}

// lruModel is the reference the pool's counts are held to: a plain LRU of
// page ids with no frames, pins or buffers.
type lruModel struct {
	capacity int
	order    []PageID // most recently used first
	st       Stats
}

func (m *lruModel) read(id PageID) {
	m.st.LogicalReads++
	for i, x := range m.order {
		if x == id {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = id
			return
		}
	}
	m.st.PhysicalReads++
	if m.capacity == 0 {
		return
	}
	if len(m.order) == m.capacity {
		m.order = m.order[:len(m.order)-1]
		m.st.Evictions++
	}
	m.order = append([]PageID{id}, m.order...)
}

// gotImage is an image Get returned, with the page it is of.
type gotImage struct {
	id  PageID
	img []byte
}

// checkPool holds the pool to the model and its memory to the pin protocol:
// the same counts, every held image still its page's, no buffer behind two
// live frames or both behind a frame and on the free list, and a free list
// no longer than the capacity.
func checkPool(p *BufferPool, m *lruModel, held []Pinned, heldIDs []PageID, got []gotImage) error {
	if st := p.Stats(); st != m.st {
		return fmt.Errorf("pool counted %+v, reference LRU %+v", st, m.st)
	}
	for i, pin := range held {
		if err := checkImage(heldIDs[i], pin.Data()); err != nil {
			return fmt.Errorf("pinned %w", err)
		}
	}
	for _, g := range got {
		if err := checkImage(g.id, g.img); err != nil {
			return fmt.Errorf("Get's %w", err)
		}
	}
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.free) > s.capacity {
		return fmt.Errorf("free list holds %d images, capacity %d", len(s.free), s.capacity)
	}
	owner := map[*byte]*frame{}
	live := func(f *frame) error {
		at := &f.data[0]
		if o, ok := owner[at]; ok && o != f {
			return fmt.Errorf("pages %d and %d share one buffer", o.id, f.id)
		}
		owner[at] = f
		return nil
	}
	for el := s.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if f.pins.Load()&evictedBit != 0 {
			return fmt.Errorf("resident page %d is marked evicted", f.id)
		}
		if err := live(f); err != nil {
			return err
		}
	}
	for _, pin := range held {
		if err := live(pin.f); err != nil {
			return err
		}
	}
	for _, g := range got {
		if o, ok := owner[&g.img[0]]; ok && o.id != g.id {
			return fmt.Errorf("Get's image of page %d backs page %d", g.id, o.id)
		}
	}
	for _, buf := range s.free {
		at := &buf[0]
		if o, ok := owner[at]; ok && o == nil {
			return fmt.Errorf("one image is on the free list twice")
		} else if ok {
			return fmt.Errorf("the image of live page %d is on the free list", o.id)
		}
		for _, g := range got {
			if &g.img[0] == at {
				return fmt.Errorf("Get's image of page %d is on the free list", g.id)
			}
		}
		owner[at] = nil
	}
	return nil
}

// Random sequences of Pin, Unpin, Get, GetDecoded and Clear over pools of
// up to four pages: after every step the pool counts what a plain LRU
// counts, and its memory obeys the pin protocol (checkPool).
func FuzzBufferPoolPins(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 1, 0, 0, 3})
	f.Add([]byte{1, 0, 0, 0, 1, 0, 2, 1, 0, 4, 0, 0, 3, 1, 1})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 0, 1, 0, 3, 5, 4, 0, 2, 6})
	f.Add([]byte{0, 0, 1, 3, 1, 1, 0, 2, 2, 1, 3})
	f.Add([]byte{3, 2, 0, 0, 0, 0, 1, 0, 2, 1, 2, 1, 1, 4, 0, 3, 0, 0, 3})
	const pages = 6
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0] % 5)
		p := NewBufferPool(checkedDisk(t, pages), capacity)
		m := &lruModel{capacity: capacity}
		var (
			held    []Pinned
			heldIDs []PageID
			got     []gotImage
		)
		for i := 1; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			id := PageID(arg % pages)
			var step string
			switch ops[i] % 5 {
			case 0:
				step = fmt.Sprintf("Pin(%d)", id)
				pin, err := p.Pin(id)
				if err != nil {
					t.Fatal(err)
				}
				m.read(id)
				held, heldIDs = append(held, pin), append(heldIDs, id)
			case 1:
				if len(held) == 0 {
					continue
				}
				k := arg % len(held)
				step = fmt.Sprintf("Unpin(page %d)", heldIDs[k])
				held[k].Unpin()
				last := len(held) - 1
				held[k], heldIDs[k] = held[last], heldIDs[last]
				held, heldIDs = held[:last], heldIDs[:last]
			case 2:
				step = fmt.Sprintf("Get(%d)", id)
				img, err := p.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				m.read(id)
				got = append(got, gotImage{id, img})
			case 3:
				step = fmt.Sprintf("GetDecoded(%d)", id)
				v, err := p.GetDecoded(id, idDecoder{})
				if err != nil {
					t.Fatal(err)
				}
				m.read(id)
				if v.(PageID) != id {
					t.Fatalf("GetDecoded(%d) decoded page %d", id, v)
				}
			default:
				step = "Clear"
				p.Clear()
				m.order = m.order[:0]
			}
			if err := checkPool(p, m, held, heldIDs, got); err != nil {
				t.Fatalf("after op %d, %s: %v", i/2, step, err)
			}
		}
	})
}

// After warm-up a miss on a full pool allocates nothing: the victim's frame
// and list element take the new page, and the image it read into is the
// one the previous miss's victim left on the free list.
func TestAllocsBufferPoolMissRecycled(t *testing.T) {
	const pages = 8
	p := NewBufferPool(checkedDisk(t, pages), pages/2)
	want := make([][]byte, pages)
	for id := range want {
		want[id] = checkedPage(PageID(id))
	}
	var acct Stats
	sess := p.Session(&acct)
	next := 0
	miss := func() {
		id := next % pages // a cycle twice the capacity: every read misses
		next++
		pin, err := sess.Pin(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pin.Data(), want[id]) {
			t.Fatalf("page %d: pinned image %x", id, pin.Data())
		}
		pin.Unpin()
	}
	for i := 0; i < 4*pages; i++ {
		miss()
	}
	before := acct
	const runs = 400
	allocs := testing.AllocsPerRun(runs, miss)
	if d := acct.Sub(before); d.PhysicalReads != runs+1 || d.Evictions != runs+1 {
		t.Fatalf("%d reads charged %+v: not every read missed and evicted", runs+1, d)
	}
	if allocs != 0 {
		t.Errorf("a miss on a full pool allocates %v objects, want 0", allocs)
	}
}

// Readers that pin, hold and release pages while others miss, evict and
// recycle beside them read the bytes they pinned for as long as they hold
// them, and leave no pin behind: afterwards every resident frame is
// unheld and, once the pool filled, misses recycled.
func TestPinConcurrentRecycling(t *testing.T) {
	const pages, capacity = 16, 4
	p := NewBufferPool(checkedDisk(t, pages), capacity)
	reg := obs.NewRegistry()
	p.SetMetrics(NewPoolMetrics(reg, "t"))
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held []Pinned
			var ids []PageID
			for op := 0; op < 3000; op++ {
				id := PageID(rng.Intn(pages))
				switch r := rng.Intn(20); {
				case r == 0 && g == 0:
					p.Clear()
				case r < 4:
					v, err := p.GetDecoded(id, idDecoder{})
					if err != nil || v.(PageID) != id {
						t.Errorf("GetDecoded(%d) = %v, %v", id, v, err)
						return
					}
				default:
					pin, err := p.Pin(id)
					if err != nil {
						t.Error(err)
						return
					}
					held, ids = append(held, pin), append(ids, id)
				}
				// Hold up to three pages, more than a quarter of the pool
				// each, and check each one as it is let go.
				for len(held) > rng.Intn(4) {
					if err := checkImage(ids[0], held[0].Data()); err != nil {
						t.Errorf("held %v", err)
						return
					}
					held[0].Unpin()
					held, ids = held[1:], ids[1:]
				}
			}
			for _, pin := range held {
				pin.Unpin()
			}
		}(g)
	}
	wg.Wait()

	s := p.s
	s.mu.Lock()
	for el := s.lru.Front(); el != nil; el = el.Next() {
		if f := el.Value.(*frame); f.pins.Load() != 0 {
			t.Errorf("resident page %d left with pins %#x after every reader unpinned", f.id, f.pins.Load())
		}
	}
	if len(s.free) > capacity {
		t.Errorf("free list holds %d images, capacity %d", len(s.free), capacity)
	}
	s.mu.Unlock()
	snap := reg.Snapshot().Counters
	misses, recycled := snap[`stpq_bufferpool_misses_total{pool="t"}`], snap[`stpq_bufferpool_recycled_total{pool="t"}`]
	if recycled == 0 || recycled > misses {
		t.Errorf("%d of %d misses recycled an image", recycled, misses)
	}
}

// An image Get returned is never overwritten (bench/ reads pages that way):
// its page is evicted and read again many times over while other pages
// recycle every frame they can, and the image still holds its page.
func TestGetImageSurvivesRecycling(t *testing.T) {
	const pages, capacity = 8, 2
	p := NewBufferPool(checkedDisk(t, pages), capacity)
	var got []gotImage
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churns misses that recycle beside the checks below
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			pin, err := p.Pin(PageID(i % pages))
			if err != nil {
				t.Error(err)
				return
			}
			pin.Unpin()
		}
	}()
	for round := 0; round < 200; round++ {
		id := PageID(round % pages)
		img, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, gotImage{id, img})
		for i := 0; i < 2*pages; i++ { // evict it, and recycle what the pins let go
			pin, err := p.Pin(PageID(i % pages))
			if err != nil {
				t.Fatal(err)
			}
			pin.Unpin()
		}
		for _, g := range got {
			if err := checkImage(g.id, g.img); err != nil {
				t.Fatalf("round %d: Get's %v", round, err)
			}
		}
	}
	close(done)
	wg.Wait()
}
