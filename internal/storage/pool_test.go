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

// checkedPageSize is the page size of checkedDisk: the page id, a version,
// a body derived from both and a checksum over all of it.
const checkedPageSize = 32

// checkedPage is the content of version ver of page id.
func checkedPage(id PageID, ver uint32) []byte {
	p := make([]byte, checkedPageSize)
	binary.LittleEndian.PutUint32(p, uint32(id))
	binary.LittleEndian.PutUint32(p[4:], ver)
	for i := 8; i < checkedPageSize-4; i++ {
		p[i] = byte(int(id)*31 + int(ver)*7 + i)
	}
	binary.LittleEndian.PutUint32(p[checkedPageSize-4:], crc32.ChecksumIEEE(p[:checkedPageSize-4]))
	return p
}

// checkedDisk returns a disk of n pages, each holding version 0 of itself.
func checkedDisk(t testing.TB, n int) *MemDisk {
	t.Helper()
	d := NewMemDisk(checkedPageSize)
	for i := 0; i < n; i++ {
		id, _ := d.Allocate()
		if err := d.WritePage(id, checkedPage(id, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// checkImage reports how an image differs from version ver of page id.
func checkImage(id PageID, ver uint32, img []byte) error {
	if !bytes.Equal(img, checkedPage(id, ver)) {
		return fmt.Errorf("page %d version %d: image reads page %d version %d, %x",
			id, ver, binary.LittleEndian.Uint32(img), binary.LittleEndian.Uint32(img[4:]), img)
	}
	return nil
}

// lruModel is the reference the pool's counts are held to: a plain LRU of
// page ids with no frames or images.
type lruModel struct {
	capacity int
	order    []PageID // most recently used first
	st       Stats
}

// touch moves id to the front if it is resident and reports whether it was.
func (m *lruModel) touch(id PageID) bool {
	for i, x := range m.order {
		if x == id {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = id
			return true
		}
	}
	return false
}

func (m *lruModel) read(id PageID) {
	m.st.LogicalReads++
	if m.touch(id) {
		return
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

func (m *lruModel) write(id PageID) {
	m.st.Writes++
	m.touch(id)
}

// gotImage is an image Get returned, with the page it is of.
type gotImage struct {
	id  PageID
	img []byte
}

// checkPool holds the pool to the model: the same counts and the same
// resident pages in the same order, each frame holding the disk's own
// image of its page; and every image Get ever returned still the page's current
// content, since a write rewrites the disk's image in place.
func checkPool(p *BufferPool, d *MemDisk, m *lruModel, ver []uint32, got []gotImage) error {
	if st := p.Stats(); st != m.st {
		return fmt.Errorf("pool counted %+v, reference LRU %+v", st, m.st)
	}
	for _, g := range got {
		if err := checkImage(g.id, ver[g.id], g.img); err != nil {
			return fmt.Errorf("Get's %w", err)
		}
	}
	s := p.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lru.Len() != len(m.order) || len(s.entries) != len(m.order) {
		return fmt.Errorf("%d frames, %d entries, reference LRU holds %d pages", s.lru.Len(), len(s.entries), len(m.order))
	}
	i := 0
	for el := s.lru.Front(); el != nil; el, i = el.Next(), i+1 {
		f := el.Value.(*frame)
		if f.id != m.order[i] || s.entries[f.id] != el {
			return fmt.Errorf("LRU position %d holds page %d, reference LRU page %d", i, f.id, m.order[i])
		}
		if &f.data[0] != &d.pages[f.id][0] {
			return fmt.Errorf("page %d: the frame's image is not the disk's", f.id)
		}
	}
	return nil
}

// Random sequences of Get, WriteThrough and Clear over pools of
// up to four pages: after every step the pool counts what a plain LRU
// counts and holds what it holds (checkPool). The target keeps the name it
// had when the pool pinned frames, so its seed corpus and the inputs a fuzz
// run has cached stay under it.
func FuzzBufferPoolPins(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 0, 2, 1, 0, 0, 3})
	f.Add([]byte{1, 0, 0, 3, 1, 5, 0, 0, 2, 3, 0, 7, 0, 0, 1})
	f.Add([]byte{4, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 5, 0, 3, 0, 3, 5, 4, 0, 2, 6})
	f.Add([]byte{0, 0, 1, 3, 1, 5, 1, 3, 1, 7, 0, 0, 1})
	f.Add([]byte{3, 2, 0, 0, 0, 5, 1, 3, 2, 6, 2, 3, 1, 4, 0, 7, 0, 0, 3})
	const pages = 6
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		capacity := int(ops[0] % 5)
		d := checkedDisk(t, pages)
		p := NewBufferPool(d, capacity)
		m := &lruModel{capacity: capacity}
		ver := make([]uint32, pages)
		var got []gotImage
		for i := 1; i+1 < len(ops); i += 2 {
			id := PageID(int(ops[i+1]) % pages)
			var step string
			switch op := ops[i] % 8; {
			case op < 5:
				step = fmt.Sprintf("Get(%d)", id)
				img, err := p.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				m.read(id)
				got = append(got, gotImage{id, img})
			case op < 7:
				step = fmt.Sprintf("WriteThrough(%d)", id)
				ver[id]++
				if err := p.WriteThrough(id, checkedPage(id, ver[id])); err != nil {
					t.Fatal(err)
				}
				m.write(id)
			default:
				step = "Clear"
				p.Clear()
				m.order = m.order[:0]
			}
			if err := checkPool(p, d, m, ver, got); err != nil {
				t.Fatalf("after op %d, %s: %v", i/2, step, err)
			}
		}
	})
}

// After warm-up a miss on a full pool allocates nothing: the victim's frame
// and list element take the new page, and its image is the disk's.
func TestAllocsBufferPoolMissRecycled(t *testing.T) {
	const pages = 8
	p := NewBufferPool(checkedDisk(t, pages), pages/2)
	want := make([][]byte, pages)
	for id := range want {
		want[id] = checkedPage(PageID(id), 0)
	}
	var acct Stats
	sess := p.Session(&acct)
	next := 0
	miss := func() {
		id := next % pages // a cycle twice the capacity: every read misses
		next++
		img, err := sess.Get(PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img, want[id]) {
			t.Fatalf("page %d: image %x", id, img)
		}
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

// A miss and every later hit return the MemDisk's stored image itself, not
// a copy of it, and the pool still counts what a plain LRU counts.
func TestMissReturnsDiskImage(t *testing.T) {
	const pages = 6
	d := checkedDisk(t, pages)
	p := NewBufferPool(d, 3)
	m := &lruModel{capacity: 3}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		id := PageID(rng.Intn(pages))
		hit := p.Contains(id)
		img, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		m.read(id)
		stored, err := d.ReadPage(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(img) != len(stored) || &img[0] != &stored[0] {
			t.Fatalf("read %d (hit %v) of page %d returned a copy, not the disk's image", i, hit, id)
		}
	}
	if st := p.Stats(); st != m.st || st.Evictions == 0 || st.PhysicalReads == st.LogicalReads {
		t.Fatalf("pool counted %+v, reference LRU %+v", st, m.st)
	}
}

// A pool over a merge clone's CowDisk starts out holding the base's images.
// Writing a page through it lands in the clone's overlay: the base's image,
// and what a pool over the base reads, keep the old bytes, while the
// clone's reads see the new ones.
func TestCowCloneWriteLeavesBase(t *testing.T) {
	const pages, x = 4, PageID(2)
	base := checkedDisk(t, pages)
	basePool := NewBufferPool(base, pages)
	baseImg, err := basePool.Get(x)
	if err != nil {
		t.Fatal(err)
	}
	clone := NewBufferPool(NewCowDisk(base), pages)
	img, err := clone.Get(x)
	if err != nil {
		t.Fatal(err)
	}
	if &img[0] != &baseImg[0] {
		t.Fatal("an unwritten clone page is not the base's image")
	}
	if err := clone.WriteThrough(x, checkedPage(x, 1)); err != nil {
		t.Fatal(err)
	}

	stored, _ := base.ReadPage(x)
	for name, got := range map[string][]byte{"base disk": stored, "image held from the base pool": baseImg} {
		if err := checkImage(x, 0, got); err != nil {
			t.Errorf("%s after the clone's write: %v", name, err)
		}
	}
	if got, err := basePool.Get(x); err != nil || checkImage(x, 0, got) != nil {
		t.Errorf("base pool Get after the clone's write = %x, %v", got, err)
	}
	if got, err := clone.Get(x); err != nil || checkImage(x, 1, got) != nil {
		t.Errorf("clone Get after its write = %x, %v", got, err)
	}
	if st := basePool.Stats(); st.Writes != 0 || st.PhysicalReads != 1 {
		t.Errorf("base pool counted %+v, want one physical read and no write", st)
	}
}

// Readers that Get pages, and keep the images a while, on a pool far
// smaller than the pages they read, while one of them also Clears it:
// every image is its page's, every read is counted
// once as a hit or a miss, and the pool never holds more than its capacity.
// The readers hold images where they once held pins, while the misses
// beside them recycle every evicted frame.
func TestPinConcurrentRecycling(t *testing.T) {
	const pages, capacity, readers, ops = 16, 4, 6, 3000
	p := NewBufferPool(checkedDisk(t, pages), capacity)
	reg := obs.NewRegistry()
	p.SetMetrics(NewPoolMetrics(reg, "t"))
	var wg sync.WaitGroup
	reads := make([]int64, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var held []gotImage
			for op := 0; op < ops; op++ {
				id := PageID(rng.Intn(pages))
				switch r := rng.Intn(20); {
				case r == 0 && g == 0:
					p.Clear()
					continue
				default:
					img, err := p.Get(id)
					if err != nil {
						t.Error(err)
						return
					}
					held = append(held, gotImage{id, img})
				}
				reads[g]++
				// Keep up to three images, more than half the pool, and
				// check each one as it is let go.
				for len(held) > rng.Intn(4) {
					if err := checkImage(held[0].id, 0, held[0].img); err != nil {
						t.Errorf("held %v", err)
						return
					}
					held = held[1:]
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range reads {
		total += n
	}
	st := p.Stats()
	snap := reg.Snapshot().Counters
	hits, misses := snap[`stpq_bufferpool_hits_total{pool="t"}`], snap[`stpq_bufferpool_misses_total{pool="t"}`]
	if st.LogicalReads != total || hits+misses != total || misses != st.PhysicalReads || st.Evictions > misses {
		t.Errorf("%d reads: pool counted %+v, %d hits and %d misses", total, st, hits, misses)
	}
	if st.Evictions == 0 {
		t.Error("no read evicted: the test shows nothing")
	}
	if n := p.Len(); n > capacity {
		t.Errorf("pool holds %d pages, capacity %d", n, capacity)
	}
}

// An image Get returned is never overwritten (bench/ reads pages that way):
// its page is evicted and read again many times over, while a churner's
// misses beside the checks recycle every evicted frame, and the image still
// holds its page.
func TestGetImageSurvivesRecycling(t *testing.T) {
	const pages, capacity = 8, 2
	p := NewBufferPool(checkedDisk(t, pages), capacity)
	var got []gotImage
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churns misses beside the checks below
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := p.Get(PageID(i % pages)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for round := 0; round < 200; round++ {
		id := PageID(round % pages)
		img, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, gotImage{id, img})
		for i := 0; i < 2*pages; i++ { // evict it, and hand its frame on
			if _, err := p.Get(PageID(i % pages)); err != nil {
				t.Fatal(err)
			}
		}
		for _, g := range got {
			if err := checkImage(g.id, 0, g.img); err != nil {
				t.Fatalf("round %d: Get's %v", round, err)
			}
		}
	}
	close(done)
	wg.Wait()
	if st := p.Stats(); st.Evictions == 0 {
		t.Errorf("pool counted %+v: no read evicted, the test shows nothing", st)
	}
}
