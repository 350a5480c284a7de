package storage

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"stpq/internal/obs"
)

// decodedPage is what the test decoder produces: a copy of the page's
// first byte, so a stale decoded form is recognisable. The padding keeps it
// out of the allocator's shared 16-byte blocks, whose objects may never
// have their finalizer run.
type decodedPage struct {
	first byte
	_     [63]byte
}

// countingDecoder counts its calls; a non-nil fail makes every call fail.
type countingDecoder struct {
	mu    sync.Mutex
	calls int
	fail  error
}

func (d *countingDecoder) DecodePage(data []byte) (any, error) {
	d.mu.Lock()
	d.calls++
	d.mu.Unlock()
	if d.fail != nil {
		return nil, d.fail
	}
	return &decodedPage{first: data[0]}, nil
}

func decodedDisk(t *testing.T, pages int) (*MemDisk, []PageID) {
	t.Helper()
	d := NewMemDisk(16)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i], _ = d.Allocate()
		if err := d.WritePage(ids[i], []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	return d, ids
}

func getDecoded(t *testing.T, p *BufferPool, id PageID, dec Decoder) *decodedPage {
	t.Helper()
	v, err := p.GetDecoded(id, dec)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*decodedPage)
}

// A page is decoded once per residency, every reader gets the same value,
// and a decoded read counts exactly like Get.
func TestGetDecodedOncePerResidency(t *testing.T) {
	d, ids := decodedDisk(t, 3)
	p := NewBufferPool(d, 2)
	dec := &countingDecoder{}
	first := getDecoded(t, p, ids[0], dec)
	if first.first != 1 || dec.calls != 1 {
		t.Fatalf("first read: decoded %+v after %d decodes", first, dec.calls)
	}
	var acct Stats
	sess := p.Session(&acct)
	for i := 0; i < 5; i++ {
		if again := getDecoded(t, sess, ids[0], dec); again != first {
			t.Fatal("a hit returned a different decoded value")
		}
	}
	if dec.calls != 1 {
		t.Fatalf("%d decodes for one residency, want 1", dec.calls)
	}
	if acct != (Stats{LogicalReads: 5}) {
		t.Fatalf("five decoded hits charged %+v, want 5 logical reads", acct)
	}
	if st := p.Stats(); st.LogicalReads != 6 || st.PhysicalReads != 1 {
		t.Fatalf("pool counted %+v, want 6 logical / 1 physical", st)
	}
}

// The decoded form lives in the frame: a capacity-2 pool drops it with the
// page it evicts, Clear drops all of them, and a dropped form is garbage —
// nothing in the pool keeps it reachable.
func TestDecodedFormDiesWithItsFrame(t *testing.T) {
	d, ids := decodedDisk(t, 3)
	p := NewBufferPool(d, 2)
	dec := &countingDecoder{}

	collected := make(chan struct{})
	func() {
		v := getDecoded(t, p, ids[0], dec)
		runtime.SetFinalizer(v, func(*decodedPage) { close(collected) })
	}()
	getDecoded(t, p, ids[1], dec)
	getDecoded(t, p, ids[2], dec) // evicts page 0 and its decoded form
	if p.Contains(ids[0]) {
		t.Fatal("page 0 still resident in a full capacity-2 pool")
	}
	deadline := time.After(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the evicted page's decoded form is still reachable")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if dec.calls != 3 {
		t.Fatalf("%d decodes for three misses, want 3", dec.calls)
	}
	getDecoded(t, p, ids[0], dec) // a new residency decodes again
	if dec.calls != 4 {
		t.Fatalf("re-reading the evicted page: %d decodes, want 4", dec.calls)
	}

	before := getDecoded(t, p, ids[2], dec)
	p.Clear()
	if p.Len() != 0 {
		t.Fatalf("Clear left %d pages", p.Len())
	}
	if after := getDecoded(t, p, ids[2], dec); after == before {
		t.Fatal("Clear kept a decoded form")
	}
	if dec.calls != 5 {
		t.Fatalf("after Clear: %d decodes, want 5", dec.calls)
	}
}

// WriteThrough empties the slot of a resident page, so the next decoded
// read sees the new bytes; stpq_bufferpool_decodes_total counts one per
// actual decode: on a serial run, misses plus first touches after a write.
func TestDecodesMetric(t *testing.T) {
	d, ids := decodedDisk(t, 4)
	reg := obs.NewRegistry()
	p := NewBufferPool(d, 2)
	m := NewPoolMetrics(reg, "t")
	p.SetMetrics(m)
	dec := &countingDecoder{}

	firstTouchesAfterWrite := int64(0)
	for round := 0; round < 3; round++ {
		for _, id := range ids { // 4 pages through 2 frames: all misses
			getDecoded(t, p, id, dec)
			getDecoded(t, p, id, dec) // hit, no decode
		}
		// ids[3] is resident: rewrite it, read it twice.
		if err := p.WriteThrough(ids[3], []byte{byte(100 + round)}); err != nil {
			t.Fatal(err)
		}
		if got := getDecoded(t, p, ids[3], dec); got.first != byte(100+round) {
			t.Fatalf("decoded read after WriteThrough saw %d, want %d", got.first, 100+round)
		}
		firstTouchesAfterWrite++
		getDecoded(t, p, ids[3], dec)
		// ids[0] is not resident: a write leaves nothing to invalidate.
		if err := p.WriteThrough(ids[0], []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot().Counters
	decodes := snap[`stpq_bufferpool_decodes_total{pool="t"}`]
	misses := snap[`stpq_bufferpool_misses_total{pool="t"}`]
	if decodes != misses+firstTouchesAfterWrite || decodes != int64(dec.calls) {
		t.Fatalf("decodes = %d (decoder called %d times), want misses %d + first touches after a write %d",
			decodes, dec.calls, misses, firstTouchesAfterWrite)
	}
	if misses != 12 { // four pages cycle through two frames: every first read of a round misses
		t.Fatalf("misses = %d, want 12", misses)
	}
}

// A failed decode is reported, fills nothing and is not counted.
func TestGetDecodedError(t *testing.T) {
	d, ids := decodedDisk(t, 1)
	reg := obs.NewRegistry()
	p := NewBufferPool(d, 2)
	p.SetMetrics(NewPoolMetrics(reg, "t"))
	boom := errors.New("boom")
	if _, err := p.GetDecoded(ids[0], &countingDecoder{fail: boom}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := reg.Snapshot().Counters[`stpq_bufferpool_decodes_total{pool="t"}`]; n != 0 {
		t.Fatalf("a failed decode was counted: %d", n)
	}
	dec := &countingDecoder{}
	if got := getDecoded(t, p, ids[0], dec); got.first != 1 || dec.calls != 1 {
		t.Fatalf("after a failed decode: %+v, %d decodes", got, dec.calls)
	}
}

// Concurrent first touches may decode twice, but every reader of a
// residency ends up with the same value.
func TestGetDecodedConcurrent(t *testing.T) {
	d, ids := decodedDisk(t, 8)
	p := NewBufferPool(d, 32) // holds all eight pages: no evictions
	dec := &countingDecoder{}
	const readers = 8
	got := make([][]*decodedPage, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for _, id := range ids {
				v, err := p.GetDecoded(id, dec)
				if err != nil {
					t.Error(err)
					return
				}
				got[r] = append(got[r], v.(*decodedPage))
			}
		}(r)
	}
	wg.Wait()
	for r := 1; r < readers; r++ {
		for i := range ids {
			if len(got[r]) != len(ids) || got[r][i] != got[0][i] {
				t.Fatalf("reader %d saw a different decoded form of page %d", r, i)
			}
		}
	}
}

// The decoded hit path allocates nothing, like the Get hit path.
func TestAllocsBufferPoolGetDecodedHit(t *testing.T) {
	d, ids := decodedDisk(t, 1)
	p := NewBufferPool(d, 8)
	dec := &countingDecoder{}
	getDecoded(t, p, ids[0], dec) // prime the frame and its slot
	var acct Stats
	sess := p.Session(&acct)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.GetDecoded(ids[0], dec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("GetDecoded hit path allocs/op = %v, want 0", allocs)
	}
	if acct.PhysicalReads != 0 || dec.calls != 1 {
		t.Errorf("hit path read the disk or decoded again: %+v, %d decodes", acct, dec.calls)
	}
}
