package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"stpq/internal/obs"
)

func TestMemDiskRoundTrip(t *testing.T) {
	d := NewMemDisk(64)
	id, err := d.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	want := []byte("hello pages")
	if err := d.WritePage(id, want); err != nil {
		t.Fatal(err)
	}
	buf, err := d.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 64 {
		t.Fatalf("image of %d bytes, page of 64", len(buf))
	}
	if !bytes.Equal(buf[:len(want)], want) {
		t.Errorf("read back %q", buf[:len(want)])
	}
	// Rest of page must be zero.
	for _, b := range buf[len(want):] {
		if b != 0 {
			t.Fatal("page tail not zeroed")
		}
	}
}

func TestMemDiskShorterRewriteZeroesTail(t *testing.T) {
	d := NewMemDisk(32)
	id, _ := d.Allocate()
	if err := d.WritePage(id, bytes.Repeat([]byte{0xff}, 32)); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(id, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	buf, err := d.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 1 || buf[1] != 2 || buf[2] != 0 || buf[31] != 0 {
		t.Errorf("rewrite did not zero tail: %v", buf)
	}
}

// No disk hands out a short image: a page rewritten with fewer bytes than
// a page reads back whole, what was written followed by zeros, whether it
// is read from a MemDisk, from the base under a CowDisk or from the
// overlay a CowDisk write gave it.
func TestDiskShortReadBuffer(t *testing.T) {
	const pageSize, half = 64, 32
	sevens, nines := bytes.Repeat([]byte{7}, pageSize), bytes.Repeat([]byte{9}, half)
	// written returns d's first page, written with wholeImg and then rewritten
	// with shortImg.
	written := func(t *testing.T, d Disk, wholeImg, shortImg []byte) PageID {
		t.Helper()
		id, err := d.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for _, img := range [][]byte{wholeImg, shortImg} {
			if err := d.WritePage(id, img); err != nil {
				t.Fatal(err)
			}
		}
		return id
	}
	disks := map[string]func(t *testing.T) (Disk, PageID){
		"MemDisk": func(t *testing.T) (Disk, PageID) {
			d := NewMemDisk(pageSize)
			return d, written(t, d, sevens, nines)
		},
		"CowDisk/base": func(t *testing.T) (Disk, PageID) {
			base := NewMemDisk(pageSize)
			id := written(t, base, sevens, nines)
			return NewCowDisk(base), id
		},
		"CowDisk/overlay": func(t *testing.T) (Disk, PageID) {
			base := NewMemDisk(pageSize)
			id := written(t, base, sevens, sevens)
			d := NewCowDisk(base)
			if err := d.WritePage(id, nines); err != nil {
				t.Fatal(err)
			}
			if img, _ := base.ReadPage(id); !bytes.Equal(img, sevens) {
				t.Fatalf("the overlay write reached the base: %v", img)
			}
			return d, id
		},
	}
	for name, open := range disks {
		t.Run(name, func(t *testing.T) {
			d, id := open(t)
			img, err := d.ReadPage(id)
			if err != nil {
				t.Fatal(err)
			}
			if len(img) != pageSize {
				t.Fatalf("a %d-byte image of a %d-byte page", len(img), pageSize)
			}
			if !bytes.Equal(img[:half], nines) || !bytes.Equal(img[half:], make([]byte, pageSize-half)) {
				t.Errorf("image %v, want %d nines then zeros", img, half)
			}
		})
	}
}

func TestMemDiskBounds(t *testing.T) {
	d := NewMemDisk(32)
	if _, err := d.ReadPage(5); !errors.Is(err, ErrPageBounds) {
		t.Errorf("read: got %v, want ErrPageBounds", err)
	}
	buf := make([]byte, 32)
	if err := d.WritePage(0, buf); !errors.Is(err, ErrPageBounds) {
		t.Errorf("write: got %v, want ErrPageBounds", err)
	}
	id, _ := d.Allocate()
	if err := d.WritePage(id, make([]byte, 33)); err == nil {
		t.Error("oversized write must fail")
	}
}

func TestMemDiskDefaultPageSize(t *testing.T) {
	if got := NewMemDisk(0).PageSize(); got != DefaultPageSize {
		t.Errorf("default page size = %d", got)
	}
	if got := NewMemDisk(-7).PageSize(); got != DefaultPageSize {
		t.Errorf("negative page size = %d", got)
	}
}

func TestBufferPoolCountsPhysicalReads(t *testing.T) {
	d := NewMemDisk(32)
	id, _ := d.Allocate()
	_ = d.WritePage(id, []byte{42})
	p := NewBufferPool(d, 4)
	for i := 0; i < 5; i++ {
		data, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != 42 {
			t.Fatal("wrong data")
		}
	}
	s := p.Stats()
	if s.LogicalReads != 5 {
		t.Errorf("LogicalReads = %d, want 5", s.LogicalReads)
	}
	if s.PhysicalReads != 1 {
		t.Errorf("PhysicalReads = %d, want 1 (cache hit expected)", s.PhysicalReads)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	d := NewMemDisk(16)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := d.Allocate()
		_ = d.WritePage(id, []byte{byte(i)})
		ids = append(ids, id)
	}
	p := NewBufferPool(d, 2)
	_, _ = p.Get(ids[0])
	_, _ = p.Get(ids[1])
	_, _ = p.Get(ids[0]) // refresh 0; LRU order now [0,1]
	_, _ = p.Get(ids[2]) // evicts 1
	if p.Contains(ids[1]) {
		t.Error("page 1 should have been evicted")
	}
	if !p.Contains(ids[0]) || !p.Contains(ids[2]) {
		t.Error("pages 0 and 2 should be cached")
	}
	if p.Len() != 2 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestBufferPoolZeroCapacity(t *testing.T) {
	d := NewMemDisk(16)
	id, _ := d.Allocate()
	p := NewBufferPool(d, 0)
	for i := 0; i < 3; i++ {
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().PhysicalReads; got != 3 {
		t.Errorf("PhysicalReads = %d, want 3 with no caching", got)
	}
}

func TestBufferPoolWriteThrough(t *testing.T) {
	d := NewMemDisk(16)
	id, _ := d.Allocate()
	p := NewBufferPool(d, 2)
	_, _ = p.Get(id) // cache it
	if err := p.WriteThrough(id, []byte{7, 8}); err != nil {
		t.Fatal(err)
	}
	data, _ := p.Get(id)
	if data[0] != 7 || data[1] != 8 {
		t.Error("cached copy not refreshed")
	}
	// And the disk itself.
	if buf, _ := d.ReadPage(id); buf[0] != 7 {
		t.Error("disk copy not written")
	}
	if p.Stats().Writes != 1 {
		t.Errorf("Writes = %d", p.Stats().Writes)
	}
}

func TestBufferPoolClearAndReset(t *testing.T) {
	d := NewMemDisk(16)
	id, _ := d.Allocate()
	p := NewBufferPool(d, 2)
	_, _ = p.Get(id)
	p.ResetStats()
	if s := p.Stats(); s.LogicalReads != 0 || s.PhysicalReads != 0 {
		t.Error("ResetStats failed")
	}
	p.Clear()
	if p.Len() != 0 {
		t.Error("Clear failed")
	}
	_, _ = p.Get(id)
	if p.Stats().PhysicalReads != 1 {
		t.Error("after Clear, read must be physical")
	}
}

// Randomized workload: the pool must always return the same bytes the disk
// holds, regardless of eviction pattern.
func TestBufferPoolConsistencyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewMemDisk(8)
	const n = 20
	want := make(map[PageID]byte)
	for i := 0; i < n; i++ {
		id, _ := d.Allocate()
		b := byte(rng.Intn(256))
		_ = d.WritePage(id, []byte{b})
		want[id] = b
	}
	p := NewBufferPool(d, 3)
	for i := 0; i < 1000; i++ {
		id := PageID(rng.Intn(n))
		if rng.Intn(10) == 0 {
			b := byte(rng.Intn(256))
			if err := p.WriteThrough(id, []byte{b}); err != nil {
				t.Fatal(err)
			}
			want[id] = b
			continue
		}
		data, err := p.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if data[0] != want[id] {
			t.Fatalf("page %d: got %d, want %d", id, data[0], want[id])
		}
		if p.Len() > 3 {
			t.Fatal("pool exceeded capacity")
		}
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{LogicalReads: 10, PhysicalReads: 4, Writes: 1, Evictions: 3}
	b := Stats{LogicalReads: 3, PhysicalReads: 1, Writes: 1, Evictions: 2}
	diff := a.Sub(b)
	if diff.LogicalReads != 7 || diff.PhysicalReads != 3 || diff.Writes != 0 || diff.Evictions != 1 {
		t.Errorf("Sub = %+v", diff)
	}
	var acc Stats
	acc.Add(a)
	acc.Add(b)
	if acc.LogicalReads != 13 || acc.PhysicalReads != 5 || acc.Writes != 2 || acc.Evictions != 5 {
		t.Errorf("Add = %+v", acc)
	}
}

func TestStatsHitRatio(t *testing.T) {
	if got := (Stats{}).HitRatio(); got != 0 {
		t.Errorf("empty HitRatio = %v, want 0 (no division by zero)", got)
	}
	if got := (Stats{LogicalReads: 10, PhysicalReads: 4}).HitRatio(); got != 0.6 {
		t.Errorf("HitRatio = %v, want 0.6", got)
	}
	if got := (Stats{LogicalReads: 5, PhysicalReads: 5}).HitRatio(); got != 0 {
		t.Errorf("all-miss HitRatio = %v, want 0", got)
	}
	if got := (Stats{LogicalReads: 5}).HitRatio(); got != 1 {
		t.Errorf("all-hit HitRatio = %v, want 1", got)
	}
}

func TestBufferPoolCountsEvictions(t *testing.T) {
	d := NewMemDisk(16)
	var ids []PageID
	for i := 0; i < 4; i++ {
		id, _ := d.Allocate()
		ids = append(ids, id)
	}
	p := NewBufferPool(d, 2)
	for _, id := range ids { // 4 misses into a 2-page pool → 2 evictions
		if _, err := p.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Stats().Evictions; got != 2 {
		t.Errorf("Evictions = %d, want 2", got)
	}
	// Hits do not evict.
	if _, err := p.Get(ids[3]); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Evictions; got != 2 {
		t.Errorf("Evictions after hit = %d, want 2", got)
	}
}

func TestBufferPoolMetrics(t *testing.T) {
	d := NewMemDisk(16)
	var ids []PageID
	for i := 0; i < 3; i++ {
		id, _ := d.Allocate()
		ids = append(ids, id)
	}
	reg := obs.NewRegistry()
	p := NewBufferPool(d, 2)
	p.SetMetrics(NewPoolMetrics(reg, "objects"))
	_, _ = p.Get(ids[0]) // miss
	_, _ = p.Get(ids[0]) // hit
	_, _ = p.Get(ids[1]) // miss
	_, _ = p.Get(ids[2]) // miss + eviction
	_ = p.WriteThrough(ids[2], []byte{1})

	snap := reg.Snapshot()
	checks := map[string]int64{
		`stpq_bufferpool_hits_total{pool="objects"}`:      1,
		`stpq_bufferpool_misses_total{pool="objects"}`:    3,
		`stpq_bufferpool_evictions_total{pool="objects"}`: 1,
		`stpq_bufferpool_writes_total{pool="objects"}`:    1,
	}
	for name, want := range checks {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	// Metrics accumulate across ResetStats (lifetime vs. per-query).
	p.ResetStats()
	if got := reg.Snapshot().Counters[`stpq_bufferpool_misses_total{pool="objects"}`]; got != 3 {
		t.Errorf("metrics reset by ResetStats: %d", got)
	}
}

func TestCostModel(t *testing.T) {
	m := DefaultCostModel()
	if got := m.IOTime(10); got != 10*m.PerPage {
		t.Errorf("IOTime = %v", got)
	}
	custom := CostModel{PerPage: time.Millisecond}
	if got := custom.IOTime(3); got != 3*time.Millisecond {
		t.Errorf("custom IOTime = %v", got)
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	d := NewMemDisk(64)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 17; i++ {
		id, _ := d.Allocate()
		page := make([]byte, 64)
		rng.Read(page)
		if err := d.WritePage(id, page); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := DumpDisk(d, &buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMemDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.PageSize() != 64 || got.NumPages() != 17 {
		t.Fatalf("shape: %d pages of %d bytes", got.NumPages(), got.PageSize())
	}
	for i := 0; i < 17; i++ {
		a, _ := d.ReadPage(PageID(i))
		b, _ := got.ReadPage(PageID(i))
		if !bytes.Equal(a, b) {
			t.Fatalf("page %d differs", i)
		}
	}
}

func TestLoadMemDiskRejectsGarbage(t *testing.T) {
	if _, err := LoadMemDisk(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Fatal("expected bad-magic error")
	}
	if _, err := LoadMemDisk(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected short-read error")
	}
	// Truncated page section.
	d := NewMemDisk(32)
	_, _ = d.Allocate()
	var buf bytes.Buffer
	if err := DumpDisk(d, &buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := LoadMemDisk(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestAllocsBufferPoolGetHit(t *testing.T) {
	d := NewMemDisk(32)
	id, _ := d.Allocate()
	p := NewBufferPool(d, 8)
	if _, err := p.Get(id); err != nil { // prime the cache
		t.Fatal(err)
	}
	var acct Stats
	sess := p.Session(&acct)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := sess.Get(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Get hit path allocs/op = %v, want 0", allocs)
	}
	if acct.PhysicalReads != 0 {
		t.Errorf("hit path did physical reads: %+v", acct)
	}
}

func TestPoolSessionAccounting(t *testing.T) {
	d := NewMemDisk(16)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, _ := d.Allocate()
		ids = append(ids, id)
	}
	p := NewBufferPool(d, 4)
	var acct Stats
	sess := p.Session(&acct)
	for _, id := range ids {
		if _, err := sess.Get(id); err != nil {
			t.Fatal(err)
		}
	}
	if acct.LogicalReads != 8 || acct.PhysicalReads != 8 {
		t.Errorf("session acct = %+v, want 8 logical / 8 physical", acct)
	}
	life := p.Stats()
	if life.LogicalReads != 8 || life.PhysicalReads != 8 {
		t.Errorf("lifetime stats = %+v", life)
	}
	if acct.Evictions != life.Evictions {
		t.Errorf("session evictions %d != lifetime %d", acct.Evictions, life.Evictions)
	}
}
