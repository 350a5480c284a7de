// Package storage simulates the disk layer underneath the stpq indexes:
// fixed-size pages, an in-memory page store with a copy-on-write view for
// merges, and an LRU buffer pool with I/O accounting.
//
// The paper evaluates disk-resident indexes and reports query cost broken
// down into I/O time (dark bars) and CPU time (white bars). We reproduce
// the page-access counts exactly — every index node occupies one page and
// every node visit is a logical page read that either hits the buffer pool
// or costs a physical read — and convert physical reads to modeled I/O
// time with a configurable per-page cost (see CostModel). The pages
// themselves live in memory, so a physical read copies nothing: the pool
// keeps a reference to the disk's own image of the page.
package storage

import (
	"errors"
	"fmt"
	"os"
	"time"
)

// DefaultPageSize is the page size used throughout the experiments, the
// classic 4 KiB disk page.
const DefaultPageSize = 4096

// MaxPageSize is the largest page a page dump may hold (LoadMemDisk).
const MaxPageSize = 1 << 26

// PageID identifies a page within a Disk. The zero PageID is valid; use
// InvalidPage as the sentinel for "no page".
type PageID uint32

// InvalidPage is the sentinel PageID meaning "no page".
const InvalidPage = PageID(^uint32(0))

// ErrPageBounds is returned when reading or writing past the end of a disk.
var ErrPageBounds = errors.New("storage: page id out of range")

// Disk is a flat array of fixed-size pages.
type Disk interface {
	// PageSize returns the size in bytes of every page.
	PageSize() int
	// Allocate reserves a fresh zeroed page and returns its id.
	Allocate() (PageID, error)
	// ReadPage returns the disk's stored image of the page, PageSize
	// bytes, without copying it. The caller must not modify it. Only a
	// WritePage of that page changes what it reads, and writes happen only
	// on a tree no query reads yet or on a merge clone's CowDisk overlay.
	ReadPage(id PageID) ([]byte, error)
	// WritePage stores a copy of buf (at most PageSize bytes) as the page
	// contents; the caller may reuse buf.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
}

// MemDisk is an in-memory Disk. It is the default backing store for
// experiments: physical reads are still counted by the buffer pool, so the
// paper's I/O metric is preserved while keeping runs fast and hermetic.
type MemDisk struct {
	pageSize int
	pages    [][]byte
}

// NewMemDisk returns an empty in-memory disk with the given page size.
func NewMemDisk(pageSize int) *MemDisk {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemDisk{pageSize: pageSize}
}

// PageSize implements Disk.
func (d *MemDisk) PageSize() int { return d.pageSize }

// Allocate implements Disk.
func (d *MemDisk) Allocate() (PageID, error) {
	d.pages = append(d.pages, make([]byte, d.pageSize))
	return PageID(len(d.pages) - 1), nil
}

// ReadPage implements Disk.
func (d *MemDisk) ReadPage(id PageID) ([]byte, error) {
	if int(id) >= len(d.pages) {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, len(d.pages))
	}
	return d.pages[id], nil
}

// WritePage implements Disk. It writes the stored image in place, so a
// reader holding the image sees the new bytes.
func (d *MemDisk) WritePage(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, len(d.pages))
	}
	if len(buf) > d.pageSize {
		return fmt.Errorf("storage: page overflow: %d > %d", len(buf), d.pageSize)
	}
	p := d.pages[id]
	copy(p, buf)
	for i := len(buf); i < len(p); i++ {
		p[i] = 0
	}
	return nil
}

// NumPages implements Disk.
func (d *MemDisk) NumPages() int { return len(d.pages) }

// SyncDir fsyncs a directory so the creates, renames and unlinks inside it
// are durable. Whatever writes files that recovery starts from — WAL
// segments, page dumps, manifests — calls it after the files themselves are
// synced.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Stats accumulates page-access counters. Logical reads are buffer-pool
// requests; physical reads are pool misses that went to the Disk — the
// quantity the paper plots as I/O cost. Evictions count pages dropped by
// the LRU policy to make room.
type Stats struct {
	LogicalReads  int64
	PhysicalReads int64
	Writes        int64
	Evictions     int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.LogicalReads += other.LogicalReads
	s.PhysicalReads += other.PhysicalReads
	s.Writes += other.Writes
	s.Evictions += other.Evictions
}

// Sub returns s − other, for before/after snapshots around a query.
func (s Stats) Sub(other Stats) Stats {
	return Stats{
		LogicalReads:  s.LogicalReads - other.LogicalReads,
		PhysicalReads: s.PhysicalReads - other.PhysicalReads,
		Writes:        s.Writes - other.Writes,
		Evictions:     s.Evictions - other.Evictions,
	}
}

// HitRatio returns the buffer-pool hit ratio: the fraction of logical
// reads served from the cache, (logical − physical) / logical. It returns
// 0 when no logical reads have been recorded.
func (s Stats) HitRatio() float64 {
	if s.LogicalReads == 0 {
		return 0
	}
	return float64(s.LogicalReads-s.PhysicalReads) / float64(s.LogicalReads)
}

// CostModel converts physical page reads into modeled I/O time.
type CostModel struct {
	// PerPage is the modeled latency of one physical page read. The
	// default 0.1 ms approximates a 2015-era disk with OS caching; the
	// paper's absolute numbers used a slower device, but only the
	// conversion constant differs.
	PerPage time.Duration
}

// DefaultCostModel returns the cost model every engine reports Stats.IOTime with.
func DefaultCostModel() CostModel { return CostModel{PerPage: 100 * time.Microsecond} }

// IOTime returns the modeled time for n physical page reads.
func (c CostModel) IOTime(n int64) time.Duration {
	return time.Duration(n) * c.PerPage
}
