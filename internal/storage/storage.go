// Package storage simulates the disk layer underneath the stpq indexes:
// fixed-size pages, an in-memory or file-backed page store, and an LRU
// buffer pool with I/O accounting.
//
// The paper evaluates disk-resident indexes and reports query cost broken
// down into I/O time (dark bars) and CPU time (white bars). We reproduce
// the page-access counts exactly — every index node occupies one page and
// every node visit is a logical page read that either hits the buffer pool
// or costs a physical read — and convert physical reads to modeled I/O
// time with a configurable per-page cost (see CostModel).
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
	// ReadPage copies the page contents into buf, which must be at least
	// PageSize bytes long; a shorter buf is an error naming both lengths.
	ReadPage(id PageID, buf []byte) error
	// WritePage stores buf (at most PageSize bytes) as the page contents.
	WritePage(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Close releases any underlying resources.
	Close() error
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
func (d *MemDisk) ReadPage(id PageID, buf []byte) error {
	if int(id) >= len(d.pages) {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, len(d.pages))
	}
	if err := checkReadBuf(id, buf, d.pageSize); err != nil {
		return err
	}
	copy(buf, d.pages[id])
	return nil
}

// checkReadBuf rejects a read buffer shorter than a page, so that every
// Disk fails a short read alike instead of copying a prefix or panicking.
func checkReadBuf(id PageID, buf []byte, pageSize int) error {
	if len(buf) < pageSize {
		return fmt.Errorf("storage: read page %d: buffer of %d bytes, page of %d", id, len(buf), pageSize)
	}
	return nil
}

// WritePage implements Disk.
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

// Close implements Disk.
func (d *MemDisk) Close() error { return nil }

// FileDisk is a Disk backed by a single file, for runs whose indexes
// exceed memory or that want OS-level I/O behaviour.
type FileDisk struct {
	pageSize int
	f        *os.File
	n        int
}

// NewFileDisk creates (truncating) a file-backed disk at path.
func NewFileDisk(path string, pageSize int) (*FileDisk, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileDisk{pageSize: pageSize, f: f}, nil
}

// PageSize implements Disk.
func (d *FileDisk) PageSize() int { return d.pageSize }

// Allocate implements Disk.
func (d *FileDisk) Allocate() (PageID, error) {
	id := PageID(d.n)
	d.n++
	if err := d.f.Truncate(int64(d.n) * int64(d.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: allocate: %w", err)
	}
	return id, nil
}

// ReadPage implements Disk.
func (d *FileDisk) ReadPage(id PageID, buf []byte) error {
	if int(id) >= d.n {
		return fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, d.n)
	}
	if err := checkReadBuf(id, buf, d.pageSize); err != nil {
		return err
	}
	_, err := d.f.ReadAt(buf[:d.pageSize], int64(id)*int64(d.pageSize))
	if err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Disk.
func (d *FileDisk) WritePage(id PageID, buf []byte) error {
	if int(id) >= d.n {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, d.n)
	}
	if len(buf) > d.pageSize {
		return fmt.Errorf("storage: page overflow: %d > %d", len(buf), d.pageSize)
	}
	page := make([]byte, d.pageSize)
	copy(page, buf)
	if _, err := d.f.WriteAt(page, int64(id)*int64(d.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// NumPages implements Disk.
func (d *FileDisk) NumPages() int { return d.n }

// Close implements Disk.
func (d *FileDisk) Close() error { return d.f.Close() }

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

// DefaultCostModel returns the cost model used by the experiment harness.
func DefaultCostModel() CostModel { return CostModel{PerPage: 100 * time.Microsecond} }

// IOTime returns the modeled time for n physical page reads.
func (c CostModel) IOTime(n int64) time.Duration {
	return time.Duration(n) * c.PerPage
}
