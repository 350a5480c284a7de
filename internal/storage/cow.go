package storage

// cow.go implements a copy-on-write view over a Disk. CowDisk is the
// mechanism behind partial index merges: a merge opens the live tree's
// pages through a CowDisk and mutates it with ordinary Insert/Delete
// calls, and only the touched pages land in the private overlay — the
// base disk is never written, so snapshots pinned to the old generation
// keep reading the original bytes. Merge cost is therefore proportional
// to the pages the delta touches, not to the size of the base index.
//
// Chains stay flat: wrapping a CowDisk copies the parent's overlay map
// (cheap — it only holds pages written since the last full rebuild) and
// shares the parent's base, so reads never traverse more than one
// overlay level no matter how many merge generations have run.

import (
	"fmt"
	"sync"
)

// CowDisk is a Disk whose writes go to a private page overlay while
// reads fall through to an immutable base for untouched pages.
type CowDisk struct {
	mu      sync.RWMutex
	base    Disk
	overlay map[PageID][]byte
	n       int // total pages: base pages plus overlay-only allocations
}

// NewCowDisk returns a copy-on-write view over base. The base must not
// be written by anyone else while the view is alive; concurrent reads of
// the base are fine. If base is itself a CowDisk the new view copies its
// overlay and shares the underlying root disk, keeping the read path one
// level deep.
func NewCowDisk(base Disk) *CowDisk {
	if parent, ok := base.(*CowDisk); ok {
		parent.mu.RLock()
		overlay := make(map[PageID][]byte, len(parent.overlay))
		for id, pg := range parent.overlay {
			cp := make([]byte, len(pg))
			copy(cp, pg)
			overlay[id] = cp
		}
		n := parent.n
		root := parent.base
		parent.mu.RUnlock()
		return &CowDisk{base: root, overlay: overlay, n: n}
	}
	return &CowDisk{base: base, overlay: make(map[PageID][]byte), n: base.NumPages()}
}

// PageSize implements Disk.
func (d *CowDisk) PageSize() int { return d.base.PageSize() }

// Allocate implements Disk. Fresh pages live only in the overlay.
func (d *CowDisk) Allocate() (PageID, error) {
	d.mu.Lock()
	id := PageID(d.n)
	d.n++
	d.overlay[id] = make([]byte, d.base.PageSize())
	d.mu.Unlock()
	return id, nil
}

// ReadPage implements Disk: the overlay's image of a page written through
// this view, else the base's.
func (d *CowDisk) ReadPage(id PageID) ([]byte, error) {
	d.mu.RLock()
	pg, ok := d.overlay[id]
	n := d.n
	d.mu.RUnlock()
	if int(id) >= n {
		return nil, fmt.Errorf("%w: read %d of %d", ErrPageBounds, id, n)
	}
	if ok {
		return pg, nil
	}
	return d.base.ReadPage(id)
}

// WritePage implements Disk. The first write of a base page gives it an
// image of its own in the overlay; the base's image is never written, and a
// reader holding it keeps the old bytes. Later writes rewrite the overlay
// image in place.
func (d *CowDisk) WritePage(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= d.n {
		return fmt.Errorf("%w: write %d of %d", ErrPageBounds, id, d.n)
	}
	if len(buf) > d.base.PageSize() {
		return fmt.Errorf("storage: page overflow: %d > %d", len(buf), d.base.PageSize())
	}
	pg, ok := d.overlay[id]
	if !ok {
		pg = make([]byte, d.base.PageSize())
		d.overlay[id] = pg
	}
	copy(pg, buf)
	for i := len(buf); i < len(pg); i++ {
		pg[i] = 0
	}
	return nil
}

// NumPages implements Disk.
func (d *CowDisk) NumPages() int {
	d.mu.RLock()
	n := d.n
	d.mu.RUnlock()
	return n
}

// OverlayPages returns how many pages have been copied or allocated in
// the private overlay — the write amplification of the merges that ran
// through this view.
func (d *CowDisk) OverlayPages() int {
	d.mu.RLock()
	n := len(d.overlay)
	d.mu.RUnlock()
	return n
}
