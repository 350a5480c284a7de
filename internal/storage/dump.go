package storage

import (
	"encoding/binary"
	"fmt"
	"io"
)

// dumpMagic guards page-dump files against foreign input.
var dumpMagic = [8]byte{'s', 't', 'p', 'q', 'p', 'g', '0', '1'}

// DumpDisk serializes all pages of a disk to w: a small header (magic,
// page size, page count) followed by the raw page images. It is the
// persistence format for built indexes.
func DumpDisk(d Disk, w io.Writer) error {
	if _, err := w.Write(dumpMagic[:]); err != nil {
		return fmt.Errorf("storage: dump header: %w", err)
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:8], uint64(d.PageSize()))
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(d.NumPages()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("storage: dump header: %w", err)
	}
	for i := 0; i < d.NumPages(); i++ {
		img, err := d.ReadPage(PageID(i))
		if err != nil {
			return err
		}
		if _, err := w.Write(img); err != nil {
			return fmt.Errorf("storage: dump page %d: %w", i, err)
		}
	}
	return nil
}

// LoadMemDisk reads a page dump produced by DumpDisk into a fresh
// in-memory disk.
func LoadMemDisk(r io.Reader) (*MemDisk, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("storage: load header: %w", err)
	}
	if magic != dumpMagic {
		return nil, fmt.Errorf("storage: not a page dump (bad magic %q)", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("storage: load header: %w", err)
	}
	pageSize := int(binary.LittleEndian.Uint64(hdr[0:8]))
	numPages := int(binary.LittleEndian.Uint64(hdr[8:16]))
	if pageSize <= 0 || pageSize > 1<<26 {
		return nil, fmt.Errorf("storage: implausible page size %d", pageSize)
	}
	if numPages < 0 {
		return nil, fmt.Errorf("storage: negative page count")
	}
	d := NewMemDisk(pageSize)
	buf := make([]byte, pageSize)
	for i := 0; i < numPages; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("storage: load page %d: %w", i, err)
		}
		id, err := d.Allocate()
		if err != nil {
			return nil, err
		}
		if err := d.WritePage(id, buf); err != nil {
			return nil, err
		}
	}
	return d, nil
}
