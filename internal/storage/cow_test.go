package storage

import (
	"bytes"
	"testing"
)

func TestCowDiskIsolation(t *testing.T) {
	base := NewMemDisk(64)
	for i := 0; i < 4; i++ {
		id, err := base.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := base.WritePage(id, bytes.Repeat([]byte{byte(i + 1)}, 64)); err != nil {
			t.Fatal(err)
		}
	}

	cow := NewCowDisk(base)
	if cow.NumPages() != 4 {
		t.Fatalf("NumPages = %d, want 4", cow.NumPages())
	}

	// Overlay write must not touch the base.
	if err := cow.WritePage(1, bytes.Repeat([]byte{0xAA}, 64)); err != nil {
		t.Fatal(err)
	}
	buf, err := base.ReadPage(1)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("base page 1 mutated: %x", buf[0])
	}
	if buf, err = cow.ReadPage(1); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAA {
		t.Fatalf("cow page 1 = %x, want aa", buf[0])
	}

	// Untouched pages fall through.
	if buf, err = cow.ReadPage(2); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 3 {
		t.Fatalf("cow page 2 = %x, want 03", buf[0])
	}

	// Allocation extends past the base without touching it.
	id, err := cow.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 {
		t.Fatalf("Allocate = %d, want 4", id)
	}
	if base.NumPages() != 4 {
		t.Fatalf("base grew to %d pages", base.NumPages())
	}
	if err := cow.WritePage(4, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	if buf, err = cow.ReadPage(4); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xBB || buf[1] != 0 {
		t.Fatalf("short write not zero-padded: %x %x", buf[0], buf[1])
	}
	if cow.OverlayPages() != 2 {
		t.Fatalf("OverlayPages = %d, want 2", cow.OverlayPages())
	}

	// Bounds are enforced.
	if _, err := cow.ReadPage(99); err == nil {
		t.Fatal("read past end succeeded")
	}
	if err := cow.WritePage(99, buf); err == nil {
		t.Fatal("write past end succeeded")
	}
}

func TestCowDiskChainFlattening(t *testing.T) {
	base := NewMemDisk(32)
	id, _ := base.Allocate()
	_ = base.WritePage(id, []byte{1})

	gen1 := NewCowDisk(base)
	if err := gen1.WritePage(0, []byte{2}); err != nil {
		t.Fatal(err)
	}
	if _, err := gen1.Allocate(); err != nil {
		t.Fatal(err)
	}

	gen2 := NewCowDisk(gen1)
	if gen2.base != Disk(base) {
		t.Fatal("gen2 did not flatten to the root disk")
	}
	if gen2.NumPages() != 2 {
		t.Fatalf("gen2 NumPages = %d, want 2", gen2.NumPages())
	}
	buf, err := gen2.ReadPage(0)
	if err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("gen2 page 0 = %x, want 02 (inherited overlay)", buf[0])
	}

	// Writes to gen2 are invisible to gen1.
	if err := gen2.WritePage(0, []byte{3}); err != nil {
		t.Fatal(err)
	}
	if buf, err = gen1.ReadPage(0); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 2 {
		t.Fatalf("gen1 page 0 = %x, want 02", buf[0])
	}
}

func TestCowDiskDumpRoundTrip(t *testing.T) {
	base := NewMemDisk(32)
	for i := 0; i < 3; i++ {
		id, _ := base.Allocate()
		_ = base.WritePage(id, []byte{byte(10 + i)})
	}
	cow := NewCowDisk(base)
	_ = cow.WritePage(1, []byte{0xEE})
	id, _ := cow.Allocate()
	_ = cow.WritePage(id, []byte{0xFF})

	var buf bytes.Buffer
	if err := DumpDisk(cow, &buf); err != nil {
		t.Fatal(err)
	}
	mem, err := LoadMemDisk(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if mem.NumPages() != 4 {
		t.Fatalf("round trip pages = %d, want 4", mem.NumPages())
	}
	want := []byte{10, 0xEE, 12, 0xFF}
	for i, w := range want {
		pg, err := mem.ReadPage(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if pg[0] != w {
			t.Fatalf("page %d = %x, want %x", i, pg[0], w)
		}
	}
}
