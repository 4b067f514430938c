package fs

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/simdisk"
	"repro/internal/stats"
)

func testVolume(t *testing.T, pages, pageSize int) *Volume {
	t.Helper()
	st := stats.NewSet()
	d := simdisk.New("d0", pages, pageSize, st)
	v, err := Format("vol0", d, Options{NumInodes: 8, LogPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestFormatAndGeometry(t *testing.T) {
	v := testVolume(t, 64, 1024)
	g := v.Geometry()
	if g.LogStart != 9 || g.DataStart != 17 {
		t.Fatalf("geometry = %+v", g)
	}
	if v.FreePages() != 64-17 {
		t.Fatalf("FreePages = %d", v.FreePages())
	}
	if v.PageSize() != 1024 || v.Name() != "vol0" {
		t.Fatal("accessors")
	}
}

func TestFormatRejectsBadGeometry(t *testing.T) {
	d := simdisk.New("d", 8, 1024, nil)
	if _, err := Format("v", d, Options{NumInodes: 8, LogPages: 8}); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("tiny disk: %v", err)
	}
	d2 := simdisk.New("d", 64, 64, nil)
	if _, err := Format("v", d2, Options{}); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("tiny pages: %v", err)
	}
}

func TestLoadRejectsUnformatted(t *testing.T) {
	d := simdisk.New("d", 64, 1024, nil)
	if _, err := Load("v", d); !errors.Is(err, ErrBadVolume) {
		t.Fatalf("unformatted load: %v", err)
	}
}

// A format is two forced I/Os - the metadata region zeroed in one batch,
// then the superblock - still charged as one disk write per page.
func TestFormatCostsTwoForces(t *testing.T) {
	st := stats.NewSet()
	d := simdisk.New("d", 256, 1024, st)
	v, err := Format("v", d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Get(stats.ForcedIOs); got != 2 {
		t.Errorf("format forced %d I/Os, want 2", got)
	}
	if got, want := st.Get(stats.DiskWrites), int64(v.Geometry().DataStart); got != want || want != 129 {
		t.Errorf("format charged %d disk writes, want %d (129)", got, want)
	}
	if _, err := Load("v", d); err != nil {
		t.Fatalf("load after format: %v", err)
	}
}

// The superblock is the format's commit point: a crash anywhere before
// it lands - inside the zeroing batch or at the superblock write itself -
// leaves a disk Load rejects.
func TestTornFormatIsNotAVolume(t *testing.T) {
	for _, k := range []int{0, 1, 64, 128} {
		d := simdisk.New("d", 256, 1024, nil)
		d.CrashAfterWrites(k)
		if _, err := Format("v", d, Options{}); !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("crash after %d writes: format = %v, want ErrCrashed", k, err)
		}
		d.Restart()
		if _, err := Load("v", d); !errors.Is(err, ErrBadVolume) {
			t.Fatalf("crash after %d writes: load = %v, want ErrBadVolume", k, err)
		}
	}
}

func TestInodeRoundTrip(t *testing.T) {
	v := testVolume(t, 64, 1024)
	ino, err := v.AllocInode()
	if err != nil {
		t.Fatal(err)
	}
	node, err := v.ReadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	if node.Size != 0 || len(node.Pages) != 0 {
		t.Fatalf("fresh inode = %+v", node)
	}
	p1, _ := v.AllocPage()
	p2, _ := v.AllocPage()
	node.Size = 1500
	node.Pages = []int{p1, p2, -1, p2 + 1}
	oldVersion := node.Version
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size != 1500 || got.Version != oldVersion+1 {
		t.Fatalf("inode after write = %+v", got)
	}
	if len(got.Pages) != 4 || got.Pages[0] != p1 || got.Pages[2] != -1 {
		t.Fatalf("pointers = %v", got.Pages)
	}
}

func TestInodeWriteIsOneIO(t *testing.T) {
	v := testVolume(t, 64, 1024)
	ino, _ := v.AllocInode()
	node, _ := v.ReadInode(ino)
	st := v.Stats()
	before := st.Snapshot()
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	d := st.Snapshot().Sub(before)
	if d.Get(stats.DiskWrites) != 1 || d.Get(stats.InodeWrites) != 1 {
		t.Fatalf("inode write cost %v", d)
	}
}

func TestInodeExhaustionAndFree(t *testing.T) {
	v := testVolume(t, 64, 1024)
	var inos []int
	for {
		ino, err := v.AllocInode()
		if err != nil {
			if !errors.Is(err, ErrNoInodes) {
				t.Fatal(err)
			}
			break
		}
		inos = append(inos, ino)
	}
	if len(inos) != 8 {
		t.Fatalf("allocated %d inodes, want 8", len(inos))
	}
	if err := v.ReleaseInode(inos[3]); err != nil {
		t.Fatal(err)
	}
	if v.InodeAllocated(inos[3]) {
		t.Fatal("inode still allocated after free")
	}
	if _, err := v.ReadInode(inos[3]); !errors.Is(err, ErrFreeInode) {
		t.Fatalf("read freed inode: %v", err)
	}
	again, err := v.AllocInode()
	if err != nil || again != inos[3] {
		t.Fatalf("realloc = %d, %v; want %d", again, err, inos[3])
	}
}

// TestReleaseInodeFreesItsPages: releasing a file's inode frees its pages
// with it, in one forced write, and a reserved inode that never reached
// the disk is released in memory alone.
func TestReleaseInodeFreesItsPages(t *testing.T) {
	v := testVolume(t, 64, 1024)
	ino, _ := v.AllocInode()
	node, _ := v.ReadInode(ino)
	p, _ := v.AllocPage()
	node.Pages = []int{p}
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	before := v.Stats().Snapshot()
	if err := v.ReleaseInode(ino); err != nil {
		t.Fatal(err)
	}
	if n := v.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); n != 1 {
		t.Errorf("release cost %d forced I/Os, want 1", n)
	}
	if v.PageAllocated(p) || v.InodeAllocated(ino) {
		t.Errorf("after release: page allocated %v, inode allocated %v", v.PageAllocated(p), v.InodeAllocated(ino))
	}
	if _, err := v.ReadInode(ino); !errors.Is(err, ErrFreeInode) {
		t.Errorf("read of the released inode: %v", err)
	}
	reserved, err := v.ReserveInode()
	if err != nil {
		t.Fatal(err)
	}
	before = v.Stats().Snapshot()
	if err := v.ReleaseInode(reserved); err != nil || v.InodeAllocated(reserved) {
		t.Errorf("release of a reserved inode: %v, still allocated %v", err, v.InodeAllocated(reserved))
	}
	if n := v.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); n != 0 {
		t.Errorf("releasing a reserved inode cost %d forced I/Os, want 0", n)
	}
}

func TestPageAllocator(t *testing.T) {
	v := testVolume(t, 24, 1024) // 24-17 = 7 data pages
	seen := map[int]bool{}
	for i := 0; i < 7; i++ {
		p, err := v.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if seen[p] {
			t.Fatalf("page %d allocated twice", p)
		}
		if !v.PageAllocated(p) {
			t.Fatal("PageAllocated false for fresh page")
		}
		seen[p] = true
	}
	if _, err := v.AllocPage(); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("exhausted alloc: %v", err)
	}
	for p := range seen {
		if err := v.FreePage(p); err != nil {
			t.Fatal(err)
		}
	}
	if v.FreePages() != 7 {
		t.Fatalf("FreePages = %d, want 7", v.FreePages())
	}
	// Double free is an error.
	p, _ := v.AllocPage()
	if err := v.FreePage(p); err != nil {
		t.Fatal(err)
	}
	if err := v.FreePage(p); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: %v", err)
	}
	// Out-of-region pages are rejected.
	if err := v.FreePage(0); !errors.Is(err, ErrNotData) {
		t.Fatalf("free superblock: %v", err)
	}
	if _, err := v.ReadPage(3); !errors.Is(err, ErrNotData) {
		t.Fatalf("read inode page as data: %v", err)
	}
}

func TestReservePage(t *testing.T) {
	v := testVolume(t, 24, 1024)
	p, _ := v.AllocPage()
	if err := v.ReservePage(p); !errors.Is(err, ErrDoubleAlloc) {
		t.Fatalf("reserve of allocated page: %v", err)
	}
	_ = v.FreePage(p)
	if err := v.ReservePage(p); err != nil {
		t.Fatal(err)
	}
	if !v.PageAllocated(p) {
		t.Fatal("reserved page not allocated")
	}
}

func TestDataPageIO(t *testing.T) {
	v := testVolume(t, 64, 256)
	p, _ := v.AllocPage()
	data := bytes.Repeat([]byte{0x5A}, 256)
	if err := v.WritePage(p, data, false); err != nil {
		t.Fatal(err)
	}
	got, err := v.ReadPage(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read != written")
	}
	// Stable read still sees zeroes until flush.
	st := make([]byte, 256)
	if err := v.ReadStablePageInto(p, st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st, make([]byte, 256)) {
		t.Fatal("stable read saw unflushed data")
	}
	if err := v.FlushPage(p); err != nil {
		t.Fatal(err)
	}
	if err := v.ReadStablePageInto(p, st); err != nil || !bytes.Equal(st, data) {
		t.Fatal("stable read after flush")
	}
}

func TestLoadRebuildsAllocationFromInodes(t *testing.T) {
	st := stats.NewSet()
	d := simdisk.New("d0", 64, 1024, st)
	v, err := Format("vol0", d, Options{NumInodes: 8, LogPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	ino, _ := v.AllocInode()
	node, _ := v.ReadInode(ino)
	committed, _ := v.AllocPage()
	node.Pages = []int{committed}
	node.Size = 100
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	// A shadow page allocated but never referenced by a committed inode.
	shadow, _ := v.AllocPage()

	// Crash and remount.
	d.Crash()
	d.Restart()
	v2, err := Load("vol0", d)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.PageAllocated(committed) {
		t.Fatal("committed page lost from allocation map")
	}
	if v2.PageAllocated(shadow) {
		t.Fatal("orphan shadow page not reclaimed on load")
	}
	if !v2.InodeAllocated(ino) {
		t.Fatal("inode not rediscovered")
	}
	got, err := v2.ReadInode(ino)
	if err != nil || got.Size != 100 {
		t.Fatalf("inode after reload = %+v, %v", got, err)
	}
	if len(v2.Inodes()) != 1 {
		t.Fatalf("Inodes() = %v", v2.Inodes())
	}
}

func TestMaxPointersEnforced(t *testing.T) {
	v := testVolume(t, 64, 256)
	maxPtr := MaxPointers(256)
	ino, _ := v.AllocInode()
	node, _ := v.ReadInode(ino)
	node.Pages = make([]int, maxPtr+1)
	if err := v.WriteInode(node); !errors.Is(err, ErrFileTooBig) {
		t.Fatalf("oversize inode write: %v", err)
	}
	node.Pages = make([]int, maxPtr)
	for i := range node.Pages {
		node.Pages[i] = -1
	}
	if err := v.WriteInode(node); err != nil {
		t.Fatalf("max-size inode write: %v", err)
	}
}

func TestInodeCloneIsDeep(t *testing.T) {
	n := &Inode{Ino: 1, Size: 10, Pages: []int{1, 2, 3}}
	c := n.Clone()
	c.Pages[0] = 99
	if n.Pages[0] != 1 {
		t.Fatal("Clone shares page slice")
	}
}

// Property: any sequence of alloc/free keeps the allocator consistent -
// no double allocation, free count matches.
func TestAllocatorProperty(t *testing.T) {
	f := func(ops []bool) bool {
		v := testVolumeQuick()
		var held []int
		for _, alloc := range ops {
			if alloc {
				p, err := v.AllocPage()
				if err != nil {
					if !errors.Is(err, ErrNoSpace) {
						return false
					}
					continue
				}
				for _, h := range held {
					if h == p {
						return false // double allocation
					}
				}
				held = append(held, p)
			} else if len(held) > 0 {
				p := held[len(held)-1]
				held = held[:len(held)-1]
				if err := v.FreePage(p); err != nil {
					return false
				}
			}
		}
		total := v.Geometry().NumPages - v.Geometry().DataStart
		return v.FreePages() == total-len(held)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func testVolumeQuick() *Volume {
	d := simdisk.New("q", 32, 256, nil)
	v, err := Format("q", d, Options{NumInodes: 4, LogPages: 4})
	if err != nil {
		panic(err)
	}
	return v
}

func TestIndirectPointerSpill(t *testing.T) {
	// Files whose pointer table overflows the inode page spill into a
	// single-indirect page, written shadow-style before the inode.
	st := stats.NewSet()
	d := simdisk.New("big", 700, 256, st)
	v, err := Format("big", d, Options{NumInodes: 4, LogPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	inline := (256 - 32) / 4 // 56 inline pointers
	ino, _ := v.AllocInode()
	node, _ := v.ReadInode(ino)

	// Just under the inline capacity: no indirect page.
	node.Pages = make([]int, inline)
	for i := range node.Pages {
		p, err := v.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		node.Pages[i] = p
	}
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	if node.Indirect != -1 {
		t.Fatalf("inline-capacity inode allocated an indirect page: %d", node.Indirect)
	}

	// Grow past inline: indirect page appears; contents round-trip.
	for i := 0; i < 20; i++ {
		p, err := v.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		node.Pages = append(node.Pages, p)
	}
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	if node.Indirect < 0 {
		t.Fatal("overflow inode has no indirect page")
	}
	firstIndirect := node.Indirect
	got, err := v.ReadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pages) != inline+20 {
		t.Fatalf("pointer count = %d", len(got.Pages))
	}
	for i, p := range node.Pages {
		if got.Pages[i] != p {
			t.Fatalf("pointer %d = %d, want %d", i, got.Pages[i], p)
		}
	}

	// Rewriting allocates a FRESH indirect page (shadow-style) and frees
	// the replaced one: the pool stays steady.
	free := v.FreePages()
	if err := v.WriteInode(node); err != nil {
		t.Fatal(err)
	}
	if node.Indirect == firstIndirect {
		t.Fatal("indirect page overwritten in place (not crash-safe)")
	}
	if v.FreePages() != free {
		t.Fatalf("indirect rewrite leaked: %d -> %d", free, v.FreePages())
	}

	// Crash + reload: pointers intact, indirect page pinned by the scan.
	d.Crash()
	d.Restart()
	v2, err := Load("big", d)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := v2.ReadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Pages) != inline+20 || got2.Pages[inline+5] != node.Pages[inline+5] {
		t.Fatalf("pointers after reload = %d", len(got2.Pages))
	}
	if !v2.PageAllocated(got2.Indirect) {
		t.Fatal("indirect page not re-pinned by the load scan")
	}

	// Shrinking back under inline frees the indirect page.
	got2.Pages = got2.Pages[:inline-10]
	if err := v2.WriteInode(got2); err != nil {
		t.Fatal(err)
	}
	if got2.Indirect != -1 {
		t.Fatal("indirect page retained after shrink")
	}
}

func TestLargeFileThroughShadowLayer(t *testing.T) {
	// End to end: a file bigger than the inline pointer capacity written
	// and committed through the record commit mechanism.
	st := stats.NewSet()
	d := simdisk.New("big", 1200, 256, st)
	v, err := Format("big", d, Options{NumInodes: 4, LogPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if MaxPointers(256) <= (256-32)/4 {
		t.Fatal("indirect capacity missing")
	}
	_ = v
}

// TestRewriteFileIsOneForce: a whole-file rewrite - fresh pages, then the
// inode - is one forced I/O, frees the pages it replaced, and a crash
// anywhere inside its batch leaves the old contents whole after a reload,
// the fresh pages free again.
func TestRewriteFileIsOneForce(t *testing.T) {
	old, next := bytes.Repeat([]byte{1}, 1500), bytes.Repeat([]byte{2}, 1800)
	setup := func() (*Volume, *Inode) {
		v := testVolume(t, 64, 1024)
		ino, err := v.ReserveInode()
		if err != nil {
			t.Fatal(err)
		}
		node := &Inode{Ino: ino, Indirect: -1}
		before := v.Stats().Snapshot()
		if err := v.RewriteFile(node, old); err != nil {
			t.Fatal(err)
		}
		if n := v.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); n != 1 {
			t.Fatalf("a new two-page file cost %d forced I/Os, want 1", n)
		}
		return v, node
	}
	contents := func(v *Volume, node *Inode) []byte {
		var got []byte
		for _, p := range node.Pages {
			page, err := v.ReadPage(p)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, page...)
		}
		return got[:node.Size]
	}

	v, node := setup()
	replaced := slices.Clone(node.Pages)
	if err := v.RewriteFile(node, next); err != nil {
		t.Fatal(err)
	}
	if got := contents(v, node); !bytes.Equal(got, next) {
		t.Fatalf("rewritten file holds %d bytes, not the new contents", len(got))
	}
	for _, p := range replaced {
		if v.PageAllocated(p) {
			t.Errorf("replaced page %d still allocated", p)
		}
	}

	for k := 0; k < 3; k++ { // two data pages, then the inode
		v, node := setup()
		free := v.FreePages()
		v.Disk().CrashAfterWrites(k)
		if err := v.RewriteFile(node, next); !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("crash after %d writes: rewrite = %v, want ErrCrashed", k, err)
		}
		v.Disk().Restart()
		v2, err := Load("vol0", v.Disk())
		if err != nil {
			t.Fatal(err)
		}
		got, err := v2.ReadInode(node.Ino)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(contents(v2, got), old) || v2.FreePages() != free {
			t.Errorf("crash after %d writes: reloaded file is not the old one whole (free pages %d, want %d)", k, v2.FreePages(), free)
		}
	}
}
