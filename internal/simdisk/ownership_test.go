package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/vtime"
)

// readStable is ReadStableInto into a fresh buffer.
func readStable(d *Disk) func(int, IOKind) ([]byte, error) {
	return func(pg int, kind IOKind) ([]byte, error) {
		buf := make([]byte, d.PageSize())
		return buf, d.ReadStableInto(pg, kind, buf)
	}
}

// The disk owns its images: nothing a caller does to a slice it passed in
// or got back changes what the disk returns later, on any write or read
// path.
func TestNoSliceAliasesADiskImage(t *testing.T) {
	d := New("d", 8, 64, nil)
	want := func(pg int, fill byte, read func(int, IOKind) ([]byte, error)) {
		t.Helper()
		got, err := read(pg, IOData)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page(d, fill)) {
			t.Fatalf("page %d = % x..., want all %#x", pg, got[:4], fill)
		}
		for i := range got {
			got[i] = 0xEE // scribble on what the read handed out
		}
	}

	sync := page(d, 1)
	if err := d.WritePage(0, sync, IOData, true); err != nil {
		t.Fatal(err)
	}
	sync[0] = 0xFF
	want(0, 1, d.ReadPage)
	want(0, 1, readStable(d))
	want(0, 1, d.ReadPage) // the scribbles above reached nothing

	// A steady-state overwrite reuses the stable image in place; the
	// caller's slice still is not it.
	over := page(d, 2)
	if err := d.WritePage(0, over, IOData, true); err != nil {
		t.Fatal(err)
	}
	over[0] = 0xFF
	want(0, 2, readStable(d))

	async := page(d, 3)
	if err := d.WritePage(1, async, IOData, false); err != nil {
		t.Fatal(err)
	}
	async[0] = 0xFF
	want(1, 3, d.ReadPage)
	want(1, 0, readStable(d))
	async = page(d, 4) // second async write reuses the volatile image
	if err := d.WritePage(1, async, IOData, false); err != nil {
		t.Fatal(err)
	}
	async[0] = 0xFF
	if err := d.FlushPage(1, IOData); err != nil {
		t.Fatal(err)
	}
	want(1, 4, readStable(d))

	batch := []PageWrite{{Page: 2, Data: page(d, 5), Kind: IOData}, {Page: 3, Data: page(d, 6), Kind: IOData}}
	if _, err := d.WritePages(batch); err != nil {
		t.Fatal(err)
	}
	batch[0].Data[0], batch[1].Data[0] = 0xFF, 0xFF
	want(2, 5, d.ReadPage)
	want(3, 6, readStable(d))

	// The retired volatile buffer of page 1 is now spare: the next async
	// write takes it, and must not drag page 1's stable image along.
	if err := d.WritePage(4, page(d, 7), IOData, false); err != nil {
		t.Fatal(err)
	}
	want(1, 4, d.ReadPage)
	want(4, 7, d.ReadPage)

	dst := bytes.Repeat([]byte{9}, 64)
	if err := d.ReadPageInto(5, IOData, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, make([]byte, 64)) {
		t.Fatal("ReadPageInto of a never-written page left the caller's old bytes")
	}
	if err := d.ReadStableInto(0, IOData, dst[:10]); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short destination: err = %v, want ErrBadSize", err)
	}
}

// A batch torn by CrashAfterWrites(k) leaves pages k.. holding their old
// image byte for byte: the in-place overwrite happens only after the
// budget has let the page through.
func TestTornBatchLeavesOldImagesIntact(t *testing.T) {
	const n = 5
	for k := 0; k <= n; k++ {
		d := New("d", 16, 128, nil)
		var batch []PageWrite
		for p := 0; p < n; p++ {
			if err := d.WritePage(p, page(d, byte(0x10+p)), IOData, true); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, PageWrite{Page: p, Data: page(d, byte(0x80+p)), Kind: IOData})
		}
		d.CrashAfterWrites(k)
		written, err := d.WritePages(batch)
		if k < n && (!errors.Is(err, ErrCrashed) || written != k) {
			t.Fatalf("k=%d: torn batch = (%d, %v), want (%d, ErrCrashed)", k, written, err, k)
		}
		if k == n && (err != nil || written != n) {
			t.Fatalf("k=%d: whole batch = (%d, %v)", k, written, err)
		}
		d.Restart()
		for p := 0; p < n; p++ {
			fill := byte(0x10 + p)
			if p < k {
				fill = byte(0x80 + p)
			}
			got, err := readStable(d)(p, IOData)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, page(d, fill)) {
				t.Fatalf("k=%d: page %d = %#x..., want all %#x", k, p, got[0], fill)
			}
		}
	}
}

// A crash (even one followed by a restart) landing while a virtual-clock
// force is parked fails the write and leaves the old image.
func TestCrashDuringVirtualForceKeepsOldImage(t *testing.T) {
	for _, restart := range []bool{false, true} {
		clk := vtime.NewVirtual()
		d := New("d", 4, 32, nil)
		if err := d.WritePage(0, page(d, 1), IOData, true); err != nil {
			t.Fatal(err)
		}
		d.SetClock(clk)
		d.SetSyncDelay(10 * time.Millisecond)
		g := vtime.NewGroup(clk)
		var single, batch error
		g.Go(func() { single = d.WritePage(0, page(d, 2), IOData, true) })
		g.Go(func() {
			_, batch = d.WritePages([]PageWrite{{Page: 0, Data: page(d, 3), Kind: IOData}})
		})
		g.Go(func() {
			clk.Sleep(5 * time.Millisecond) // both forces are parked, one queued behind the other
			d.Crash()
			if restart {
				d.Restart()
			}
		})
		g.Wait()
		if !errors.Is(single, ErrCrashed) || !errors.Is(batch, ErrCrashed) {
			t.Fatalf("restart=%v: writes parked across the crash returned %v / %v, want ErrCrashed", restart, single, batch)
		}
		d.Restart()
		got, err := readStable(d)(0, IOData)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, page(d, 1)) {
			t.Fatalf("restart=%v: page 0 = %#x..., want the pre-crash image", restart, got[0])
		}
	}
}

// The steady-state write paths allocate nothing at all, on the real clock
// or parked in a virtual-clock force.
func TestSteadyStateWritesAllocateNothing(t *testing.T) {
	d := New("d", 16, 1024, nil)
	vd := New("vd", 16, 1024, nil)
	vd.SetClock(vtime.NewVirtual())
	vd.SetSyncDelay(26 * time.Millisecond)
	data := page(d, 7)
	batch := []PageWrite{{Page: 2, Data: data, Kind: IOData}, {Page: 3, Data: data, Kind: IOCoordLog}}
	flushBatch := []PageWrite{{Page: 1, Kind: IOData, Flush: true}, {Page: 2, Data: data, Kind: IOInode}}
	dst := make([]byte, d.PageSize())
	for name, op := range map[string]func(){
		"synchronous overwrite": func() {
			if err := d.WritePage(0, data, IOData, true); err != nil {
				t.Fatal(err)
			}
		},
		"synchronous overwrite, virtual force": func() {
			if err := vd.WritePage(0, data, IOData, true); err != nil {
				t.Fatal(err)
			}
		},
		"async write + FlushPage": func() {
			if err := d.WritePage(1, data, IOData, false); err != nil {
				t.Fatal(err)
			}
			if err := d.FlushPage(1, IOData); err != nil {
				t.Fatal(err)
			}
		},
		"async write + flushing WritePages, virtual": func() {
			if err := vd.WritePage(1, data, IOData, false); err != nil {
				t.Fatal(err)
			}
			if _, err := vd.WritePages(flushBatch); err != nil {
				t.Fatal(err)
			}
		},
		"WritePages overwrite": func() {
			if _, err := d.WritePages(batch); err != nil {
				t.Fatal(err)
			}
		},
		"ReadPageInto": func() {
			if err := d.ReadPageInto(0, IOData, dst); err != nil {
				t.Fatal(err)
			}
		},
	} {
		op() // the first call may create the page's image
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s: %v allocations per run, want 0", name, got)
		}
	}
}

// The spare list cannot grow the heap: it and the volatile layer together
// never hold more buffers than pages were ever dirty at once, through
// flushes, synchronous overwrites of dirty pages and crashes.
func TestSpareListBoundedByPeakDirtyPages(t *testing.T) {
	d := New("d", 32, 64, nil)
	data := page(d, 1)
	peak := 0
	check := func() {
		t.Helper()
		if n := d.DirtyPages(); n > peak {
			peak = n
		}
		d.mu.Lock()
		held := len(d.spare) + len(d.volatile)
		d.mu.Unlock()
		if held > peak {
			t.Fatalf("disk holds %d volatile+spare buffers, but at most %d pages were ever dirty at once", held, peak)
		}
	}
	for round := 0; round < 50; round++ {
		dirty := 1 + round%7
		for p := 0; p < dirty; p++ {
			if err := d.WritePage(p, data, IOData, false); err != nil {
				t.Fatal(err)
			}
			check()
		}
		switch round % 4 {
		case 0:
			if _, err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		case 1:
			for p := 0; p < dirty; p++ {
				if err := d.FlushPage(p, IOData); err != nil {
					t.Fatal(err)
				}
			}
		case 2:
			for p := 0; p < dirty; p++ {
				if err := d.WritePage(p, data, IOData, true); err != nil {
					t.Fatal(err)
				}
			}
		case 3:
			d.Crash()
			d.Restart()
		}
		check()
		if d.DirtyPages() != 0 {
			t.Fatalf("round %d left %d dirty pages", round, d.DirtyPages())
		}
	}
	if peak != 7 {
		t.Fatalf("peak dirty = %d, want 7", peak)
	}
}
