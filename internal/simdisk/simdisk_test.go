package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func page(d *Disk, fill byte) []byte {
	b := make([]byte, d.PageSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestReadBackSyncWrite(t *testing.T) {
	st := stats.NewSet()
	d := New("d0", 16, 1024, st)
	want := page(d, 0xAB)
	if err := d.WritePage(3, want, IOData, true); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadPage(3, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("read back != written")
	}
	if st.Get(stats.DiskWrites) != 1 || st.Get(stats.DataPageWrites) != 1 {
		t.Fatalf("write accounting: %v", st.Snapshot())
	}
	if st.Get(stats.DiskReads) != 1 {
		t.Fatalf("read accounting: %v", st.Snapshot())
	}
}

func TestUnwrittenPageReadsZero(t *testing.T) {
	d := New("d0", 4, 512, nil)
	got, err := d.ReadPage(0, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, 512)) {
		t.Fatal("fresh page not zero")
	}
}

func TestAsyncWriteCrashLoses(t *testing.T) {
	d := New("d0", 8, 256, nil)
	stable := page(d, 1)
	if err := d.WritePage(2, stable, IOData, true); err != nil {
		t.Fatal(err)
	}
	volatile := page(d, 2)
	if err := d.WritePage(2, volatile, IOData, false); err != nil {
		t.Fatal(err)
	}
	// Before the crash, reads see the volatile version.
	got, err := d.ReadPage(2, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, volatile) {
		t.Fatal("read did not see volatile write")
	}
	d.Crash()
	if !d.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if _, err := d.ReadPage(2, IOData); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read on crashed disk: err = %v", err)
	}
	d.Restart()
	got, err = d.ReadPage(2, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, stable) {
		t.Fatal("crash did not discard volatile write")
	}
}

func TestFlushPageSurvivesCrash(t *testing.T) {
	st := stats.NewSet()
	d := New("d0", 8, 256, st)
	v := page(d, 7)
	if err := d.WritePage(5, v, IOData, false); err != nil {
		t.Fatal(err)
	}
	if st.Get(stats.DiskWrites) != 0 {
		t.Fatal("async write charged an I/O before flush")
	}
	if err := d.FlushPage(5, IOData); err != nil {
		t.Fatal(err)
	}
	if st.Get(stats.DiskWrites) != 1 {
		t.Fatalf("flush charged %d writes, want 1", st.Get(stats.DiskWrites))
	}
	// Flushing a clean page charges nothing.
	if err := d.FlushPage(5, IOData); err != nil {
		t.Fatal(err)
	}
	if st.Get(stats.DiskWrites) != 1 {
		t.Fatal("clean flush charged an I/O")
	}
	d.Crash()
	d.Restart()
	got, err := d.ReadPage(5, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v) {
		t.Fatal("flushed page lost by crash")
	}
}

func TestFlushAll(t *testing.T) {
	d := New("d0", 8, 128, nil)
	for i := 0; i < 3; i++ {
		if err := d.WritePage(i, page(d, byte(i+1)), IOData, false); err != nil {
			t.Fatal(err)
		}
	}
	if d.DirtyPages() != 3 {
		t.Fatalf("DirtyPages = %d, want 3", d.DirtyPages())
	}
	n, err := d.Flush()
	if err != nil || n != 3 {
		t.Fatalf("Flush = %d, %v; want 3, nil", n, err)
	}
	if d.DirtyPages() != 0 {
		t.Fatal("dirty pages remain after Flush")
	}
}

func TestReadStableIgnoresVolatile(t *testing.T) {
	d := New("d0", 8, 128, nil)
	old := page(d, 0x11)
	if err := d.WritePage(0, old, IOData, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(0, page(d, 0x22), IOData, false); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.PageSize())
	if err := d.ReadStableInto(0, IOData, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("ReadStableInto returned volatile contents")
	}
}

func TestIOKindAccounting(t *testing.T) {
	st := stats.NewSet()
	d := New("d0", 16, 64, st)
	kinds := []struct {
		kind IOKind
		ctr  stats.Counter
	}{
		{IOInode, stats.InodeWrites},
		{IOCoordLog, stats.CoordLogWrites},
		{IOPrepareLog, stats.PrepareLogWrites},
		{IOData, stats.DataPageWrites},
		{IOWAL, stats.WALWrites},
	}
	for i, k := range kinds {
		if err := d.WritePage(i, page(d, 1), k.kind, true); err != nil {
			t.Fatal(err)
		}
		if st.Get(k.ctr) != 1 {
			t.Fatalf("kind %v: counter %v = %d, want 1", k.kind, k.ctr, st.Get(k.ctr))
		}
	}
	// IOMeta counts only the aggregate.
	if err := d.WritePage(9, page(d, 1), IOMeta, true); err != nil {
		t.Fatal(err)
	}
	if st.Get(stats.DiskWrites) != int64(len(kinds))+1 {
		t.Fatalf("aggregate DiskWrites = %d", st.Get(stats.DiskWrites))
	}
}

func TestErrors(t *testing.T) {
	d := New("d0", 4, 128, nil)
	if _, err := d.ReadPage(4, IOData); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read page 4: %v", err)
	}
	if _, err := d.ReadPage(-1, IOData); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read page -1: %v", err)
	}
	if err := d.WritePage(0, make([]byte, 127), IOData, true); !errors.Is(err, ErrBadSize) {
		t.Fatalf("short write: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero pages did not panic")
		}
	}()
	New("bad", 0, 128, nil)
}

func TestWriteIsolatedFromCallerBuffer(t *testing.T) {
	d := New("d0", 4, 8, nil)
	buf := page(d, 5)
	if err := d.WritePage(0, buf, IOData, true); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate after write; disk must hold its own copy
	got, err := d.ReadPage(0, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatal("disk aliased caller buffer")
	}
	got[1] = 77 // mutate returned buffer; disk must be unaffected
	again, err := d.ReadPage(0, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if again[1] != 5 {
		t.Fatal("read returned aliased buffer")
	}
}

// Property: for any sequence of sync writes, the last write to each page
// wins, and a crash+restart preserves exactly the sync-written state.
func TestLastWriteWinsProperty(t *testing.T) {
	const pages = 8
	f := func(writes []struct {
		Page uint8
		Fill byte
	}) bool {
		d := New("p", pages, 16, nil)
		want := map[int]byte{}
		for _, w := range writes {
			p := int(w.Page) % pages
			b := make([]byte, 16)
			for i := range b {
				b[i] = w.Fill
			}
			if err := d.WritePage(p, b, IOData, true); err != nil {
				return false
			}
			want[p] = w.Fill
		}
		d.Crash()
		d.Restart()
		for p, fill := range want {
			got, err := d.ReadPage(p, IOData)
			if err != nil || got[0] != fill {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIOKindString(t *testing.T) {
	for _, k := range []IOKind{IOData, IOInode, IOCoordLog, IOPrepareLog, IOWAL, IOMeta} {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
	}
	if IOKind(99).String() != "iokind(99)" {
		t.Fatal("unknown kind String")
	}
}

func TestWritePagesVectored(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 16, 128, st)
	writes := []PageWrite{
		{Page: 1, Data: page(d, 0xAA), Kind: IOPrepareLog},
		{Page: 2, Data: page(d, 0xBB), Kind: IOPrepareLog},
		{Page: 3, Data: page(d, 0xCC), Kind: IOCoordLog},
	}
	n, err := d.WritePages(writes)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(writes) {
		t.Fatalf("WritePages wrote %d, want %d", n, len(writes))
	}
	for _, w := range writes {
		got, err := d.ReadPage(w.Page, IOMeta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w.Data) {
			t.Fatalf("page %d not written", w.Page)
		}
	}
	if got := st.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("batch charged %d forced I/Os, want 1", got)
	}
	if got := st.Get(stats.DiskWrites); got != 3 {
		t.Fatalf("batch charged %d disk writes, want 3", got)
	}
	if got := st.Get(stats.PrepareLogWrites); got != 2 {
		t.Fatalf("prepare log writes = %d, want 2", got)
	}
	if got := st.Get(stats.CoordLogWrites); got != 1 {
		t.Fatalf("coord log writes = %d, want 1", got)
	}
	if n, err := d.WritePages(nil); err != nil || n != 0 {
		t.Fatalf("empty batch = (%d, %v)", n, err)
	}
	if got := st.Get(stats.ForcedIOs); got != 1 {
		t.Fatal("empty batch must not charge a forced I/O")
	}
}

func TestWritePagesValidatesUpFront(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 8, 128, st)
	_, err := d.WritePages([]PageWrite{
		{Page: 1, Data: page(d, 1), Kind: IOData},
		{Page: 99, Data: page(d, 2), Kind: IOData},
	})
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
	// Validation happens before any page lands: page 1 must be untouched.
	got, _ := d.ReadPage(1, IOMeta)
	if !bytes.Equal(got, make([]byte, 128)) {
		t.Fatal("partial batch landed despite validation error")
	}
	if st.Get(stats.DiskWrites) != 0 {
		t.Fatal("failed batch charged disk writes")
	}
}

func TestForcedIOAccounting(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 8, 128, st)
	if err := d.WritePage(1, page(d, 1), IOData, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(2, page(d, 2), IOData, false); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("forced I/Os after sync+async = %d, want 1", got)
	}
	if err := d.FlushPage(2, IOData); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(stats.ForcedIOs); got != 2 {
		t.Fatalf("forced I/Os after flush = %d, want 2", got)
	}
	// Flushing a clean page charges nothing.
	if err := d.FlushPage(2, IOData); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(stats.ForcedIOs); got != 2 {
		t.Fatal("clean FlushPage charged a forced I/O")
	}
	// A bulk Flush of N dirty pages is one force, N writes.
	for p := 3; p <= 5; p++ {
		if err := d.WritePage(p, page(d, byte(p)), IOData, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := st.Get(stats.ForcedIOs); got != 3 {
		t.Fatalf("forced I/Os after bulk flush = %d, want 3", got)
	}
}

func TestCrashAfterWritesTearsBatch(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 16, 128, st)
	d.CrashAfterWrites(2)
	n, err := d.WritePages([]PageWrite{
		{Page: 1, Data: page(d, 0x11), Kind: IOData},
		{Page: 2, Data: page(d, 0x22), Kind: IOData},
		{Page: 3, Data: page(d, 0x33), Kind: IOData},
	})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("torn batch err = %v, want ErrCrashed", err)
	}
	if n != 2 {
		t.Fatalf("torn batch reported %d durable pages, want 2", n)
	}
	if !d.Crashed() {
		t.Fatal("disk should be crashed after the fault fires")
	}
	d.Restart()
	for p, want := range map[int]byte{1: 0x11, 2: 0x22, 3: 0} {
		got, err := d.ReadPage(p, IOMeta)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("page %d first byte = %#x, want %#x", p, got[0], want)
		}
	}
	// Restart disarmed the fault: writes succeed again.
	if err := d.WritePage(3, page(d, 0x44), IOData, true); err != nil {
		t.Fatal(err)
	}
}

func TestStableWriteCounters(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 16, 128, st)
	if d.StableWrites() != 0 {
		t.Fatal("fresh disk has nonzero write count")
	}
	if err := d.WritePage(1, page(d, 1), IOData, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(2, page(d, 2), IOInode, true); err != nil {
		t.Fatal(err)
	}
	if err := d.WritePage(3, page(d, 3), IOData, false); err != nil {
		t.Fatal(err)
	}
	if got := d.StableWrites(); got != 2 {
		t.Fatalf("StableWrites = %d, want 2 (async write must not count until flushed)", got)
	}
	if err := d.FlushPage(3, IOData); err != nil {
		t.Fatal(err)
	}
	if got := d.StableWrites(); got != 3 {
		t.Fatalf("StableWrites = %d, want 3", got)
	}
	if got := d.StableWritesOfKind(IOData); got != 2 {
		t.Fatalf("StableWritesOfKind(IOData) = %d, want 2", got)
	}
	if got := d.StableWritesOfKind(IOInode); got != 1 {
		t.Fatalf("StableWritesOfKind(IOInode) = %d, want 1", got)
	}
	// The counter is monotone across crash/restart.
	d.Crash()
	d.Restart()
	if got := d.StableWrites(); got != 3 {
		t.Fatalf("StableWrites after crash/restart = %d, want 3", got)
	}
}

func TestCrashAfterWritesOfKind(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 16, 128, st)
	// Budget of 1 inode write: data writes pass freely, the first inode
	// write lands, the second trips the fault.
	d.CrashAfterWritesOfKind(IOInode, 1)
	for p := 1; p <= 3; p++ {
		if err := d.WritePage(p, page(d, byte(p)), IOData, true); err != nil {
			t.Fatalf("data write %d: %v", p, err)
		}
	}
	if err := d.WritePage(4, page(d, 0x44), IOInode, true); err != nil {
		t.Fatalf("first inode write: %v", err)
	}
	if err := d.WritePage(5, page(d, 0x55), IOData, true); err != nil {
		t.Fatalf("data write after inode: %v", err)
	}
	err := d.WritePage(6, page(d, 0x66), IOInode, true)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("second inode write = %v, want ErrCrashed", err)
	}
	if !d.Crashed() {
		t.Fatal("disk should be crashed")
	}
	d.Restart()
	// Restart disarms the kind filter along with the budget.
	if err := d.WritePage(6, page(d, 0x66), IOInode, true); err != nil {
		t.Fatal(err)
	}
	// Re-arming with plain CrashAfterWrites clears a previous kind filter.
	d.CrashAfterWritesOfKind(IOInode, 5)
	d.CrashAfterWrites(0)
	if err := d.WritePage(7, page(d, 0x77), IOData, true); !errors.Is(err, ErrCrashed) {
		t.Fatalf("plain re-arm should hit any kind, got %v", err)
	}
}
