package fs

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes f
// allocates per call (by any goroutine), after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

const guardPage = 4096 // big enough that one page-sized allocation per run cannot hide

// virtualLogVolume is logVolume on a virtual clock at the VAX sync delay,
// as the ledger runs it.
func virtualLogVolume(t *testing.T, logPages int) (*vtime.Virtual, *Volume) {
	t.Helper()
	clk := vtime.NewVirtual()
	d := simdisk.New("d0", 16+logPages+16, guardPage, stats.NewSet())
	d.SetClock(clk)
	d.SetSyncDelay(26 * time.Millisecond)
	v, err := Format("vol0", d, Options{NumInodes: 4, LogPages: logPages})
	if err != nil {
		t.Fatal(err)
	}
	v.SetClock(clk)
	return clk, v
}

// A steady-state Put + Delete allocates no page image: not for the header,
// a continuation page, the zeroing write or the disk's copy of any of
// them, forced one by one or through the group-commit daemon.
func TestLogPutDeleteAllocatesNoPageImage(t *testing.T) {
	small := make([]byte, 64)
	spill := bytes.Repeat([]byte{7}, 2*guardPage+100) // header + 2 continuation pages
	for _, group := range []bool{false, true} {
		clk, v := virtualLogVolume(t, 16)
		l := v.Log()
		if group {
			l.StartGroupCommit(GroupCommitConfig{MaxDelay: 26 * time.Millisecond, Clock: clk})
		}
		for name, payload := range map[string][]byte{"one page": small, "three pages": spill} {
			got := bytesPerRun(50, func() {
				if err := l.Put("k", KindPrepare, payload); err != nil {
					t.Fatal(err)
				}
				if err := l.Delete("k"); err != nil {
					t.Fatal(err)
				}
			})
			if got >= guardPage/4 {
				t.Errorf("group=%v, %s: Put+Delete allocates %.0f B per run, want no page-sized (%d B) allocation", group, name, got, guardPage)
			}
		}
		l.StopGroupCommit()
		rec := bytes.Repeat([]byte{9}, guardPage+1)
		if err := l.Put("kept", KindCoordinator, rec); err != nil {
			t.Fatal(err)
		}
		if err := l.Put("other", KindCoordinator, small); err != nil { // reuses kept's images
			t.Fatal(err)
		}
		if got, err := l.Get("kept"); err != nil || !bytes.Equal(got.Payload, rec) {
			t.Fatalf("group=%v: record written from reused images reads back wrong (err %v)", group, err)
		}
	}
}

// The store's page images are bounded by the largest single operation,
// and the free list stays sorted and exact without being re-sorted.
func TestLogStoreBuffersAndFreeListBounded(t *testing.T) {
	v := logVolume(t, 256, 24)
	l := v.Log()
	check := func(maxBufs int) {
		t.Helper()
		l.mu.Lock()
		defer l.mu.Unlock()
		if len(l.bufs) > maxBufs {
			t.Fatalf("store holds %d page images, largest operation so far needed %d", len(l.bufs), maxBufs)
		}
		if !sort.IntsAreSorted(l.free) {
			t.Fatalf("free list out of order: %v", l.free)
		}
		inUse := 0
		for _, pages := range l.slots {
			inUse += len(pages)
		}
		if len(l.free)+inUse != v.geo.LogPages {
			t.Fatalf("%d free + %d in use != %d log pages", len(l.free), inUse, v.geo.LogPages)
		}
	}
	big := make([]byte, 3*256) // 1 header + 3 continuation pages
	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("k%d", i%5)
		payload := big[:(i%4)*200]
		if err := l.Put(key, KindPrepare, payload); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := l.Delete(fmt.Sprintf("k%d", (i+2)%5)); err != nil {
				t.Fatal(err)
			}
		}
		check(4)
	}
	batch := make([]*logReq, 6)
	for i := range batch {
		batch[i] = mkPutReq(fmt.Sprintf("b%d", i), make([]byte, 16))
	}
	l.flushBatch(batch, vtime.Real())
	check(6)
	for i := 0; i < 40; i++ {
		if err := l.Put("after", KindPrepare, big[:100]); err != nil {
			t.Fatal(err)
		}
		check(6)
	}
}

// WriteInode encodes into the one image the volume keeps.
func TestWriteInodeReusesItsImage(t *testing.T) {
	_, v := virtualLogVolume(t, 8)
	ino, err := v.AllocInode()
	if err != nil {
		t.Fatal(err)
	}
	node, err := v.ReadInode(ino)
	if err != nil {
		t.Fatal(err)
	}
	got := bytesPerRun(50, func() {
		if err := v.WriteInode(node); err != nil {
			t.Fatal(err)
		}
	})
	if got >= guardPage/4 {
		t.Errorf("WriteInode allocates %.0f B per run, want no page-sized (%d B) allocation", got, guardPage)
	}
	back, err := v.ReadInode(ino)
	if err != nil || back.Version != node.Version {
		t.Fatalf("inode read back version %v (err %v), want %d", back, err, node.Version)
	}
}

// A log writer that queued behind another's disk force before the volume
// was fenced must not write once it gets the lock: by then the disk may
// carry a reloaded log, and this store's slot map describes a dead one
// (the "fs: log record corrupt" of EXPERIMENTS.md E25).
func TestLogWriterQueuedAcrossInvalidateIsFenced(t *testing.T) {
	clk, v := virtualLogVolume(t, 16)
	l := v.Log()
	var first, queued error
	g := vtime.NewGroup(clk)
	g.Go(func() { first = l.Put("a", KindCoordinator, []byte("holds the lock across its force")) })
	g.Go(func() {
		clk.Sleep(time.Millisecond) // queue on the store lock behind the force
		queued = l.Put("b", KindCoordinator, []byte("queued before the fence"))
	})
	clk.Sleep(2 * time.Millisecond)
	v.Invalidate()
	g.Wait()
	if first != nil {
		t.Fatalf("the write already under way when the volume was fenced: %v", first)
	}
	if !errors.Is(queued, ErrStaleVolume) {
		t.Fatalf("the write queued across the fence returned %v, want ErrStaleVolume", queued)
	}
}
