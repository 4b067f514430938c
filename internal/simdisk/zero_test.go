package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// zeroBatch is a nil-page batch over pages [from, from+n).
func zeroBatch(from, n int, kind IOKind) []PageWrite {
	batch := make([]PageWrite, n)
	for i := range batch {
		batch[i] = PageWrite{Page: from + i, Kind: kind}
	}
	return batch
}

// A nil page in a batch costs one force for the batch and one write of
// its kind, drops the page's stable image (and any volatile one), and
// reads back as zeros.
func TestNilPageZeroesAndKeepsNoImage(t *testing.T) {
	st := stats.NewSet()
	d := New("d", 16, 128, st)
	for p := 1; p <= 3; p++ {
		if err := d.WritePage(p, page(d, byte(p)), IOData, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WritePage(2, page(d, 0x22), IOData, false); err != nil {
		t.Fatal(err)
	}
	before := st.Snapshot()
	batch := append(zeroBatch(1, 2, IOMeta), PageWrite{Page: 3, Kind: IOData})
	if n, err := d.WritePages(batch); err != nil || n != 3 {
		t.Fatalf("nil batch = (%d, %v), want (3, nil)", n, err)
	}
	delta := st.Snapshot().Sub(before)
	for c, want := range map[stats.Counter]int64{stats.ForcedIOs: 1, stats.DiskWrites: 3, stats.DataPageWrites: 1} {
		if got := delta.Get(c); got != want {
			t.Errorf("%v charged %d, want %d", c, got, want)
		}
	}
	if got := d.StableWritesOfKind(IOMeta); got != 2 {
		t.Errorf("meta stable writes = %d, want 2", got)
	}
	if d.DirtyPages() != 0 {
		t.Error("a zeroed page kept its volatile image")
	}
	for p := 1; p <= 3; p++ {
		if d.stable[p] != nil {
			t.Errorf("page %d kept a stable image after zeroing", p)
		}
		got, err := d.ReadPage(p, IOMeta)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, make([]byte, 128)) {
			t.Errorf("page %d reads %#x..., want zeros", p, got[0])
		}
	}
	// A zeroed page takes data again like a page never written.
	if err := d.WritePage(1, page(d, 0x77), IOData, true); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ReadPage(1, IOData); !bytes.Equal(got, page(d, 0x77)) {
		t.Fatalf("rewritten page reads %#x...", got[0])
	}
}

// CrashAfterWrites tears a nil batch as a prefix: the first k pages are
// zero, the rest keep their old images.
func TestNilBatchTearsAsPrefix(t *testing.T) {
	const n = 4
	for k := 0; k <= n; k++ {
		d := New("d", 16, 128, nil)
		for p := 0; p < n; p++ {
			if err := d.WritePage(p, page(d, byte(0x10+p)), IOMeta, true); err != nil {
				t.Fatal(err)
			}
		}
		d.CrashAfterWrites(k)
		written, err := d.WritePages(zeroBatch(0, n, IOMeta))
		if k < n && (!errors.Is(err, ErrCrashed) || written != k) {
			t.Fatalf("k=%d: torn nil batch = (%d, %v), want (%d, ErrCrashed)", k, written, err, k)
		}
		if k == n && (err != nil || written != n) {
			t.Fatalf("k=%d: whole nil batch = (%d, %v)", k, written, err)
		}
		d.Restart()
		for p := 0; p < n; p++ {
			want := page(d, byte(0x10+p))
			if p < k {
				want = make([]byte, 128)
			}
			if got, err := readStable(d)(p, IOMeta); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("k=%d: page %d = %#x... (%v), want all %#x", k, p, got[0], err, want[0])
			}
		}
	}
}

// A crash landing while a nil batch is parked in its force fails the
// whole batch: no page is zeroed.
func TestCrashDuringNilForceFailsBatch(t *testing.T) {
	clk := vtime.NewVirtual()
	d := New("d", 8, 32, nil)
	for p := 0; p < 3; p++ {
		if err := d.WritePage(p, page(d, byte(1+p)), IOMeta, true); err != nil {
			t.Fatal(err)
		}
	}
	d.SetClock(clk)
	d.SetSyncDelay(10 * time.Millisecond)
	g := vtime.NewGroup(clk)
	var written int
	var err error
	g.Go(func() { written, err = d.WritePages(zeroBatch(0, 3, IOMeta)) })
	g.Go(func() {
		clk.Sleep(5 * time.Millisecond)
		d.Crash()
		d.Restart()
	})
	g.Wait()
	if !errors.Is(err, ErrCrashed) || written != 0 {
		t.Fatalf("nil batch parked across a crash = (%d, %v), want (0, ErrCrashed)", written, err)
	}
	for p := 0; p < 3; p++ {
		if got, _ := readStable(d)(p, IOMeta); !bytes.Equal(got, page(d, byte(1+p))) {
			t.Fatalf("page %d = %#x..., want its pre-crash image", p, got[0])
		}
	}
}
