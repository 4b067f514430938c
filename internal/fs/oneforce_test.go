package fs

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// flushes returns a flushing page write for each page.
func flushes(pages ...int) []simdisk.PageWrite {
	var out []simdisk.PageWrite
	for _, p := range pages {
		out = append(out, simdisk.PageWrite{Page: p, Kind: simdisk.IOData, Flush: true})
	}
	return out
}

// dirtyPages allocates n data pages and writes each asynchronously.
func dirtyPages(t *testing.T, v *Volume, n int, fill byte) []int {
	t.Helper()
	var pages []int
	for range n {
		p, err := v.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if err := v.WritePage(p, bytes.Repeat([]byte{fill}, v.PageSize()), false); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	return pages
}

// WriteInodeAfter lands the data pages, the indirect page and the inode
// in one force.  A crash at every point of the batch leaves the old
// inode, and the reload frees every page the batch would have referenced.
func TestWriteInodeAfterIsOneForce(t *testing.T) {
	const ps = 256
	inline := inlinePointers(ps)
	for k := 0; ; k++ {
		d := simdisk.New("big", 200, ps, stats.NewSet())
		v, err := Format("big", d, Options{NumInodes: 4, LogPages: 4})
		if err != nil {
			t.Fatal(err)
		}
		ino, err := v.AllocInode()
		if err != nil {
			t.Fatal(err)
		}
		free := v.FreePages()
		node, err := v.ReadInode(ino)
		if err != nil {
			t.Fatal(err)
		}
		written := dirtyPages(t, v, 2, 7)
		node.Pages = append(node.Pages, written...)
		for len(node.Pages) <= inline {
			p, err := v.AllocPage()
			if err != nil {
				t.Fatal(err)
			}
			node.Pages = append(node.Pages, p)
		}
		before := v.Stats().Snapshot()
		d.CrashAfterWrites(k)
		err = v.WriteInodeAfter(flushes(written...), node)
		if !d.Crashed() {
			if err != nil {
				t.Fatal(err)
			}
			s := v.Stats().Snapshot().Sub(before)
			if k != 4 || s.Get(stats.ForcedIOs) != 1 || s.Get(stats.DataPageWrites) != 3 || s.Get(stats.InodeWrites) != 1 {
				t.Fatalf("the batch landed with a budget of %d writes in %d forces, %d data and %d inode writes; want 4, 1, 3 and 1",
					k, s.Get(stats.ForcedIOs), s.Get(stats.DataPageWrites), s.Get(stats.InodeWrites))
			}
			got, err := v.ReadInode(ino)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pages) != inline+1 || got.Indirect < 0 {
				t.Fatalf("the inode holds %d pointers and indirect page %d", len(got.Pages), got.Indirect)
			}
			return
		}
		if !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("crash after %d writes: WriteInodeAfter = %v, want ErrCrashed", k, err)
		}
		d.Restart()
		v2, err := Load("big", d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := v2.ReadInode(ino)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pages) != 0 || v2.FreePages() != free {
			t.Errorf("crash after %d writes: the reloaded inode holds %d pointers with %d pages free, want 0 and %d", k, len(got.Pages), v2.FreePages(), free)
		}
	}
}

// A Put that carries pages forces them and the record in one write, the
// pages first: a crash anywhere before the header leaves no record.
func TestPutCarriesItsPagesInOneForce(t *testing.T) {
	payload := bytes.Repeat([]byte{'p'}, 1500) // a header and a continuation page
	for k := 0; ; k++ {
		v := logVolume(t, 1024, 8)
		pages := dirtyPages(t, v, 2, 9)
		before := v.Stats().Snapshot()
		v.Disk().CrashAfterWrites(k)
		err := v.Log().Put("prep", KindPrepare, payload, pages...)
		if !v.Disk().Crashed() {
			if err != nil {
				t.Fatal(err)
			}
			s := v.Stats().Snapshot().Sub(before)
			if k != 4 || s.Get(stats.ForcedIOs) != 1 || s.Get(stats.DataPageWrites) != 2 || s.Get(stats.PrepareLogWrites) != 2 {
				t.Fatalf("the Put landed with a budget of %d writes in %d forces, %d data and %d prepare writes; want 4, 1, 2 and 2",
					k, s.Get(stats.ForcedIOs), s.Get(stats.DataPageWrites), s.Get(stats.PrepareLogWrites))
			}
			for _, p := range pages {
				got := make([]byte, v.PageSize())
				if err := v.ReadStablePageInto(p, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, bytes.Repeat([]byte{9}, v.PageSize())) {
					t.Fatalf("page %d is not durable after the Put", p)
				}
			}
			return
		}
		if !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("crash after %d writes: Put = %v, want ErrCrashed", k, err)
		}
		v.Invalidate()
		v.Disk().Restart()
		v2, err := Load("vol0", v.Disk())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v2.Log().Get("prep"); !errors.Is(err, ErrLogNotFound) {
			t.Errorf("crash after %d writes: the record reads back (%v) though its force was torn", k, err)
		}
	}
}

// In a group-commit batch each record's pages go just ahead of it, so a
// tear reports a record durable only when its pages are durable too.
func TestFlushBatchCarriesEachRecordsPages(t *testing.T) {
	v := logVolume(t, 1024, 16)
	l := v.Log()
	pages := dirtyPages(t, v, 2, 5)
	a, b := mkPutReq("a", []byte("rec-a")), mkPutReq("b", []byte("rec-b"))
	a.flush, b.flush = pages[:1], pages[1:]
	before := v.Stats().Snapshot()
	v.Disk().CrashAfterWrites(3) // page a, record a, page b
	l.flushBatch([]*logReq{a, b}, &flushState{clk: vtime.Real()})
	if err := <-a.done; err != nil {
		t.Errorf("record a, whose page and header landed: %v", err)
	}
	if err := <-b.done; !errors.Is(err, simdisk.ErrCrashed) {
		t.Errorf("record b, torn after its page: %v, want ErrCrashed", err)
	}
	if got := v.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); got != 1 {
		t.Errorf("the batch forced %d times, want 1", got)
	}
}
