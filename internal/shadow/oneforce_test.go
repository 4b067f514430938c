package shadow

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/fs"
	"repro/internal/simdisk"
	"repro/internal/stats"
)

// The one-force commit (CommitWith, oneForce): txn:A's sole page, the
// page it shares with txn:B merged onto the previous version, and the
// inode land in one forced batch.  A crash at every point of the batch
// leaves the file as it was, with every page the commit wrote free again
// after the reload; a batch that lands commits A's records and keeps B's
// working bytes.
func TestOneForceCommitCrashAtEveryPoint(t *testing.T) {
	old := bytes.Repeat([]byte{'o'}, 2*testPageSize)
	for k := 0; ; k++ {
		v, f := newFile(t)
		if _, err := f.WriteAt("setup", old, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit("setup"); err != nil {
			t.Fatal(err)
		}
		free := v.FreePages()
		for _, w := range []struct {
			owner Owner
			off   int64
			data  string
		}{{"txn:A", 0, "AAAA"}, {"txn:B", testPageSize, "BBBB"}, {"txn:A", testPageSize + 64, "aaaa"}} {
			if _, err := f.WriteAt(w.owner, []byte(w.data), w.off); err != nil {
				t.Fatal(err)
			}
		}
		before := v.Stats().Snapshot()
		v.Disk().CrashAfterWrites(k)
		err := f.CommitWith("txn:A", true)
		if !v.Disk().Crashed() {
			if err != nil {
				t.Fatal(err)
			}
			d := v.Stats().Snapshot().Sub(before)
			if k != 3 || d.Get(stats.ForcedIOs) != 1 || d.Get(stats.DataPageWrites) != 2 || d.Get(stats.InodeWrites) != 1 {
				t.Fatalf("the commit landed with a budget of %d writes in %d forces, %d data and %d inode writes; want 3, 1, 2 and 1",
					k, d.Get(stats.ForcedIOs), d.Get(stats.DataPageWrites), d.Get(stats.InodeWrites))
			}
			want := bytes.Clone(old)
			copy(want, "AAAA")
			copy(want[testPageSize:], "BBBB")
			copy(want[testPageSize+64:], "aaaa")
			if got := readAll(t, f, 0, len(want)); !bytes.Equal(got, want) {
				t.Fatalf("after the commit the file reads %q", got)
			}
			return
		}
		if !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("crash after %d writes: commit = %v, want ErrCrashed", k, err)
		}
		v.Invalidate()
		v.Disk().Restart()
		v2, err := fs.Load("vol0", v.Disk())
		if err != nil {
			t.Fatal(err)
		}
		g, err := Open(v2, f.Ino())
		if err != nil {
			t.Fatal(err)
		}
		if got := readAll(t, g, 0, len(old)); !bytes.Equal(got, old) || v2.FreePages() != free {
			t.Errorf("crash after %d writes: the reloaded file is not the old one whole (free pages %d, want %d)", k, v2.FreePages(), free)
		}
	}
}
