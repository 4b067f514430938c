package shadow

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fs"
	"repro/internal/simdisk"
	"repro/internal/stats"
)

const testPageSize = 256

func newFile(t *testing.T) (*fs.Volume, *File) {
	t.Helper()
	st := stats.NewSet()
	d := simdisk.New("d0", 96, testPageSize, st)
	v, err := fs.Format("vol0", d, fs.Options{NumInodes: 4, LogPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	ino, err := v.AllocInode()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Open(v, ino)
	if err != nil {
		t.Fatal(err)
	}
	return v, f
}

func readAll(t *testing.T, f *File, off int64, n int) []byte {
	t.Helper()
	buf := make([]byte, n)
	got, err := f.ReadAt(buf, off)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:got]
}

// reopen simulates a crash (dropping all volatile state) and reopens the
// file from stable storage only.
func reopen(t *testing.T, v *fs.Volume, f *File) *File {
	t.Helper()
	v.Disk().Crash()
	v.Disk().Restart()
	nf, err := Open(v, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	return nf
}

func TestWriteReadRoundTrip(t *testing.T) {
	_, f := newFile(t)
	data := []byte("hello, locus")
	if n, err := f.WriteAt("proc:1", data, 10); err != nil || n != len(data) {
		t.Fatalf("WriteAt = %d, %v", n, err)
	}
	if f.Size() != 10+int64(len(data)) {
		t.Fatalf("Size = %d", f.Size())
	}
	got := readAll(t, f, 10, len(data))
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q", got)
	}
	// The hole before offset 10 reads as zeroes.
	hole := readAll(t, f, 0, 10)
	if !bytes.Equal(hole, make([]byte, 10)) {
		t.Fatalf("hole = %v", hole)
	}
	// Reads beyond EOF truncate.
	if n, err := f.ReadAt(make([]byte, 100), f.Size()); err != nil || n != 0 {
		t.Fatalf("read past EOF = %d, %v", n, err)
	}
}

func TestMultiPageWrite(t *testing.T) {
	_, f := newFile(t)
	data := bytes.Repeat([]byte{0xAB}, testPageSize*3+17)
	if _, err := f.WriteAt("proc:1", data, int64(testPageSize)-5); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, f, int64(testPageSize)-5, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("multi-page read mismatch")
	}
}

func TestSoleOwnerCommitFigure4a(t *testing.T) {
	v, f := newFile(t)
	data := []byte("record-one")
	if _, err := f.WriteAt("txn:1", data, 0); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	before := st.Snapshot()
	if err := f.Commit("txn:1"); err != nil {
		t.Fatal(err)
	}
	d := st.Snapshot().Sub(before)
	// Fast path: flush of one shadow page + one inode write; no page
	// reads, no differencing.
	if d.Get(stats.DataPageWrites) != 1 || d.Get(stats.InodeWrites) != 1 {
		t.Fatalf("commit I/O = %v", d)
	}
	if d.Get(stats.PageDiffs) != 0 || d.Get(stats.DiskReads) != 0 {
		t.Fatalf("fast-path commit did differencing: %v", d)
	}
	if d.Get(stats.PageCommits) != 1 {
		t.Fatalf("PageCommits = %d", d.Get(stats.PageCommits))
	}
	// Data survives a crash.
	nf := reopen(t, v, f)
	if got := readAll(t, nf, 0, len(data)); !bytes.Equal(got, data) {
		t.Fatalf("after crash: %q", got)
	}
	if nf.CommittedSize() != int64(len(data)) {
		t.Fatalf("committed size = %d", nf.CommittedSize())
	}
}

func TestCommitFreesReplacedPage(t *testing.T) {
	v, f := newFile(t)
	if _, err := f.WriteAt("txn:1", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("txn:1"); err != nil {
		t.Fatal(err)
	}
	free1 := v.FreePages()
	// Overwrite the same page and commit again: the old physical page
	// must be freed, keeping the pool steady.
	if _, err := f.WriteAt("txn:2", []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("txn:2"); err != nil {
		t.Fatal(err)
	}
	if v.FreePages() != free1 {
		t.Fatalf("free pages %d -> %d: replaced page leaked", free1, v.FreePages())
	}
	if got := readAll(t, f, 0, 2); !bytes.Equal(got, []byte("v2")) {
		t.Fatalf("contents %q", got)
	}
}

func TestOverlapCommitFigure4b(t *testing.T) {
	v, f := newFile(t)
	// Establish a committed base version.
	base := bytes.Repeat([]byte{'.'}, 100)
	if _, err := f.WriteAt("setup", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}

	// Two owners modify disjoint records on the same page.
	if _, err := f.WriteAt("txn:A", []byte("AAAA"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:B", []byte("BBBB"), 50); err != nil {
		t.Fatal(err)
	}

	st := v.Stats()
	before := st.Snapshot()
	if err := f.Commit("txn:A"); err != nil {
		t.Fatal(err)
	}
	d := st.Snapshot().Sub(before)
	if d.Get(stats.PageDiffs) != 1 {
		t.Fatalf("differencing path not taken: %v", d)
	}
	if d.Get(stats.DiskReads) != 1 {
		t.Fatalf("expected exactly one re-read of the previous version: %v", d)
	}
	if d.Get(stats.BytesCopied) != 4 {
		t.Fatalf("BytesCopied = %d, want 4", d.Get(stats.BytesCopied))
	}

	// The committed (stable) image must contain A's record, the base
	// elsewhere, and crucially NOT B's uncommitted record.
	committed := func() []byte {
		node := f.Inode()
		phys := node.Pages[0]
		buf := make([]byte, v.PageSize())
		if err := v.ReadStablePageInto(phys, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}()
	if !bytes.Equal(committed[10:14], []byte("AAAA")) {
		t.Fatal("A's record missing from committed page")
	}
	if bytes.Contains(committed, []byte("BBBB")) {
		t.Fatal("differencing published B's uncommitted bytes")
	}
	if committed[20] != '.' {
		t.Fatal("base bytes lost")
	}

	// B's record is still visible in the working state.
	if got := readAll(t, f, 50, 4); !bytes.Equal(got, []byte("BBBB")) {
		t.Fatalf("working read of B = %q", got)
	}

	// Now B commits: sole remaining owner, direct path.
	before = st.Snapshot()
	if err := f.Commit("txn:B"); err != nil {
		t.Fatal(err)
	}
	d = st.Snapshot().Sub(before)
	if d.Get(stats.PageDiffs) != 0 {
		t.Fatalf("second commit should take the fast path: %v", d)
	}
	nf := reopen(t, v, f)
	final := readAll(t, nf, 0, 100)
	if !bytes.Equal(final[10:14], []byte("AAAA")) || !bytes.Equal(final[50:54], []byte("BBBB")) {
		t.Fatalf("final = %q", final)
	}
}

func TestAbortSoleOwnerLeavesNoTrace(t *testing.T) {
	v, f := newFile(t)
	if _, err := f.WriteAt("setup", []byte("stable"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	free := v.FreePages()

	if _, err := f.WriteAt("txn:X", []byte("JUNKJUNK"), 0); err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	before := st.Snapshot()
	if err := f.Abort("txn:X"); err != nil {
		t.Fatal(err)
	}
	d := st.Snapshot().Sub(before)
	if d.Get(stats.PageAborts) != 1 {
		t.Fatalf("PageAborts = %d", d.Get(stats.PageAborts))
	}
	// Abort of a sole owner is pure discard: no disk writes.
	if d.Get(stats.DiskWrites) != 0 {
		t.Fatalf("abort wrote to disk: %v", d)
	}
	if got := readAll(t, f, 0, 6); !bytes.Equal(got, []byte("stable")) {
		t.Fatalf("after abort: %q", got)
	}
	if v.FreePages() != free {
		t.Fatalf("abort leaked shadow pages: %d -> %d", free, v.FreePages())
	}
	if f.Size() != 6 {
		t.Fatalf("size after abort = %d", f.Size())
	}
}

func TestAbortWithCoOwnerRestoresRanges(t *testing.T) {
	v, f := newFile(t)
	base := bytes.Repeat([]byte{'.'}, 100)
	if _, err := f.WriteAt("setup", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:A", []byte("AAAA"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:B", []byte("BBBB"), 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Abort("txn:A"); err != nil {
		t.Fatal(err)
	}
	// A's bytes reverted to base; B's still present.
	got := readAll(t, f, 0, 100)
	if !bytes.Equal(got[10:14], []byte("....")) {
		t.Fatalf("A not reverted: %q", got[10:14])
	}
	if !bytes.Equal(got[50:54], []byte("BBBB")) {
		t.Fatalf("B lost: %q", got[50:54])
	}
	if f.HasMods("txn:A") {
		t.Fatal("A still has mods after abort")
	}
	if !f.HasMods("txn:B") {
		t.Fatal("B lost mods")
	}
	// B commits; final state has only B's record.
	if err := f.Commit("txn:B"); err != nil {
		t.Fatal(err)
	}
	nf := reopen(t, v, f)
	final := readAll(t, nf, 0, 100)
	if bytes.Contains(final, []byte("AAAA")) {
		t.Fatal("aborted bytes resurrected")
	}
	if !bytes.Equal(final[50:54], []byte("BBBB")) {
		t.Fatal("committed bytes lost")
	}
}

func TestWriteConflictAcrossOwners(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("txn:A", []byte("AAAA"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:B", []byte("BB"), 12); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping write: %v", err)
	}
	// Adjacent (non-overlapping) writes are fine.
	if _, err := f.WriteAt("txn:B", []byte("BB"), 14); err != nil {
		t.Fatal(err)
	}
	// Same owner may rewrite its own bytes.
	if _, err := f.WriteAt("txn:A", []byte("XX"), 11); err != nil {
		t.Fatal(err)
	}
}

func TestUncommittedOverlappingAndTransfer(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("proc:7", []byte("dirty"), 100); err != nil {
		t.Fatal(err)
	}
	ors := f.UncommittedOverlapping(102, 1)
	if len(ors) != 1 || ors[0].Owner != "proc:7" || ors[0].Off != 100 || ors[0].Len != 5 {
		t.Fatalf("overlapping = %+v", ors)
	}
	if got := f.UncommittedOverlapping(0, 50); len(got) != 0 {
		t.Fatalf("false overlap: %+v", got)
	}
	// Rule 2 adoption: transaction takes ownership.
	moved := f.TransferMods("proc:7", "txn:9", 100, 5)
	if moved != 1 {
		t.Fatalf("moved = %d", moved)
	}
	if f.HasMods("proc:7") || !f.HasMods("txn:9") {
		t.Fatal("transfer did not move ownership")
	}
	if err := f.Commit("txn:9"); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, f, 100, 5); !bytes.Equal(got, []byte("dirty")) {
		t.Fatalf("adopted record lost: %q", got)
	}
}

func TestOwnersEnumeration(t *testing.T) {
	_, f := newFile(t)
	if got := f.Owners(); len(got) != 0 {
		t.Fatalf("fresh file owners = %v", got)
	}
	_, _ = f.WriteAt("b", []byte("x"), 0)
	_, _ = f.WriteAt("a", []byte("y"), 10)
	got := f.Owners()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("owners = %v", got)
	}
}

func TestPrepareFlushAndRecoveryApply(t *testing.T) {
	v, f := newFile(t)
	base := bytes.Repeat([]byte{'-'}, 60)
	if _, err := f.WriteAt("setup", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	// Two owners on the same page; T prepares (flush + intentions) and
	// then the site crashes before phase 2.
	if _, err := f.WriteAt("txn:T", []byte("TTTT"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("proc:9", []byte("pppp"), 30); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush("txn:T"); err != nil {
		t.Fatal(err)
	}
	il := f.IntentionsFor("txn:T")
	if il.Ino != f.Ino() || len(il.Entries) != 1 {
		t.Fatalf("intentions = %+v", il)
	}
	ent := il.Entries[0]
	if len(ent.Ranges) != 1 || ent.Ranges[0] != (Range{Off: 4, Len: 4}) {
		t.Fatalf("ranges = %+v", ent.Ranges)
	}

	// Crash: volatile state gone.  Reload the volume; the load scan
	// reclaims unreferenced pages, so recovery must re-pin the shadow.
	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("vol0", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if v2.PageAllocated(ent.Shadow) {
		t.Fatal("shadow page unexpectedly still allocated after reload")
	}
	if err := v2.ReservePage(ent.Shadow); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIntentions(v2, il); err != nil {
		t.Fatal(err)
	}
	// Idempotence: applying again must be harmless.
	if err := ApplyIntentions(v2, il); err != nil {
		t.Fatal(err)
	}

	nf, err := Open(v2, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, nf, 0, 60)
	if !bytes.Equal(got[4:8], []byte("TTTT")) {
		t.Fatalf("prepared txn lost: %q", got)
	}
	// The co-owner's uncommitted bytes must NOT have been committed.
	if bytes.Contains(got, []byte("pppp")) {
		t.Fatal("recovery published co-owner's uncommitted bytes")
	}
	if got[0] != '-' || got[20] != '-' {
		t.Fatal("base bytes lost in recovery")
	}
}

func TestDiscardIntentions(t *testing.T) {
	v, f := newFile(t)
	if _, err := f.WriteAt("txn:T", []byte("zzz"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush("txn:T"); err != nil {
		t.Fatal(err)
	}
	il := f.IntentionsFor("txn:T")

	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("vol0", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	// Recovery pins the prepared pages, then learns the transaction
	// aborted and discards them.
	for _, ent := range il.Entries {
		if err := v2.ReservePage(ent.Shadow); err != nil {
			t.Fatal(err)
		}
	}
	free := v2.FreePages()
	if err := DiscardIntentions(v2, il); err != nil {
		t.Fatal(err)
	}
	if v2.FreePages() != free+len(il.Entries) {
		t.Fatalf("discard freed %d pages, want %d", v2.FreePages()-free, len(il.Entries))
	}
	nf, err := Open(v2, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	if nf.CommittedSize() != 0 {
		t.Fatal("aborted transaction changed the file")
	}
}

func TestSizeSemanticsPerOwner(t *testing.T) {
	_, f := newFile(t)
	// B extends far; A writes a little.  Committing A must not commit
	// B's extension.
	if _, err := f.WriteAt("txn:A", []byte("aa"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:B", []byte("bb"), 500); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 502 {
		t.Fatalf("working size = %d", f.Size())
	}
	if err := f.Commit("txn:A"); err != nil {
		t.Fatal(err)
	}
	if f.CommittedSize() != 2 {
		t.Fatalf("committed size = %d, want 2", f.CommittedSize())
	}
	if f.Size() != 502 {
		t.Fatalf("working size after A's commit = %d", f.Size())
	}
	if err := f.Abort("txn:B"); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 2 {
		t.Fatalf("working size after B's abort = %d", f.Size())
	}
}

func TestCommitUnknownOwner(t *testing.T) {
	_, f := newFile(t)
	if err := f.Commit("txn:none"); !errors.Is(err, ErrNoSuchOwner) {
		t.Fatalf("commit unknown owner: %v", err)
	}
	if err := f.Abort("txn:none"); !errors.Is(err, ErrNoSuchOwner) {
		t.Fatalf("abort unknown owner: %v", err)
	}
}

func TestWriteBeyondMaxFile(t *testing.T) {
	_, f := newFile(t)
	limit := int64(fs.MaxPointers(testPageSize)) * testPageSize
	if _, err := f.WriteAt("p", []byte("x"), limit); !errors.Is(err, ErrBeyondMaxFile) {
		t.Fatalf("write at limit: %v", err)
	}
	if _, err := f.WriteAt("p", []byte("x"), limit-1); err != nil {
		t.Fatalf("write just under limit: %v", err)
	}
}

func TestNegativeOffsets(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("p", []byte("x"), -1); err == nil {
		t.Fatal("negative write offset accepted")
	}
	if _, err := f.ReadAt(make([]byte, 1), -1); err == nil {
		t.Fatal("negative read offset accepted")
	}
}

// Property: with a committed base, two owners writing disjoint records,
// one committing and one aborting, the stable result equals base with
// only the committer's records applied - regardless of order and offsets.
func TestCommitAbortIsolationProperty(t *testing.T) {
	type w struct {
		Off  uint16
		Data []byte
	}
	f := func(aw, bw []w, commitFirst bool) bool {
		st := stats.NewSet()
		d := simdisk.New("q", 128, testPageSize, st)
		v, err := fs.Format("q", d, fs.Options{NumInodes: 2, LogPages: 2})
		if err != nil {
			return false
		}
		ino, err := v.AllocInode()
		if err != nil {
			return false
		}
		file, err := Open(v, ino)
		if err != nil {
			return false
		}
		const fileSize = 4 * testPageSize
		base := make([]byte, fileSize)
		for i := range base {
			base[i] = byte(i % 251)
		}
		if _, err := file.WriteAt("setup", base, 0); err != nil {
			return false
		}
		if err := file.Commit("setup"); err != nil {
			return false
		}

		want := append([]byte(nil), base...)
		// Apply A's writes (the committer) to the model; skip writes
		// that would collide with B's or overflow.
		taken := make([]bool, fileSize)
		apply := func(ws []w, owner Owner, model bool) bool {
			for _, x := range ws {
				if len(x.Data) == 0 {
					continue
				}
				off := int(x.Off) % (fileSize - 64)
				data := x.Data
				if len(data) > 48 {
					data = data[:48]
				}
				clash := false
				for i := off; i < off+len(data); i++ {
					if taken[i] {
						clash = true
						break
					}
				}
				if clash {
					continue
				}
				for i := off; i < off+len(data); i++ {
					taken[i] = true
				}
				if _, err := file.WriteAt(owner, data, int64(off)); err != nil {
					return false
				}
				if model {
					copy(want[off:], data)
				}
			}
			return true
		}
		if !apply(aw, "txn:A", true) {
			return false
		}
		if !apply(bw, "txn:B", false) {
			return false
		}
		if commitFirst {
			if file.HasMods("txn:A") {
				if err := file.Commit("txn:A"); err != nil {
					return false
				}
			}
			if file.HasMods("txn:B") {
				if err := file.Abort("txn:B"); err != nil {
					return false
				}
			}
		} else {
			if file.HasMods("txn:B") {
				if err := file.Abort("txn:B"); err != nil {
					return false
				}
			}
			if file.HasMods("txn:A") {
				if err := file.Commit("txn:A"); err != nil {
					return false
				}
			}
		}

		// Crash to stable state and compare against the model.
		d.Crash()
		d.Restart()
		v2, err := fs.Load("q", d)
		if err != nil {
			return false
		}
		nf, err := Open(v2, ino)
		if err != nil {
			return false
		}
		got := make([]byte, fileSize)
		if _, err := nf.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestThreeOwnersInterleavedOutcomes(t *testing.T) {
	// Three owners on one page: A commits, B aborts, C commits - in that
	// order, with the page shared throughout.  The final stable state
	// holds A's and C's records on the base, nothing of B's.
	v, f := newFile(t)
	base := bytes.Repeat([]byte{'-'}, 240)
	if _, err := f.WriteAt("setup", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("A", []byte("AAAA"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("B", []byte("BBBB"), 80); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("C", []byte("CCCC"), 160); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("A"); err != nil {
		t.Fatal(err)
	}
	if err := f.Abort("B"); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("C"); err != nil {
		t.Fatal(err)
	}
	nf := reopen(t, v, f)
	got := readAll(t, nf, 0, 240)
	if !bytes.Equal(got[0:4], []byte("AAAA")) {
		t.Fatalf("A lost: %q", got[0:4])
	}
	if bytes.Contains(got, []byte("BBBB")) {
		t.Fatal("aborted B committed")
	}
	if !bytes.Equal(got[160:164], []byte("CCCC")) {
		t.Fatalf("C lost: %q", got[160:164])
	}
	if got[40] != '-' || got[80] != '-' {
		t.Fatal("base corrupted")
	}
	// All working state retired; pool balanced (one extra page holds the
	// committed data).
	if f.HasMods("A") || f.HasMods("B") || f.HasMods("C") {
		t.Fatal("mods survive all outcomes")
	}
}

func TestPrefetchFillsCache(t *testing.T) {
	v, f := newFile(t)
	data := bytes.Repeat([]byte{9}, testPageSize*2)
	if _, err := f.WriteAt("setup", data, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	// Fresh open: cold cache.
	nf, err := Open(v, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	st := v.Stats()
	before := st.Snapshot()
	if err := nf.Prefetch(0, testPageSize*2); err != nil {
		t.Fatal(err)
	}
	d := st.Snapshot().Sub(before)
	if d.Get(stats.DiskReads) != 2 {
		t.Fatalf("prefetch read %d pages, want 2", d.Get(stats.DiskReads))
	}
	// Subsequent reads are free.
	before = st.Snapshot()
	buf := make([]byte, testPageSize*2)
	if _, err := nf.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot().Sub(before).Get(stats.DiskReads); got != 0 {
		t.Fatalf("read after prefetch cost %d disk reads", got)
	}
	// Prefetch of holes and dirty pages is a no-op.
	if err := nf.Prefetch(-5, 0); err != nil {
		t.Fatal(err)
	}
}

// Property: N owners write disjoint records on a shared page region; a
// random subset commits (in random order) and the rest abort.  The final
// stable image equals base overlaid with exactly the committed owners'
// records, and the page pool balances.
func TestManyOwnersRandomOutcomesProperty(t *testing.T) {
	f := func(outcomes [5]bool, order [5]uint8, fills [5]byte) bool {
		st := stats.NewSet()
		d := simdisk.New("q", 128, testPageSize, st)
		v, err := fs.Format("q", d, fs.Options{NumInodes: 2, LogPages: 2})
		if err != nil {
			return false
		}
		ino, err := v.AllocInode()
		if err != nil {
			return false
		}
		file, err := Open(v, ino)
		if err != nil {
			return false
		}
		const regionBytes = 2 * testPageSize
		base := make([]byte, regionBytes)
		for i := range base {
			base[i] = byte(i % 97)
		}
		if _, err := file.WriteAt("setup", base, 0); err != nil {
			return false
		}
		if err := file.Commit("setup"); err != nil {
			return false
		}

		// Owner i writes a 31-byte record at slot i*97 (straddling page
		// boundaries for some i).
		const recLen = 31
		want := append([]byte(nil), base...)
		for i := 0; i < 5; i++ {
			owner := Owner(fmt.Sprintf("o%d", i))
			rec := bytes.Repeat([]byte{fills[i] | 1}, recLen)
			off := int64(i * 97)
			if _, err := file.WriteAt(owner, rec, off); err != nil {
				return false
			}
			if outcomes[i] {
				copy(want[off:], rec)
			}
		}
		// Resolve owners in a permutation driven by `order`.
		resolved := [5]bool{}
		for k := 0; k < 5; k++ {
			idx := -1
			for probe := 0; probe < 5; probe++ {
				cand := (int(order[k]) + probe) % 5
				if !resolved[cand] {
					idx = cand
					break
				}
			}
			resolved[idx] = true
			owner := Owner(fmt.Sprintf("o%d", idx))
			if outcomes[idx] {
				if err := file.Commit(owner); err != nil {
					return false
				}
			} else if err := file.Abort(owner); err != nil {
				return false
			}
		}

		// Crash to stable state and compare.
		d.Crash()
		d.Restart()
		v2, err := fs.Load("q", d)
		if err != nil {
			return false
		}
		nf, err := Open(v2, ino)
		if err != nil {
			return false
		}
		got := make([]byte, regionBytes)
		if _, err := nf.ReadAt(got, 0); err != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
