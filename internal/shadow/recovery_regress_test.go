package shadow

import (
	"bytes"
	"testing"

	"repro/internal/fs"
)

// TestApplyIntentionsStaleBase is the regression for a recovery bug on
// the page-differencing path: a co-owner that commits AFTER a
// transaction prepared makes the prepare-time Base stale (and freed).
// Recovery must merge the transaction's ranges onto the page the inode
// points to NOW; merging onto the recorded Base silently erases the
// co-owner's committed bytes.
func TestApplyIntentionsStaleBase(t *testing.T) {
	v, f := newFile(t)
	base := bytes.Repeat([]byte{'-'}, testPageSize)
	if _, err := f.WriteAt("setup", base, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}

	// Two owners share page 0.  T prepares; then the co-owner commits,
	// replacing the committed page T's intentions recorded as Base.
	if _, err := f.WriteAt("txn:T", []byte("TTTT"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("proc:9", []byte("CCCC"), 100); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush("txn:T"); err != nil {
		t.Fatal(err)
	}
	var il IntentionsList
	f.IntentionsFor("txn:T", &il)
	if len(il.Entries) != 1 {
		t.Fatalf("intentions = %+v", il)
	}
	ent := il.Entries[0]
	if err := f.Commit("proc:9"); err != nil {
		t.Fatal(err)
	}
	cur := f.Inode().Pages[0]
	if cur == ent.Base {
		t.Fatalf("co-owner commit did not replace the committed page (phys %d); test premise broken", cur)
	}

	// Crash before phase 2; reload and finish T's commit from the log.
	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("vol0", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if err := v2.ReservePage(ent.Shadow); err != nil {
		t.Fatal(err)
	}
	if err := ApplyIntentions(v2, il); err != nil {
		t.Fatal(err)
	}
	// Idempotence, including on the differencing path: re-applying the
	// same list (recovery itself can crash and rerun) must change
	// nothing and free nothing twice.
	free := v2.FreePages()
	if err := ApplyIntentions(v2, il); err != nil {
		t.Fatal(err)
	}
	if v2.FreePages() != free {
		t.Fatalf("re-application changed the free list: %d -> %d", free, v2.FreePages())
	}

	nf, err := Open(v2, f.Ino())
	if err != nil {
		t.Fatal(err)
	}
	got := readAll(t, nf, 0, testPageSize)
	if !bytes.Equal(got[4:8], []byte("TTTT")) {
		t.Fatalf("prepared transaction's bytes lost: %q", got[:16])
	}
	if !bytes.Equal(got[100:104], []byte("CCCC")) {
		t.Fatalf("co-owner's committed bytes erased by recovery (merged onto stale Base): %q", got[96:108])
	}
	if got[0] != '-' || got[200] != '-' {
		t.Fatal("base bytes lost in recovery")
	}
}

// TestReadWriteSpanLastPartialPage covers reads and writes straddling
// the file's last, partially filled page.
func TestReadWriteSpanLastPartialPage(t *testing.T) {
	v, f := newFile(t)
	const size = testPageSize + testPageSize/2 // 1.5 pages
	if _, err := f.WriteAt("setup", bytes.Repeat([]byte{'x'}, size), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}

	// A read spanning EOF is truncated at the committed size.
	buf := make([]byte, 200)
	n, err := f.ReadAt(buf, int64(size-84))
	if err != nil {
		t.Fatal(err)
	}
	if n != 84 || !bytes.Equal(buf[:n], bytes.Repeat([]byte{'x'}, 84)) {
		t.Fatalf("read over EOF: n=%d %q", n, buf[:n])
	}

	// A write spanning the last partial page into fresh territory
	// extends the working size but not the committed size.
	ext := bytes.Repeat([]byte{'y'}, 200)
	extOff := int64(size + 16) // leaves a hole [size, size+16)
	if _, err := f.WriteAt("txn:T", ext, extOff); err != nil {
		t.Fatal(err)
	}
	if f.Size() != extOff+200 {
		t.Fatalf("working size = %d, want %d", f.Size(), extOff+200)
	}
	if f.CommittedSize() != size {
		t.Fatalf("committed size moved to %d before commit", f.CommittedSize())
	}
	if err := f.Commit("txn:T"); err != nil {
		t.Fatal(err)
	}

	// Survives a crash: hole zero-filled, both extents intact.
	nf := reopen(t, v, f)
	if nf.CommittedSize() != extOff+200 {
		t.Fatalf("committed size after reopen = %d", nf.CommittedSize())
	}
	got := readAll(t, nf, 0, int(extOff)+200)
	if !bytes.Equal(got[:size], bytes.Repeat([]byte{'x'}, size)) {
		t.Fatal("original extent damaged")
	}
	if !bytes.Equal(got[size:extOff], make([]byte, 16)) {
		t.Fatalf("hole not zero-filled: %q", got[size:extOff])
	}
	if !bytes.Equal(got[extOff:], ext) {
		t.Fatal("extension damaged")
	}
}

// TestCommittedSizeAfterAbort: an abort of a size-extending owner must
// restore both the working and the committed size.
func TestCommittedSizeAfterAbort(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("setup", bytes.Repeat([]byte{'a'}, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("setup"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("txn:T", bytes.Repeat([]byte{'b'}, 50), 500); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 550 {
		t.Fatalf("working size = %d", f.Size())
	}
	if err := f.Abort("txn:T"); err != nil {
		t.Fatal(err)
	}
	if f.CommittedSize() != 100 || f.Size() != 100 {
		t.Fatalf("after abort: committed=%d working=%d, want 100/100", f.CommittedSize(), f.Size())
	}
	buf := make([]byte, 10)
	if n, err := f.ReadAt(buf, 500); err != nil || n != 0 {
		t.Fatalf("read past restored EOF: n=%d err=%v", n, err)
	}
}

// TestTransferModsZeroLength: adopting an empty range is a no-op - the
// strict overlap comparisons must not treat [off, off) as touching a
// mod that straddles off.
func TestTransferModsZeroLength(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("proc:1", bytes.Repeat([]byte{'m'}, 10), 10); err != nil {
		t.Fatal(err)
	}
	if ors := f.UncommittedOverlapping(15, 0); len(ors) != 0 {
		t.Fatalf("empty range overlaps: %+v", ors)
	}
	if moved := f.TransferMods("proc:1", "txn:T", 15, 0); moved != 0 {
		t.Fatalf("empty range adopted %d mods", moved)
	}
	if moved := f.TransferMods("proc:1", "txn:T", 15, -5); moved != 0 {
		t.Fatalf("negative range adopted %d mods", moved)
	}
	ors := f.UncommittedOverlapping(0, 30)
	if len(ors) != 1 || ors[0].Owner != "proc:1" {
		t.Fatalf("ownership changed by empty transfer: %+v", ors)
	}
}
