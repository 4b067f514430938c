package shadow

import (
	"slices"
	"testing"

	"repro/internal/stats"
)

// A page state retired by owner A's commit serves owner B's next dirty
// page with none of A's ranges: B's intentions, owners and commit path
// see only B's record.
func TestRecycledPageStateCarriesNoRanges(t *testing.T) {
	_, f := newFile(t)
	for _, off := range []int64{0, 100} {
		if _, err := f.WriteAt("txn:A", []byte("AAAAAAAA"), off); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Commit("txn:A"); err != nil {
		t.Fatal(err)
	}
	if len(f.retired) != 1 {
		t.Fatalf("%d retired page states after a one-page commit, want 1", len(f.retired))
	}
	recycled := f.retired[0]
	if _, err := f.WriteAt("txn:B", []byte("BBBBBBBB"), 50); err != nil {
		t.Fatal(err)
	}
	if len(f.pages) != 1 || f.pages[0] != recycled {
		t.Fatal("B's dirty page did not reuse the retired page state")
	}
	var il IntentionsList
	f.IntentionsFor("txn:B", &il)
	if len(il.Entries) != 1 || !slices.Equal(il.Entries[0].Ranges, []Range{{Off: 50, Len: 8}}) {
		t.Fatalf("B's intentions = %+v, want one entry with range {50 8}", il.Entries)
	}
	if !f.HasMods("txn:B") || f.HasMods("txn:A") {
		t.Fatalf("owners: txn:B=%v txn:A=%v, want only txn:B", f.HasMods("txn:B"), f.HasMods("txn:A"))
	}
	diffs := f.st.Get(stats.PageDiffs)
	if err := f.Commit("txn:B"); err != nil {
		t.Fatal(err)
	}
	if got := f.st.Get(stats.PageDiffs); got != diffs {
		t.Fatalf("B's sole-owner commit took the differencing path (%d page diffs)", got-diffs)
	}
	if got := string(readAll(t, f, 0, 108)); got[:8] != "AAAAAAAA" || got[50:58] != "BBBBBBBB" || got[100:] != "AAAAAAAA" {
		t.Fatalf("file reads %q", got)
	}
}

// An abort that drops two adjacent sole-owner pages drops both, and frees
// both shadow pages; a co-owned page after them keeps its other owner.
func TestAbortDropsAdjacentSoleOwnerPages(t *testing.T) {
	v, f := newFile(t)
	free := v.FreePages()
	for _, off := range []int64{testPageSize, 2 * testPageSize, 3*testPageSize + 8} {
		if _, err := f.WriteAt("txn:X", []byte("xxxxxxxx"), off); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.WriteAt("txn:Y", []byte("yyyyyyyy"), 3*testPageSize+64); err != nil {
		t.Fatal(err)
	}
	if err := f.Abort("txn:X"); err != nil {
		t.Fatal(err)
	}
	if f.HasMods("txn:X") {
		t.Fatal("X still holds modifications after its abort")
	}
	if len(f.pages) != 1 || f.pages[0].logical != 3 {
		var left []int
		for _, st := range f.pages {
			left = append(left, st.logical)
		}
		t.Fatalf("working pages after the abort = %v, want [3]", left)
	}
	if got := v.FreePages(); got != free-1 {
		t.Fatalf("%d pages in use after the abort, want 1 (Y's shadow page)", free-got)
	}
}

// A steady-state commit allocates nothing: page states, mods arrays,
// buffers, the intentions list and the inode are all reused.
func TestSteadyStateCommitAllocatesNothing(t *testing.T) {
	_, f := newFile(t)
	if _, err := f.WriteAt("init", make([]byte, 2*testPageSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("init"); err != nil {
		t.Fatal(err)
	}
	rec := []byte("8 bytes.")
	var il IntentionsList
	sole := testing.AllocsPerRun(50, func() {
		if _, err := f.WriteAt("txn:A", rec, 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Flush("txn:A"); err != nil {
			t.Fatal(err)
		}
		f.IntentionsFor("txn:A", &il)
		if err := f.Commit("txn:A"); err != nil {
			t.Fatal(err)
		}
	})
	if sole != 0 {
		t.Errorf("sole-owner write + flush + intentions + commit allocates %.1f times, want 0", sole)
	}
	shared := testing.AllocsPerRun(50, func() {
		if _, err := f.WriteAt("txn:A", rec, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("txn:B", rec, 64); err != nil {
			t.Fatal(err)
		}
		if err := f.Commit("txn:A"); err != nil { // Figure 4(b): differencing
			t.Fatal(err)
		}
		if err := f.Commit("txn:B"); err != nil {
			t.Fatal(err)
		}
	})
	if shared != 0 {
		t.Errorf("shared-page differencing commit allocates %.1f times, want 0", shared)
	}
	var pages []int
	oneForce := testing.AllocsPerRun(50, func() {
		if _, err := f.WriteAt("txn:A", rec, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("txn:B", rec, testPageSize); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt("txn:A", rec, testPageSize+64); err != nil {
			t.Fatal(err)
		}
		pages = f.AppendUnflushed(pages[:0], "txn:A")
		f.IntentionsFor("txn:A", &il)
		for _, owner := range []Owner{"txn:A", "txn:B"} {
			if err := f.CommitWith(owner, true); err != nil {
				t.Fatal(err)
			}
		}
	})
	if oneForce != 0 {
		t.Errorf("one-force commits, sole and differencing, allocate %.1f times, want 0", oneForce)
	}
}
