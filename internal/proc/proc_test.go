package proc

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/stats"
)

func table() *Table { return NewTable(1, stats.NewSet()) }

func TestNewProcessAndResident(t *testing.T) {
	tb := table()
	p := tb.NewProcess(100, 0)
	if p.PID != 100 || p.Site != 1 || p.Parent != 0 {
		t.Fatalf("process = %+v", p)
	}
	tb.NewProcess(50, 100)
	if got := tb.Resident(); !reflect.DeepEqual(got, []int{50, 100}) {
		t.Fatalf("resident = %v", got)
	}
	got, err := tb.Get(100)
	if err != nil || got != p {
		t.Fatalf("Get = %v, %v", got, err)
	}
	tb.Remove(100)
	if _, err := tb.Get(100); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Get after remove: %v", err)
	}
}

func TestTransactionNesting(t *testing.T) {
	// Section 2: paired BeginTrans/EndTrans with a nesting counter; the
	// database subsystem's inner pair must not end the transaction.
	tb := table()
	tb.NewProcess(1, 0)
	if n, err := tb.BeginTrans(1, "T1"); err != nil || n != 1 {
		t.Fatalf("begin = %d, %v", n, err)
	}
	p, _ := tb.Get(1)
	if p.TxnID != "T1" || !p.TopLevel {
		t.Fatalf("process = %+v", p)
	}
	if n, _ := tb.BeginTrans(1, "ignored"); n != 2 {
		t.Fatalf("nested begin = %d", n)
	}
	if p.TxnID != "T1" {
		t.Fatal("nested begin replaced txid")
	}
	done, err := tb.EndTrans(1)
	if err != nil || done {
		t.Fatalf("inner end: done=%v err=%v", done, err)
	}
	done, err = tb.EndTrans(1)
	if err != nil || !done {
		t.Fatalf("outer end: done=%v err=%v", done, err)
	}
	if _, err := tb.EndTrans(1); !errors.Is(err, ErrNotInTxn) {
		t.Fatalf("end outside txn: %v", err)
	}
	tb.ClearTxn(1)
	if p.TxnID != "" || p.Nesting != 0 || p.TopLevel {
		t.Fatalf("after clear = %+v", p)
	}
}

func TestMemberProcessEndIsNotCommit(t *testing.T) {
	// A child created inside a transaction inherits the txid but is not
	// top-level; its final EndTrans must not report commit-time.
	tb := table()
	child := tb.NewProcess(2, 1)
	child.TxnID = "T1" // inherited at fork
	if _, err := tb.BeginTrans(2, "T-other"); err != nil {
		t.Fatal(err)
	}
	if child.TxnID != "T1" {
		t.Fatal("inherited txid replaced")
	}
	if child.TopLevel {
		t.Fatal("child with inherited txn became top-level")
	}
	done, err := tb.EndTrans(2)
	if err != nil || done {
		t.Fatalf("child end: done=%v err=%v", done, err)
	}
}

func TestFileListOps(t *testing.T) {
	tb := table()
	tb.NewProcess(1, 0)
	if err := tb.AddFile(1, FileRef{FileID: "v0/f2", StorageSite: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddFile(1, FileRef{FileID: "v0/f1", StorageSite: 2}); err != nil {
		t.Fatal(err)
	}
	// Duplicate adds collapse.
	if err := tb.AddFile(1, FileRef{FileID: "v0/f1", StorageSite: 2}); err != nil {
		t.Fatal(err)
	}
	fl, err := tb.FileList(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []FileRef{{FileID: "v0/f1", StorageSite: 2}, {FileID: "v0/f2", StorageSite: 3}}
	if !reflect.DeepEqual(fl, want) {
		t.Fatalf("file list = %+v", fl)
	}
	if err := tb.AddFile(99, FileRef{}); !errors.Is(err, ErrNotResident) {
		t.Fatalf("AddFile absent: %v", err)
	}
	if _, err := tb.FileList(nil, 99); !errors.Is(err, ErrNotResident) {
		t.Fatalf("FileList absent: %v", err)
	}
}

func TestMergeFileList(t *testing.T) {
	tb := table()
	tb.NewProcess(1, 0)
	_ = tb.AddFile(1, FileRef{FileID: "a", StorageSite: 1})
	err := tb.MergeFileList(1, []FileRef{
		{FileID: "b", StorageSite: 2},
		{FileID: "a", StorageSite: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	fl, _ := tb.FileList(nil, 1)
	if len(fl) != 2 {
		t.Fatalf("merged list = %+v", fl)
	}
}

func TestMergeRejectedDuringMigration(t *testing.T) {
	// The section 4.1 race: a child's file-list arrives while the
	// top-level process is migrating - the sender must get a failure and
	// retry at the new site.
	tb := table()
	tb.NewProcess(1, 0)
	if _, err := tb.BeginMigrate(1); err != nil {
		t.Fatal(err)
	}
	err := tb.MergeFileList(1, []FileRef{{FileID: "x", StorageSite: 2}})
	if !errors.Is(err, ErrInTransit) {
		t.Fatalf("merge during migration: %v", err)
	}
	// After the process has left, merges report non-residency.
	tb.CompleteMigrate(1)
	err = tb.MergeFileList(1, []FileRef{{FileID: "x", StorageSite: 2}})
	if !errors.Is(err, ErrNotResident) {
		t.Fatalf("merge after departure: %v", err)
	}
}

func TestMigrationLifecycle(t *testing.T) {
	src := NewTable(1, stats.NewSet())
	dst := NewTable(2, stats.NewSet())
	p := src.NewProcess(7, 0)
	_ = src.AddFile(7, FileRef{FileID: "f", StorageSite: 1})

	moving, err := src.BeginMigrate(7)
	if err != nil {
		t.Fatal(err)
	}
	if !src.InTransit(7) {
		t.Fatal("not marked in-transit")
	}
	// Double migration is rejected.
	if _, err := src.BeginMigrate(7); !errors.Is(err, ErrAlreadyInTransit) {
		t.Fatalf("double migrate: %v", err)
	}
	// Ship: adopt at destination, complete at source.
	dst.Adopt(moving)
	src.CompleteMigrate(7)
	if _, err := src.Get(7); !errors.Is(err, ErrNotResident) {
		t.Fatal("still resident at source")
	}
	got, err := dst.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if got.Site != 2 || got.PID != 7 {
		t.Fatalf("adopted = %+v", got)
	}
	if got == p {
		t.Fatal("migration shipped the live process instead of a copy")
	}
	if dst.InTransit(7) {
		t.Fatal("still in transit after adoption")
	}
	// File-list traveled with the process.
	fl, _ := dst.FileList(nil, 7)
	if len(fl) != 1 || fl[0].FileID != "f" {
		t.Fatalf("file list after migration = %+v", fl)
	}
	// Merge works at the new site.
	if err := dst.MergeFileList(7, []FileRef{{FileID: "g", StorageSite: 3}}); err != nil {
		t.Fatal(err)
	}
}

func TestCancelMigrate(t *testing.T) {
	tb := table()
	tb.NewProcess(1, 0)
	if _, err := tb.BeginMigrate(1); err != nil {
		t.Fatal(err)
	}
	tb.CancelMigrate(1)
	if tb.InTransit(1) {
		t.Fatal("in-transit after cancel")
	}
	if err := tb.MergeFileList(1, nil); err != nil {
		t.Fatalf("merge after cancel: %v", err)
	}
}

func TestChildTracking(t *testing.T) {
	tb := table()
	tb.NewProcess(1, 0)
	children := func() int {
		t.Helper()
		info, err := tb.Info(1)
		if err != nil {
			t.Fatal(err)
		}
		return info.Children
	}
	_ = tb.AddChild(1, 2)
	_ = tb.AddChild(1, 3)
	if n := children(); n != 2 {
		t.Fatalf("children = %d", n)
	}
	if err := tb.RemoveChild(1, 2); err != nil {
		t.Fatal(err)
	}
	if n := children(); n != 1 {
		t.Fatalf("after remove = %d", n)
	}
	// A duplicated exit notice is harmless.
	if err := tb.RemoveChild(1, 2); err != nil {
		t.Fatal(err)
	}
	if n := children(); n != 1 {
		t.Fatalf("after duplicate remove = %d", n)
	}
	// Removals bounce off an in-transit parent, like merges.
	if _, err := tb.BeginMigrate(1); err != nil {
		t.Fatal(err)
	}
	if err := tb.RemoveChild(1, 3); !errors.Is(err, ErrInTransit) {
		t.Fatalf("remove during migration: %v", err)
	}
	tb.CancelMigrate(1)
	if n := children(); n != 1 {
		t.Fatalf("after refused remove = %d", n)
	}
	if err := tb.RemoveChild(1, 3); err != nil {
		t.Fatal(err)
	}
	if n := children(); n != 0 {
		t.Fatalf("after last remove = %d", n)
	}
	if err := tb.RemoveChild(99, 3); !errors.Is(err, ErrNotResident) {
		t.Fatalf("remove at absent parent: %v", err)
	}
}

func TestStatsCounted(t *testing.T) {
	st := stats.NewSet()
	tb := NewTable(1, st)
	tb.NewProcess(1, 0)
	if st.Get(stats.Forks) != 0 {
		t.Fatal("registering a process counted a fork (the fork handler counts forks)")
	}
	_, _ = tb.BeginTrans(1, "T")
	if st.Get(stats.TxnBegins) != 1 {
		t.Fatal("begin not counted")
	}
	_, _ = tb.BeginMigrate(1)
	if st.Get(stats.Migrations) != 1 {
		t.Fatal("migration not counted")
	}
}

func TestInfoSnapshotAndSetTop(t *testing.T) {
	tb := table()
	p := tb.NewProcess(5, 2)
	if _, err := tb.BeginTrans(5, "T9"); err != nil {
		t.Fatal(err)
	}
	_ = tb.AddChild(5, 6)
	if err := tb.SetTop(5, 5, 1); err != nil {
		t.Fatal(err)
	}
	info, err := tb.Info(5)
	if err != nil {
		t.Fatal(err)
	}
	if info.PID != 5 || info.Parent != 2 || info.TxnID != "T9" || info.Nesting != 1 ||
		!info.TopLevel || info.TopPID != 5 || info.TopSite != 1 || info.Children != 1 {
		t.Fatalf("info = %+v", info)
	}
	if got := tb.TxnOf(5); got != "T9" {
		t.Fatalf("TxnOf = %q", got)
	}
	if got := tb.TxnOf(99); got != "" {
		t.Fatalf("TxnOf absent = %q", got)
	}
	if _, err := tb.Info(99); !errors.Is(err, ErrNotResident) {
		t.Fatalf("Info absent: %v", err)
	}
	if err := tb.SetTop(99, 1, 1); !errors.Is(err, ErrNotResident) {
		t.Fatalf("SetTop absent: %v", err)
	}
	_ = p
}
