package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// newSystem builds the standard 3-site test system: volumes va@1, vb@2,
// vc@3.
func newSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem(cluster.Config{SyncPhase2: true, LockWaitTimeout: 500 * time.Millisecond})
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.AddSite(id)
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := sys.AddVolume(site, vol); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func mustProcess(t *testing.T, sys *System, site simnet.SiteID) *Process {
	t.Helper()
	p, err := sys.NewProcess(site)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCreate(t *testing.T, p *Process, path string) *File {
	t.Helper()
	f, err := p.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func readString(t *testing.T, f *File, off int64, n int) string {
	t.Helper()
	buf := make([]byte, n)
	m, err := f.ReadAt(buf, off)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf[:m])
}

func TestQuickstartTransaction(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/accounts")

	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if !p.InTxn() {
		t.Fatal("not in transaction after BeginTrans")
	}
	if _, err := f.WriteAt([]byte("balance=100"), 0); err != nil {
		t.Fatal(err)
	}
	// Uncommitted data is visible to the transaction itself.
	if got := readString(t, f, 0, 11); got != "balance=100" {
		t.Fatalf("read own write = %q", got)
	}
	cs, _ := f.CommittedSize()
	if cs != 0 {
		t.Fatal("committed before EndTrans")
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if p.InTxn() {
		t.Fatal("still in transaction after EndTrans")
	}
	cs, _ = f.CommittedSize()
	if cs != 11 {
		t.Fatalf("committed size = %d", cs)
	}
	// Survives a crash of the storage site.
	sys.Cluster().Site(1).Crash()
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/accounts")
	if err != nil {
		t.Fatal(err)
	}
	if got := readString(t, f2, 0, 11); got != "balance=100" {
		t.Fatalf("after crash = %q", got)
	}
}

func TestNestedBeginEndPairing(t *testing.T) {
	// Section 2's database-subsystem composition: the inner pair must
	// not commit the outer transaction.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")

	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("outer"), 0); err != nil {
		t.Fatal(err)
	}
	// Library call: BeginTrans/EndTrans internally.
	if n, err := p.BeginTrans(); err != nil || n != 2 {
		t.Fatalf("nested begin = %d, %v", n, err)
	}
	if _, err := f.WriteAt([]byte("inner"), 10); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	// Still uncommitted: the outer transaction is open.
	if cs, _ := f.CommittedSize(); cs != 0 {
		t.Fatalf("inner EndTrans committed: size %d", cs)
	}
	if !p.InTxn() {
		t.Fatal("transaction ended by inner EndTrans")
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if cs, _ := f.CommittedSize(); cs != 15 {
		t.Fatalf("after outer EndTrans committed size = %d", cs)
	}
}

func TestAbortTransRollsBack(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := f.WriteAt([]byte("keep"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("doom"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.AbortTrans(); err != nil {
		t.Fatal(err)
	}
	if p.InTxn() {
		t.Fatal("still in txn after abort")
	}
	if got := readString(t, f, 0, 4); got != "keep" {
		t.Fatalf("after abort = %q", got)
	}
	// The transaction's locks are gone: another transaction may lock.
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 4, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("lock after abort: %v", err)
	}
	if err := p2.AbortTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestEndTransOutsideTxn(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	if err := p.EndTrans(); !errors.Is(err, ErrNotInTxn) {
		t.Fatalf("EndTrans outside: %v", err)
	}
	if err := p.AbortTrans(); !errors.Is(err, ErrNotInTxn) {
		t.Fatalf("AbortTrans outside: %v", err)
	}
}

func TestTwoPhaseLockingRetention(t *testing.T) {
	// Rule 1: a transaction's unlock retains the lock until commit.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lock(10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	retained, err := f.Unlock(0, 10)
	if err != nil || !retained {
		t.Fatalf("unlock = %v, %v; want retained", retained, err)
	}
	// Another transaction is still excluded.
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Shared, LockOpts{NoWait: true}); !errors.Is(err, ErrConflict) {
		t.Fatalf("retained lock not enforced: %v", err)
	}
	// After commit, it is free.
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Shared, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("lock after commit: %v", err)
	}
	if err := p2.AbortTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestSection33Example(t *testing.T) {
	// The paper's Figure 2 scenario: a non-transaction updates x[1] and
	// unlocks without committing; a transaction reads x[1] and writes
	// x[2]; the transaction's commit must also commit x[1] (rule 2) so
	// the non-transaction's later "abort" cannot undo what the
	// transaction depended on.
	sys := newSystem(t)
	nt := mustProcess(t, sys, 2) // the non-transaction program
	x := mustCreate(t, nt, "va/x")
	// Initialize x[1], x[2] as 8-byte records at 0 and 8.
	if _, err := x.WriteAt([]byte("00000000ZZZZZZZZ"), 0); err != nil {
		t.Fatal(err)
	}
	if err := x.Sync(); err != nil {
		t.Fatal(err)
	}

	// Non-transaction: writelock x[1]; x[1] := C; unlock x[1].
	if err := x.LockRange(0, 8, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := x.WriteAt([]byte("CCCCCCCC"), 0); err != nil {
		t.Fatal(err)
	}
	if retained, err := x.Unlock(0, 8); err != nil || retained {
		t.Fatalf("nontxn unlock retained=%v err=%v", retained, err)
	}

	// Transaction: readlock x[1]; t := x[1]; writelock x[2]; x[2] := t.
	tp := mustProcess(t, sys, 1)
	xf, err := tp.Open("va/x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tp.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := xf.LockRange(0, 8, Shared); err != nil {
		t.Fatal(err)
	}
	v := readString(t, xf, 0, 8)
	if v != "CCCCCCCC" {
		t.Fatalf("transaction read %q", v)
	}
	if err := xf.LockRange(8, 8, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := xf.WriteAt([]byte(v), 8); err != nil {
		t.Fatal(err)
	}
	if err := tp.EndTrans(); err != nil {
		t.Fatal(err)
	}

	// Rule 2: x[1] committed with the transaction even though the
	// transaction never wrote it.  Crash the storage site to prove it
	// is on stable storage.
	sys.Cluster().Site(1).Crash()
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
	p3 := mustProcess(t, sys, 1)
	x3, err := p3.Open("va/x")
	if err != nil {
		t.Fatal(err)
	}
	got := readString(t, x3, 0, 16)
	if got != "CCCCCCCCCCCCCCCC" {
		t.Fatalf("consistency violated after crash: %q (x[1] must equal x[2])", got)
	}
}

func TestNonTransactionLockEscape(t *testing.T) {
	// Section 3.4: a transaction's NonTxn lock obeys Figure 1 but is not
	// retained - the explicit serializability escape.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/catalog")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lock(10, Exclusive, LockOpts{NonTxn: true}); err != nil {
		t.Fatal(err)
	}
	retained, err := f.Unlock(0, 10)
	if err != nil || retained {
		t.Fatalf("nontxn-mode unlock retained=%v err=%v", retained, err)
	}
	// Another process can grab it immediately, mid-transaction.
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/catalog")
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("catalog lock during other txn: %v", err)
	}
	if err := p.AbortTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestNonTxnLockOverOwnWriteIsRetained(t *testing.T) {
	// Rule 2 of section 3.3 at release time: once the transaction has
	// written under its NonTxn lock, the lock covers a modified-but-
	// uncommitted record and is retained like any other.  That is also
	// what lets an abort find the record: it rolls back the files the
	// transaction still holds locks on, not every open file.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/catalog")
	if _, err := f.WriteAt([]byte("AAAAAAAAAA"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f.LockRange(0, 10, Exclusive, LockOpts{NonTxn: true}); err != nil {
		t.Fatal(err)
	}
	if err := f.LockRange(20, 10, Exclusive, LockOpts{NonTxn: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("BBBBBBBBBB"), 0); err != nil {
		t.Fatal(err)
	}
	if retained, err := f.Unlock(20, 10); err != nil || retained {
		t.Fatalf("unlock of an unwritten nontxn range: retained=%v err=%v", retained, err)
	}
	if retained, err := f.Unlock(0, 10); err != nil || !retained {
		t.Fatalf("unlock of a written nontxn range: retained=%v err=%v, want retained", retained, err)
	}
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/catalog")
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Exclusive, LockOpts{NoWait: true}); err == nil {
		t.Fatal("another process locked a record carrying the transaction's uncommitted write")
	}
	if err := p.AbortTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("lock after the abort: %v", err)
	}
	if got := readString(t, f2, 0, 10); got != "AAAAAAAAAA" {
		t.Fatalf("aborted write still visible: %q", got)
	}
	if _, err := f2.WriteAt([]byte("CCCCCCCCCC"), 0); err != nil {
		t.Fatalf("write over the aborted record: %v", err)
	}
}

func TestPreTransactionLocksStayOutside(t *testing.T) {
	// Section 3.4's second escape: locks acquired before BeginTrans are
	// not converted to transaction locks.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if err := f.LockRange(0, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	// Unlocking the pre-transaction lock really releases it.
	retained, err := f.Unlock(0, 10)
	if err != nil || retained {
		t.Fatalf("pre-txn unlock retained=%v err=%v", retained, err)
	}
	p2 := mustProcess(t, sys, 2)
	f2, err := p2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.LockRange(0, 10, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("lock released mid-txn should be free: %v", err)
	}
	// And the file never joined the transaction's file list, so commit
	// involves no files.
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestAccessUnderEscapeLockStillCommits(t *testing.T) {
	// Section 3.4's two escapes, used for an access inside the transaction:
	// a read under the process's own pre-transaction lock, or under a NonTxn
	// lock released before the commit, puts the file on the transaction's
	// file list while the transaction itself holds no lock and no record at
	// that storage site.  Its prepare there is vacuous, not refused: the
	// site has not lost the transaction, it never held anything of it.
	for _, tc := range []struct {
		name        string
		before, use func(t *testing.T, cat *File)
	}{
		{name: "pre-transaction lock", before: func(t *testing.T, cat *File) {
			if err := cat.LockRange(0, 7, Shared); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "NonTxn lock released early", use: func(t *testing.T, cat *File) {
			if err := cat.LockRange(0, 7, Shared, LockOpts{NonTxn: true}); err != nil {
				t.Fatal(err)
			}
			if got := readString(t, cat, 0, 7); got != "catalog" {
				t.Fatalf("catalog = %q", got)
			}
			if retained, err := cat.Unlock(0, 7); err != nil || retained {
				t.Fatalf("nontxn-mode unlock retained=%v err=%v", retained, err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := newSystem(t)
			p := mustProcess(t, sys, 3) // coordinator site 3, catalog at 1, data at 2
			cat := mustCreate(t, p, "va/catalog")
			data := mustCreate(t, p, "vb/data")
			if _, err := cat.WriteAt([]byte("catalog"), 0); err != nil {
				t.Fatal(err)
			}
			if err := cat.Sync(); err != nil {
				t.Fatal(err)
			}
			if tc.before != nil {
				tc.before(t, cat)
			}
			if _, err := p.BeginTrans(); err != nil {
				t.Fatal(err)
			}
			if tc.use != nil {
				tc.use(t, cat)
			} else if got := readString(t, cat, 0, 7); got != "catalog" {
				t.Fatalf("catalog = %q", got)
			}
			if sum := sys.Cluster().Site(1).Locks().GroupSummary(cluster.TxnGroup(p.Txn())); sum.MaxMode >= Shared {
				t.Fatalf("the transaction holds a lock at the catalog's site: %+v", sum)
			}
			if _, err := data.WriteAt([]byte("entry"), 0); err != nil {
				t.Fatal(err)
			}
			if err := p.EndTrans(); err != nil {
				t.Fatalf("EndTrans = %v, want a commit", err)
			}
			if n, err := data.CommittedSize(); err != nil || n != 5 {
				t.Fatalf("committed size of vb/data = %d, %v; want 5", n, err)
			}
		})
	}
}

func TestMultiSiteAtomicCommit(t *testing.T) {
	// One transaction updating files at two storage sites: both commit.
	sys := newSystem(t)
	p := mustProcess(t, sys, 3) // coordinator site 3, storage at 1 and 2
	fa := mustCreate(t, p, "va/a")
	fb := mustCreate(t, p, "vb/b")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.WriteAt([]byte("alpha"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("beta!"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ path, want string }{{"va/a", "alpha"}, {"vb/b", "beta!"}} {
		q := mustProcess(t, sys, 3)
		f, err := q.Open(tc.path)
		if err != nil {
			t.Fatal(err)
		}
		if got := readString(t, f, 0, 5); got != tc.want {
			t.Fatalf("%s = %q", tc.path, got)
		}
	}
	// Coordinator log cleaned after full phase 2.
	if keys := sys.Cluster().Site(3).Volume("vc").Log().Keys(); len(keys) != 0 {
		t.Fatalf("coordinator log not cleaned: %v", keys)
	}
}

func TestMultiSiteAbortOnParticipantDown(t *testing.T) {
	// A participant site dies before commit: EndTrans must abort both
	// sides (all-or-nothing).
	sys := newSystem(t)
	p := mustProcess(t, sys, 3)
	fa := mustCreate(t, p, "va/a")
	fb := mustCreate(t, p, "vb/b")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := fa.WriteAt([]byte("alpha"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("beta!"), 0); err != nil {
		t.Fatal(err)
	}
	// Site 2 (vb) crashes before EndTrans.  The topology watcher aborts
	// the transaction; EndTrans then reports the abort.
	sys.Cluster().Site(2).Crash()
	err := p.EndTrans()
	if err == nil {
		t.Fatal("EndTrans succeeded with a dead participant")
	}
	// Nothing committed at the surviving site.
	q := mustProcess(t, sys, 1)
	f, err := q.Open("va/a")
	if err != nil {
		t.Fatal(err)
	}
	if cs, _ := f.CommittedSize(); cs != 0 {
		t.Fatalf("partial commit at surviving site: %d bytes", cs)
	}
	if err := sys.Cluster().Site(2).Restart(); err != nil {
		t.Fatal(err)
	}
	q2 := mustProcess(t, sys, 2)
	f2, err := q2.Open("vb/b")
	if err != nil {
		t.Fatal(err)
	}
	if cs, _ := f2.CommittedSize(); cs != 0 {
		t.Fatalf("partial commit at crashed site: %d bytes", cs)
	}
}

func TestRemoteChildrenAndFileListMerge(t *testing.T) {
	// Children at other sites lock files there; their file-lists merge
	// back as they exit, and the coordinator commits everything.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}

	child, err := p.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	if child.Txn() != p.Txn() {
		t.Fatalf("child txn %q != parent %q", child.Txn(), p.Txn())
	}
	fb := mustCreate(t, child, "vb/childfile")
	if _, err := fb.WriteAt([]byte("from child"), 0); err != nil {
		t.Fatal(err)
	}
	if err := child.Exit(); err != nil {
		t.Fatal(err)
	}

	f := mustCreate(t, p, "va/parentfile")
	if _, err := f.WriteAt([]byte("from parent"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}

	q := mustProcess(t, sys, 3)
	fc, err := q.Open("vb/childfile")
	if err != nil {
		t.Fatal(err)
	}
	if got := readString(t, fc, 0, 10); got != "from child" {
		t.Fatalf("child's file = %q", got)
	}
}

func TestChildrenMustCompleteBeforeEndTrans(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	child, err := p.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); !errors.Is(err, ErrChildrenActive) {
		t.Fatalf("EndTrans with live child: %v", err)
	}
	if err := child.Exit(); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationMidTransaction(t *testing.T) {
	// The top-level process migrates mid-transaction; a child completes
	// while it lives at the new site; commit still works from there.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("before move"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := p.Fork(3)
	if err != nil {
		t.Fatal(err)
	}
	cf := mustCreate(t, child, "vc/cfile")
	if _, err := cf.WriteAt([]byte("child data"), 0); err != nil {
		t.Fatal(err)
	}

	if err := p.Migrate(2); err != nil {
		t.Fatal(err)
	}
	if p.Site() != 2 {
		t.Fatalf("site = %v", p.Site())
	}
	// The child exits after the migration: the merge must chase the
	// top-level process to site 2.
	if err := child.Exit(); err != nil {
		t.Fatal(err)
	}
	// The migrated process continues operating on the file.
	if _, err := f.WriteAt([]byte("after move!"), 20); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}

	q := mustProcess(t, sys, 1)
	for path, want := range map[string]string{"va/f": "before move", "vc/cfile": "child data"} {
		fq, err := q.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := readString(t, fq, 0, len(want)); got != want {
			t.Fatalf("%s = %q, want %q", path, got, want)
		}
	}
}

func TestDeadlockDetectionAndVictimAbort(t *testing.T) {
	sys := newSystem(t)
	pa := mustProcess(t, sys, 1)
	pb := mustProcess(t, sys, 2)
	fa1 := mustCreate(t, pa, "va/r1")
	fa2 := mustCreate(t, pa, "va/r2")
	fb1, err := pb.Open("va/r1")
	if err != nil {
		t.Fatal(err)
	}
	fb2, err := pb.Open("va/r2")
	if err != nil {
		t.Fatal(err)
	}

	if _, err := pa.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := fa1.LockRange(0, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := fb2.LockRange(0, 1, Exclusive); err != nil {
		t.Fatal(err)
	}

	// Cross requests: deadlock.  Run them in goroutines; the detector
	// aborts the younger transaction (pb's, begun second).
	errA := make(chan error, 1)
	errB := make(chan error, 1)
	go func() { errA <- fa2.LockRange(0, 1, Exclusive) }()
	go func() { errB <- fb1.LockRange(0, 1, Exclusive) }()

	deadline := time.After(2 * time.Second)
	var victims []string
	for len(victims) == 0 {
		select {
		case <-deadline:
			t.Fatal("no deadlock detected")
		default:
		}
		victims = sys.DetectDeadlocksOnce()
		time.Sleep(5 * time.Millisecond)
	}
	if len(victims) != 1 || !strings.Contains(victims[0], pb.Txn()) && !strings.Contains(victims[0], pa.Txn()) {
		t.Fatalf("victims = %v", victims)
	}
	// The victim is the younger transaction: pb's.
	if want := "txn:" + pb.Txn(); victims[0] != want {
		t.Fatalf("victim = %v, want %v (youngest)", victims[0], want)
	}

	// pa's blocked request is granted; pb's fails as cancelled.
	if err := <-errA; err != nil {
		t.Fatalf("survivor's lock failed: %v", err)
	}
	if err := <-errB; !errors.Is(err, ErrDeadlockVictim) && err == nil {
		t.Fatalf("victim's lock: %v", err)
	}
	if err := pa.EndTrans(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionAbortsTransaction(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	fb := mustCreate(t, p, "vb/remote")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := fb.WriteAt([]byte("doomed"), 0); err != nil {
		t.Fatal(err)
	}
	txid := p.Txn()
	// Partition site 2 away: the transaction involves it, so the
	// topology watcher aborts (section 4.3).
	sys.Cluster().Net().Partition(2)
	deadline := time.After(2 * time.Second)
	for sys.lookupTxn(txid) != nil {
		select {
		case <-deadline:
			t.Fatal("transaction not aborted on partition")
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := p.EndTrans(); !errors.Is(err, ErrAborted) {
		t.Fatalf("EndTrans after partition: %v", err)
	}
	sys.Cluster().Net().Heal()
	// Nothing committed on the far side.
	q := mustProcess(t, sys, 2)
	f2, err := q.Open("vb/remote")
	if err != nil {
		t.Fatal(err)
	}
	if cs, _ := f2.CommittedSize(); cs != 0 {
		t.Fatalf("partitioned write committed: %d", cs)
	}
}

func TestCoordinatorCrashAfterCommitPointRecovers(t *testing.T) {
	// Reproduce the window: commit point durable at the coordinator, but
	// the coordinator crashes before phase 2 reaches the participant.
	// On coordinator restart, recovery re-drives phase 2 (section 4.4).
	sys := NewSystem(cluster.Config{SyncPhase2: false, LockWaitTimeout: 500 * time.Millisecond})
	for _, id := range []simnet.SiteID{1, 2} {
		sys.AddSite(id)
	}
	if err := sys.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddVolume(2, "vb"); err != nil {
		t.Fatal(err)
	}
	p := mustProcess(t, sys, 2) // coordinator at site 2, storage at 1
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("recovered"), 0); err != nil {
		t.Fatal(err)
	}

	// Freeze phase 2 by crashing the participant's network just after
	// prepare: we simulate by partitioning AFTER EndTrans writes the
	// commit mark.  With async phase 2, EndTrans returns at the commit
	// point; we immediately crash the coordinator.
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	// Crash both promptly; phase 2 may or may not have landed at site 1.
	sys.Cluster().Site(2).Crash()
	sys.Cluster().Site(1).Crash()

	// Restart participant first: it is in doubt (coordinator down)
	// unless phase 2 already applied.
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
	// Restart coordinator: recovery re-drives phase 2.
	if err := sys.Cluster().Site(2).Restart(); err != nil {
		t.Fatal(err)
	}
	// Give retries a moment, then resolve any remaining doubt.
	sys.Cluster().Site(1).ResolveInDoubt()

	q := mustProcess(t, sys, 1)
	fq, err := q.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(2 * time.Second)
	for {
		if got := readString(t, fq, 0, 9); got == "recovered" {
			break
		}
		select {
		case <-deadline:
			got := readString(t, fq, 0, 9)
			t.Fatalf("committed data lost after coordinator recovery: %q", got)
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestAppendModeSharedLog(t *testing.T) {
	// Section 3.2: concurrent appenders lock-and-extend atomically.
	sys := newSystem(t)
	writers := make([]*Process, 3)
	files := make([]*File, 3)
	for i := range writers {
		writers[i] = mustProcess(t, sys, simnet.SiteID(i+1))
	}
	f0 := mustCreate(t, writers[0], "va/log")
	files[0] = f0
	for i := 1; i < 3; i++ {
		f, err := writers[i].Open("va/log")
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	const recLen = 16
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func(i int) {
			f := files[i]
			f.SetAppendMode(true)
			for r := 0; r < 4; r++ {
				off, err := f.Lock(recLen, Exclusive)
				if err != nil {
					done <- err
					return
				}
				rec := []byte(strings.Repeat(string(rune('A'+i)), recLen))
				if _, err := f.WriteAt(rec, off); err != nil {
					done <- err
					return
				}
				if err := f.Sync(); err != nil {
					done <- err
					return
				}
				if _, err := f.Unlock(off, recLen); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(i)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// 12 records, no tearing: every record is homogeneous.
	size, err := files[0].Size()
	if err != nil {
		t.Fatal(err)
	}
	if size != 12*recLen {
		t.Fatalf("log size = %d, want %d", size, 12*recLen)
	}
	buf := readString(t, files[0], 0, int(size))
	for r := 0; r < 12; r++ {
		rec := buf[r*recLen : (r+1)*recLen]
		if strings.Count(rec, rec[:1]) != recLen {
			t.Fatalf("torn record %d: %q", r, rec)
		}
	}
}

func TestConcurrentDebitCredit(t *testing.T) {
	// Serializability under contention: concurrent transfers between two
	// accounts preserve the total.
	sys := newSystem(t)
	setup := mustProcess(t, sys, 1)
	f := mustCreate(t, setup, "va/bank")
	// Two 8-byte "accounts" on one page: 100, 100.
	if _, err := f.WriteAt([]byte("00000100"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("00000100"), 8); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	transfer := func(p *Process, file *File, from, to int64, amount int) error {
		if _, err := p.BeginTrans(); err != nil {
			return err
		}
		if err := file.LockRange(from*8, 8, Exclusive); err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		if err := file.LockRange(to*8, 8, Exclusive); err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		readAcct := func(i int64) (int, error) {
			b := make([]byte, 8)
			if _, err := file.ReadAt(b, i*8); err != nil {
				return 0, err
			}
			n := 0
			for _, c := range b {
				n = n*10 + int(c-'0')
			}
			return n, nil
		}
		writeAcct := func(i int64, v int) error {
			b := []byte(pad8(v))
			_, err := file.WriteAt(b, i*8)
			return err
		}
		fv, err := readAcct(from)
		if err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		tv, err := readAcct(to)
		if err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		if err := writeAcct(from, fv-amount); err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		if err := writeAcct(to, tv+amount); err != nil {
			p.AbortTrans() //nolint:errcheck
			return err
		}
		return p.EndTrans()
	}

	const workers = 4
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			p, err := sys.NewProcess(simnet.SiteID(w%3 + 1))
			if err != nil {
				done <- err
				return
			}
			file, err := p.Open("va/bank")
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 5; i++ {
				from, to := int64(w%2), int64((w+1)%2)
				if err := transfer(p, file, from, to, 1); err != nil {
					// Lock timeouts/aborts are acceptable under
					// contention; consistency is what matters.
					continue
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Verify the invariant on committed state.
	sys.Cluster().Site(1).Crash()
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
	v := mustProcess(t, sys, 1)
	fv, err := v.Open("va/bank")
	if err != nil {
		t.Fatal(err)
	}
	b := readString(t, fv, 0, 16)
	total := atoi(b[:8]) + atoi(b[8:])
	if total != 200 {
		t.Fatalf("money not conserved: %q total %d", b, total)
	}
}

func pad8(v int) string {
	s := ""
	for i := 0; i < 8; i++ {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	return s
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func TestEndTransWithoutCoordinatorVolumeAborts(t *testing.T) {
	// Regression: a site with no volume cannot write a coordinator log;
	// EndTrans from such a site must ABORT the transaction (releasing
	// its retained locks everywhere), not leak them.
	sys := NewSystem(cluster.Config{SyncPhase2: true, LockWaitTimeout: 200 * time.Millisecond})
	sys.AddSite(1)
	sys.AddSite(2) // diskless
	if err := sys.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	p, err := sys.NewProcess(2)
	if err != nil {
		t.Fatal(err)
	}
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); !errors.Is(err, ErrAborted) {
		t.Fatalf("EndTrans from diskless site: %v", err)
	}
	// The locks must be gone: another process can lock immediately.
	q, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := q.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fq.LockRange(0, 1, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("locks leaked after failed EndTrans: %v", err)
	}
	if cs, _ := fq.CommittedSize(); cs != 0 {
		t.Fatalf("data committed despite abort: %d", cs)
	}
}

func TestReplicationThroughPublicAPI(t *testing.T) {
	sys := newSystem(t)
	// Seed a file, replicate va to sites 2 and 3.
	setup := mustProcess(t, sys, 1)
	f := mustCreate(t, setup, "va/catalog")
	if _, err := f.WriteAt([]byte("v1-catalog"), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddReplica("va", 2); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddReplica("va", 3); err != nil {
		t.Fatal(err)
	}

	// A reader at site 2 gets the data without network traffic.
	r := mustProcess(t, sys, 2)
	fr, err := r.Open("va/catalog")
	if err != nil {
		t.Fatal(err)
	}
	before := sys.Stats().Snapshot()
	if got := readString(t, fr, 0, 10); got != "v1-catalog" {
		t.Fatalf("replica read = %q", got)
	}
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("replica read sent %d messages", d.Get(stats.MsgsSent))
	}

	// A transaction updates the file; after commit the replicas serve
	// the new version locally.
	w := mustProcess(t, sys, 1)
	fw, err := w.Open("va/catalog")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.WriteAt([]byte("v2-catalog"), 0); err != nil {
		t.Fatal(err)
	}
	// While the file is open for update, the replica forwards to the
	// primary - where the transaction's enforced exclusive lock denies
	// the unlocked read, exactly per Figure 1 (Unix read vs Exclusive:
	// no).  The replica must NOT serve its stale copy locally.
	before = sys.Stats().Snapshot()
	buf := make([]byte, 10)
	_, err = fr.ReadAt(buf, 0)
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("read during exclusive update: %v", err)
	}
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) == 0 {
		t.Fatal("read served locally during update")
	}
	if err := w.EndTrans(); err != nil {
		t.Fatal(err)
	}
	// Quiesced: propagation done; local service resumes with v2.
	before = sys.Stats().Snapshot()
	if got := readString(t, fr, 0, 10); got != "v2-catalog" {
		t.Fatalf("replica after commit = %q", got)
	}
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("post-commit replica read sent %d messages", d.Get(stats.MsgsSent))
	}
}
