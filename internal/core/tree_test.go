package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestAbortCascadesDownProcessTree builds a three-level process tree
// spanning all sites, each process writing its own file, and aborts from
// the top: every member's changes must vanish and every lock must clear
// (section 4.3: "the abort cascades down the process tree").
func TestAbortCascadesDownProcessTree(t *testing.T) {
	sys := newSystem(t)
	top := mustProcess(t, sys, 1)
	if _, err := top.BeginTrans(); err != nil {
		t.Fatal(err)
	}

	// Level 1: children on sites 2 and 3; level 2: grandchildren.
	var members []*Process
	var paths []string
	write := func(p *Process, path string) {
		f := mustCreate(t, p, path)
		if _, err := f.WriteAt([]byte("doomed"), 0); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	write(top, "va/top")
	for i, site := range []simnet.SiteID{2, 3} {
		c, err := top.Fork(site)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, c)
		write(c, fmt.Sprintf("v%c/child%d", 'a'+byte(site-1), i))
		g, err := c.Fork(1)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, g)
		write(g, fmt.Sprintf("va/grand%d", i))
		if g.Txn() != top.Txn() {
			t.Fatalf("grandchild txn %q != top %q", g.Txn(), top.Txn())
		}
	}

	if err := top.AbortTrans(); err != nil {
		t.Fatal(err)
	}
	// Every member's transaction state is cleared.
	for _, m := range members {
		if m.InTxn() {
			t.Fatalf("member pid %d still in txn after cascade", m.PID())
		}
	}
	// No file committed anything; no locks linger.
	v := mustProcess(t, sys, 2)
	for _, path := range paths {
		f, err := v.Open(path)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		if cs, _ := f.CommittedSize(); cs != 0 {
			t.Fatalf("%s committed %d bytes despite abort", path, cs)
		}
		if err := f.LockRange(0, 6, Exclusive, LockOpts{NoWait: true}); err != nil {
			t.Fatalf("%s still locked after cascade: %v", path, err)
		}
		if _, err := f.Unlock(0, 6); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMigrationMergeRaceStress hammers the section 4.1 race: children
// exit (merging file-lists toward the top-level process) while the
// top-level process migrates repeatedly.  Every merge must eventually
// land, and the commit must cover every child's file.
func TestMigrationMergeRaceStress(t *testing.T) {
	sys := newSystem(t)
	top := mustProcess(t, sys, 1)
	if _, err := top.BeginTrans(); err != nil {
		t.Fatal(err)
	}

	const nChildren = 9
	children := make([]*Process, nChildren)
	var paths []string
	for i := range children {
		c, err := top.Fork(simnet.SiteID(i%3 + 1))
		if err != nil {
			t.Fatal(err)
		}
		children[i] = c
		path := fmt.Sprintf("v%c/stress%d", 'a'+byte(i%3), i)
		f := mustCreate(t, c, path)
		if _, err := f.WriteAt([]byte("payload"), 0); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}

	// Children exit concurrently while the top-level process migrates
	// through every site.
	var wg sync.WaitGroup
	errs := make(chan error, nChildren)
	for _, c := range children {
		wg.Add(1)
		go func(c *Process) {
			defer wg.Done()
			errs <- c.Exit()
		}(c)
	}
	for _, site := range []simnet.SiteID{2, 3, 1, 2} {
		if err := top.Migrate(site); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("child exit during migrations: %v", err)
		}
	}

	if err := top.EndTrans(); err != nil {
		t.Fatal(err)
	}
	// Every child's file committed: the merges all found the migrating
	// top-level process.
	v := mustProcess(t, sys, 3)
	for _, path := range paths {
		f, err := v.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if cs, _ := f.CommittedSize(); cs != 7 {
			t.Fatalf("%s committed %d bytes, want 7 (merge lost?)", path, cs)
		}
	}
}

// TestForkAndMigrateErrors covers the failure paths of the process
// operations.
func TestForkAndMigrateErrors(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	if _, err := p.Fork(99); err == nil {
		t.Fatal("fork to unknown site succeeded")
	}
	if err := p.Migrate(99); err == nil {
		t.Fatal("migrate to unknown site succeeded")
	}
	// Migrating to the current site is a no-op.
	if err := p.Migrate(1); err != nil {
		t.Fatal(err)
	}
	// A crashed destination fails the migration but keeps the process
	// usable at its origin.
	sys.Cluster().Site(2).Crash()
	if err := p.Migrate(2); err == nil {
		t.Fatal("migrate to crashed site succeeded")
	}
	if p.Site() != 1 {
		t.Fatalf("process moved despite failure: %v", p.Site())
	}
	f := mustCreate(t, p, "va/ok")
	if _, err := f.WriteAt([]byte("still works"), 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.Cluster().Site(2).Restart(); err != nil {
		t.Fatal(err)
	}
}

func TestRunTransactionRedoAfterDeadlock(t *testing.T) {
	// Two processes transfer in opposite lock orders under the redo
	// helper: deadlock victims retry until both succeed.
	sys := newSystem(t)
	sys.StartDeadlockDetector(5 * time.Millisecond)
	defer sys.StopDeadlockDetector()

	setup := mustProcess(t, sys, 1)
	f := mustCreate(t, setup, "va/redo")
	if _, err := f.WriteAt(make([]byte, 16), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}

	run := func(p *Process, first, second int64, marker byte) error {
		file, err := p.Open("va/redo")
		if err != nil {
			return err
		}
		return p.RunTransaction(10, func() error {
			if err := file.LockRange(first*8, 8, Exclusive); err != nil {
				return err
			}
			if err := file.LockRange(second*8, 8, Exclusive); err != nil {
				return err
			}
			if _, err := file.WriteAt([]byte{marker}, first*8); err != nil {
				return err
			}
			_, err := file.WriteAt([]byte{marker}, second*8)
			return err
		})
	}
	pa := mustProcess(t, sys, 1)
	pb := mustProcess(t, sys, 2)
	done := make(chan error, 2)
	go func() { done <- run(pa, 0, 1, 'A') }()
	go func() { done <- run(pb, 1, 0, 'B') }()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatalf("redo transaction failed: %v", err)
		}
	}
	// Serializable outcome: both records carry the same (last) marker.
	v := mustProcess(t, sys, 3)
	fv, err := v.Open("va/redo")
	if err != nil {
		t.Fatal(err)
	}
	a, b := readString(t, fv, 0, 1), readString(t, fv, 8, 1)
	if a != b {
		t.Fatalf("torn outcome: %q vs %q", a, b)
	}
}

func TestRunTransactionBodyErrorNoRetry(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	calls := 0
	err := p.RunTransaction(5, func() error {
		calls++
		return fmt.Errorf("application error")
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d; app errors must not retry", err, calls)
	}
	if p.InTxn() {
		t.Fatal("transaction leaked")
	}
}

func TestKillMemberAbortsWholeTransaction(t *testing.T) {
	// Section 4.3: a member process failing dooms the transaction.
	sys := newSystem(t)
	top := mustProcess(t, sys, 1)
	f := mustCreate(t, top, "va/f")
	if _, err := top.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("top's work"), 0); err != nil {
		t.Fatal(err)
	}
	child, err := top.Fork(2)
	if err != nil {
		t.Fatal(err)
	}
	cf := mustCreate(t, child, "vb/cf")
	if _, err := cf.WriteAt([]byte("child's work"), 0); err != nil {
		t.Fatal(err)
	}
	// The child dies.
	if err := child.Kill(); err != nil {
		t.Fatal(err)
	}
	// The whole transaction is gone: EndTrans reports the abort, and
	// nothing committed anywhere.
	if err := top.EndTrans(); !errors.Is(err, ErrAborted) {
		t.Fatalf("EndTrans after member death: %v", err)
	}
	q := mustProcess(t, sys, 3)
	for _, path := range []string{"va/f", "vb/cf"} {
		fq, err := q.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if cs, _ := fq.CommittedSize(); cs != 0 {
			t.Fatalf("%s committed %d bytes after member death", path, cs)
		}
	}
}

func TestKillNonTransactionProcessReleasesEverything(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if err := f.LockRange(0, 10, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("dirty"), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	// Locks released, uncommitted bytes discarded (no close-commit).
	q := mustProcess(t, sys, 2)
	fq, err := q.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fq.LockRange(0, 10, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("dead process's lock survives: %v", err)
	}
	if cs, _ := fq.CommittedSize(); cs != 0 {
		t.Fatalf("dead process's writes committed: %d", cs)
	}
	size, _ := fq.Size()
	if size != 0 {
		t.Fatalf("dead process's uncommitted bytes linger: %d", size)
	}
}

// TestKillNonTransactionProcessDiscardsUnlockedWrites: Figure 1 lets a
// process write without a lock, and a reap must find those writes too -
// they are in no lock list and in no transaction's file-list, here or at
// the remote storage site.  The writes of a process that closed its file
// are committed, and stay.
func TestKillNonTransactionProcessDiscardsUnlockedWrites(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	paths := []string{"va/u", "vb/u", "vc/kept"}
	for _, path := range paths {
		f := mustCreate(t, p, path)
		if _, err := f.WriteAt([]byte("dirty"), 0); err != nil {
			t.Fatal(err)
		}
		if path == "vc/kept" {
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	q := mustProcess(t, sys, 2)
	for _, path := range paths {
		fq, err := q.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if path == "vc/kept" {
			want = 5
		}
		if size, _ := fq.Size(); size != want {
			t.Fatalf("%s: working size %d after the writer's death, want %d", path, size, want)
		}
	}
}
