package lockmgr

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/names"
	"repro/internal/stats"
)

func fileLocks(size int64) *FileLocks {
	return NewFileLocks("vol0/f1", func() int64 { return size }, stats.NewSet())
}

var (
	txnA  = Holder{PID: 1, Txn: "T1"}
	txnA2 = Holder{PID: 2, Txn: "T1"} // second process, same transaction
	txnB  = Holder{PID: 3, Txn: "T2"}
	procP = Holder{PID: 10}
	procQ = Holder{PID: 11}
)

func mustLock(t *testing.T, fl *FileLocks, h Holder, m Mode, off, length int64) Result {
	t.Helper()
	res, err := fl.Lock(Request{Holder: h, Mode: m, Off: off, Len: length})
	if err != nil {
		t.Fatalf("lock %v %v [%d,%d): %v", h.Group(), m, off, off+length, err)
	}
	return res
}

func lockErr(fl *FileLocks, h Holder, m Mode, off, length int64) error {
	_, err := fl.Lock(Request{Holder: h, Mode: m, Off: off, Len: length})
	return err
}

// TestCompatibilityMatrixFigure1 is experiment E1: it verifies every cell
// of Figure 1's transaction synchronization rules.
//
//	           Unix   Shared  Exclusive
//	Unix       r/w    read    no
//	Shared     read   read    no
//	Exclusive  no     no      no
func TestCompatibilityMatrixFigure1(t *testing.T) {
	const off, length = 0, 10

	// Row Unix, column Unix: concurrent unlocked reads and writes allowed.
	fl := fileLocks(100)
	if err := fl.CheckAccess(procP, true, off, length); err != nil {
		t.Fatalf("unix/unix write: %v", err)
	}
	if err := fl.CheckAccess(procQ, false, off, length); err != nil {
		t.Fatalf("unix/unix read: %v", err)
	}

	// Column Shared vs Unix: reads allowed, writes denied.
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeShared, off, length)
	if err := fl.CheckAccess(procP, false, off, length); err != nil {
		t.Fatalf("unix read vs shared: %v", err)
	}
	if err := fl.CheckAccess(procP, true, off, length); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unix write vs shared: %v", err)
	}

	// Column Exclusive vs Unix: all access denied.
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, off, length)
	if err := fl.CheckAccess(procP, false, off, length); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unix read vs exclusive: %v", err)
	}
	if err := fl.CheckAccess(procP, true, off, length); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unix write vs exclusive: %v", err)
	}

	// Shared vs Shared: compatible.
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeShared, off, length)
	mustLock(t, fl, txnB, ModeShared, off, length)

	// Shared vs Exclusive, both orders: conflict.
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeShared, off, length)
	if err := lockErr(fl, txnB, ModeExclusive, off, length); !errors.Is(err, ErrConflict) {
		t.Fatalf("X after S: %v", err)
	}
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, off, length)
	if err := lockErr(fl, txnB, ModeShared, off, length); !errors.Is(err, ErrConflict) {
		t.Fatalf("S after X: %v", err)
	}

	// Exclusive vs Exclusive: conflict.
	fl = fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, off, length)
	if err := lockErr(fl, txnB, ModeExclusive, off, length); !errors.Is(err, ErrConflict) {
		t.Fatalf("X after X: %v", err)
	}
}

func TestDisjointRangesDoNotConflict(t *testing.T) {
	fl := fileLocks(1000)
	mustLock(t, fl, txnA, ModeExclusive, 0, 100)
	mustLock(t, fl, txnB, ModeExclusive, 100, 100) // adjacent, not overlapping
	mustLock(t, fl, procP, ModeShared, 500, 10)
	if err := lockErr(fl, txnB, ModeExclusive, 50, 10); !errors.Is(err, ErrConflict) {
		t.Fatalf("overlap: %v", err)
	}
}

func TestSameTransactionSharesLocks(t *testing.T) {
	// Section 3.1: if a transaction process locks a record exclusively,
	// its child (same transaction) may lock it too.
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	mustLock(t, fl, txnA2, ModeExclusive, 0, 10)
	mustLock(t, fl, txnA2, ModeShared, 5, 10)
	// But a different transaction may not.
	if err := lockErr(fl, txnB, ModeShared, 0, 5); !errors.Is(err, ErrConflict) {
		t.Fatalf("other txn: %v", err)
	}
}

func TestUpgradeAndNoDowngradeForTxn(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeShared, 0, 10)
	// Upgrade S -> X succeeds when no one else holds it.
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	if !fl.Covers(txnA, ModeExclusive, 0, 10) {
		t.Fatal("upgrade did not take")
	}
	// A "downgrade" request by a transaction must not weaken coverage
	// (two-phase locking).
	mustLock(t, fl, txnA, ModeShared, 0, 10)
	if !fl.Covers(txnA, ModeExclusive, 0, 10) {
		t.Fatal("transactional coverage weakened by downgrade request")
	}
	// Upgrade blocked by another group's shared lock.
	fl2 := fileLocks(100)
	mustLock(t, fl2, txnA, ModeShared, 0, 10)
	mustLock(t, fl2, txnB, ModeShared, 0, 10)
	if err := lockErr(fl2, txnA, ModeExclusive, 0, 10); !errors.Is(err, ErrConflict) {
		t.Fatalf("upgrade past reader: %v", err)
	}
}

func TestNonTxnProcessDowngradeAndRelease(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, procP, ModeExclusive, 0, 10)
	// Non-transaction processes may truly downgrade.
	mustLock(t, fl, procP, ModeShared, 0, 10)
	if fl.Covers(procP, ModeExclusive, 0, 10) {
		t.Fatal("downgrade ignored for non-transaction process")
	}
	mustLock(t, fl, procQ, ModeShared, 0, 10) // now compatible
	// And truly release.
	if retained, err := fl.Unlock(procP, 0, 10); err != nil || retained {
		t.Fatalf("unlock = %v, %v", retained, err)
	}
	if len(fl.Entries()) != 1 {
		t.Fatalf("entries = %+v", fl.Entries())
	}
}

func TestTransactionUnlockRetains(t *testing.T) {
	// Section 3.3 rule 1: a transaction's unlock retains the lock.
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	retained, err := fl.Unlock(txnA, 0, 10)
	if err != nil || !retained {
		t.Fatalf("unlock = %v, %v; want retained", retained, err)
	}
	// Other groups remain excluded.
	if err := lockErr(fl, txnB, ModeShared, 0, 10); !errors.Is(err, ErrConflict) {
		t.Fatalf("retained lock did not exclude: %v", err)
	}
	if err := fl.CheckAccess(procP, false, 0, 10); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("retained lock did not enforce: %v", err)
	}
	// The same transaction (any member process) may reacquire.
	mustLock(t, fl, txnA2, ModeExclusive, 0, 10)
	// Release at commit frees it for everyone.
	fl.ReleaseGroup(txnA.Group())
	mustLock(t, fl, txnB, ModeShared, 0, 10)
}

func TestNonTxnModeLockIsNotRetained(t *testing.T) {
	// Section 3.4: a non-transaction lock obeys Figure 1 but escapes
	// two-phase retention even when a transaction holds it.
	fl := fileLocks(100)
	res, err := fl.Lock(Request{Holder: txnA, Mode: ModeExclusive, Off: 0, Len: 10, NonTxn: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Off != 0 {
		t.Fatalf("res = %+v", res)
	}
	// It conflicts normally while held.
	if err := lockErr(fl, txnB, ModeShared, 0, 10); !errors.Is(err, ErrConflict) {
		t.Fatalf("nontxn lock did not conflict: %v", err)
	}
	// Unlock really releases it.
	retained, err := fl.Unlock(txnA, 0, 10)
	if err != nil || retained {
		t.Fatalf("nontxn unlock = %v, %v", retained, err)
	}
	mustLock(t, fl, txnB, ModeShared, 0, 10)
}

func TestForceTransactional(t *testing.T) {
	// Rule 2 conversion: a NonTxn lock over uncommitted data becomes
	// transactional, so a later unlock retains it.
	fl := fileLocks(100)
	if _, err := fl.Lock(Request{Holder: txnA, Mode: ModeShared, Off: 0, Len: 10, NonTxn: true}); err != nil {
		t.Fatal(err)
	}
	fl.ForceTransactional(txnA.Group(), 0, 10)
	retained, err := fl.Unlock(txnA, 0, 10)
	if err != nil || !retained {
		t.Fatalf("unlock after ForceTransactional = %v, %v", retained, err)
	}
}

func TestRangeSplittingOnPartialUnlock(t *testing.T) {
	fl := fileLocks(1000)
	mustLock(t, fl, procP, ModeExclusive, 0, 100)
	if _, err := fl.Unlock(procP, 40, 20); err != nil {
		t.Fatal(err)
	}
	// [0,40) and [60,100) still held; [40,60) free.
	if !fl.Covers(procP, ModeExclusive, 0, 40) || !fl.Covers(procP, ModeExclusive, 60, 40) {
		t.Fatalf("fragments lost: %+v", fl.Entries())
	}
	if fl.Covers(procP, ModeExclusive, 40, 20) {
		t.Fatal("unlocked middle still covered")
	}
	mustLock(t, fl, procQ, ModeExclusive, 40, 20)
}

func TestQueueingAndFIFOGrant(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)

	got := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := fl.Lock(Request{Holder: txnB, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true}); err != nil {
			t.Errorf("B wait: %v", err)
			return
		}
		got <- "B"
		fl.ReleaseGroup(txnB.Group())
	}()
	// Ensure B queues first.
	for fl.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() {
		defer wg.Done()
		if _, err := fl.Lock(Request{Holder: procP, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true}); err != nil {
			t.Errorf("P wait: %v", err)
			return
		}
		got <- "P"
		fl.ReleaseGroup(procP.Group())
	}()
	for fl.QueueLength() < 2 {
		time.Sleep(time.Millisecond)
	}
	fl.ReleaseGroup(txnA.Group())
	wg.Wait()
	first, second := <-got, <-got
	if first != "B" || second != "P" {
		t.Fatalf("grant order = %s, %s; want B, P", first, second)
	}
}

func TestQueueTimeout(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	start := time.Now()
	_, err := fl.Lock(Request{Holder: txnB, Mode: ModeShared, Off: 0, Len: 10, Wait: true, Timeout: 30 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("returned before timeout")
	}
	if fl.QueueLength() != 0 {
		t.Fatal("timed-out waiter left in queue")
	}
}

func TestCancelWaiters(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	errCh := make(chan error, 1)
	go func() {
		_, err := fl.Lock(Request{Holder: txnB, Mode: ModeShared, Off: 0, Len: 10, Wait: true})
		errCh <- err
	}()
	for fl.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	fl.CancelWaiters(txnB.Group())
	if err := <-errCh; !errors.Is(err, ErrCancelled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
}

func TestAppendModeLockAndExtend(t *testing.T) {
	// Section 3.2: lock requests relative to end of file, resolved
	// atomically at grant time, so concurrent appenders get disjoint
	// ranges and no livelock.
	var mu sync.Mutex
	size := int64(100)
	fl := NewFileLocks("log", func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return size
	}, stats.NewSet())

	res1, err := fl.Lock(Request{Holder: procP, Mode: ModeExclusive, Len: 50, AtEOF: true})
	if err != nil {
		t.Fatal(err)
	}
	if res1.Off != 100 {
		t.Fatalf("first append lock at %d, want 100", res1.Off)
	}
	// The appender extends the file while holding the lock.
	mu.Lock()
	size = 150
	mu.Unlock()
	res2, err := fl.Lock(Request{Holder: procQ, Mode: ModeExclusive, Len: 30, AtEOF: true})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Off != 150 {
		t.Fatalf("second append lock at %d, want 150", res2.Off)
	}
}

func TestWaitEdgesForDeadlockDetector(t *testing.T) {
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	go fl.Lock(Request{Holder: txnB, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true, Timeout: 500 * time.Millisecond})
	for fl.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	edges := fl.WaitEdges()
	if len(edges) != 1 {
		t.Fatalf("edges = %+v", edges)
	}
	if edges[0].Waiter != "txn:T2" || edges[0].Holder != "txn:T1" || edges[0].FileID != "vol0/f1" {
		t.Fatalf("edge = %+v", edges[0])
	}
	fl.ReleaseGroup(txnA.Group())
}

func TestManagerAggregation(t *testing.T) {
	st := stats.NewSet()
	m := NewManager(st)
	f1 := m.File("vol0/a", nil)
	f2 := m.File("vol0/b", nil)
	if m.File("vol0/a", nil) != f1 {
		t.Fatal("File not idempotent")
	}
	if m.Lookup("vol0/a") != f1 || m.Lookup("nope") != nil {
		t.Fatal("Lookup")
	}
	mustLock(t, f1, txnA, ModeExclusive, 0, 10)
	mustLock(t, f2, txnA, ModeShared, 0, 10)
	go f1.Lock(Request{Holder: txnB, Mode: ModeShared, Off: 0, Len: 10, Wait: true, Timeout: 500 * time.Millisecond})
	for f1.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	edges := m.WaitEdges()
	if len(edges) != 1 || edges[0].FileID != "vol0/a" {
		t.Fatalf("manager edges = %+v", edges)
	}
	// ReleaseGroup across files.
	m.ReleaseGroup(txnA.Group())
	if f2.Covers(txnA, ModeShared, 0, 10) {
		t.Fatal("group still holds after manager release")
	}
	m.Drop("vol0/a")
	if m.Lookup("vol0/a") != nil {
		t.Fatal("Drop")
	}
}

func TestBadRequests(t *testing.T) {
	fl := fileLocks(100)
	if _, err := fl.Lock(Request{Holder: procP, Mode: ModeShared, Off: -1, Len: 10}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("negative offset: %v", err)
	}
	if _, err := fl.Lock(Request{Holder: procP, Mode: ModeShared, Off: 0, Len: 0}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero length: %v", err)
	}
	if _, err := fl.Lock(Request{Holder: procP, Mode: ModeNone, Off: 0, Len: 1}); err == nil {
		t.Fatal("ModeNone accepted")
	}
	if _, err := fl.Unlock(procP, 0, 0); !errors.Is(err, ErrBadRange) {
		t.Fatalf("zero-length unlock: %v", err)
	}
}

func TestCoversPartialCoverage(t *testing.T) {
	fl := fileLocks(1000)
	mustLock(t, fl, txnA, ModeShared, 0, 10)
	mustLock(t, fl, txnA, ModeShared, 10, 10) // adjacent pieces
	if !fl.Covers(txnA, ModeShared, 0, 20) {
		t.Fatal("adjacent pieces should cover")
	}
	if fl.Covers(txnA, ModeShared, 0, 21) {
		t.Fatal("coverage overreported")
	}
	if fl.Covers(txnA, ModeExclusive, 0, 10) {
		t.Fatal("mode overreported")
	}
	if fl.Covers(txnB, ModeShared, 0, 10) {
		t.Fatal("wrong group covered")
	}
}

func TestModeAndHolderStrings(t *testing.T) {
	if ModeShared.String() != "shared" || ModeExclusive.String() != "exclusive" || ModeNone.String() != "none" {
		t.Fatal("mode names")
	}
	if Mode(9).String() != "mode(9)" {
		t.Fatal("unknown mode")
	}
	if txnA.Group() != "txn:T1" || procP.Group() != "pid:10" {
		t.Fatal("groups")
	}
	if !txnA.IsTxn() || procP.IsTxn() {
		t.Fatal("IsTxn")
	}
}

// TestGroupTxnOnCutName reads the transaction back from a group name cut
// from a names.Buffer, as a site keeps it, and from names that are not a
// transaction's.  The cut name and TxnGroup's are the same group.
func TestGroupTxnOnCutName(t *testing.T) {
	var b names.Buffer
	const txid = "00000042.3"
	b.Cut("coord:", "00000041.3") // the name does not start the chunk
	group := b.Cut(TxnPrefix, txid)
	if got, ok := GroupTxn(group); !ok || got != txid {
		t.Fatalf("GroupTxn(%q) = %q, %v", group, got, ok)
	}
	if group != TxnGroup(txid) {
		t.Fatalf("cut name %q differs from TxnGroup's %q", group, TxnGroup(txid))
	}
	for _, g := range []string{"pid:10", "lease:site2", TxnPrefix, ""} {
		if got, ok := GroupTxn(g); ok {
			t.Errorf("GroupTxn(%q) = %q, true: not a transaction's group", g, got)
		}
	}
	fl := fileLocks(100)
	if _, err := fl.Lock(Request{Holder: Holder{PID: 1, Txn: txid}, Mode: ModeExclusive, Len: 10, Group: group}); err != nil {
		t.Fatal(err)
	}
	fl.ReleaseGroup(TxnGroup(txid))
	if n := len(fl.Entries()); n != 0 {
		t.Fatalf("%d descriptors left after releasing the group by its built name", n)
	}
}

// Property: the lock table never holds two conflicting granted entries
// (the central Figure 1 invariant), for arbitrary interleavings of
// lock/unlock by several groups.
func TestNoConflictingGrantsProperty(t *testing.T) {
	holders := []Holder{txnA, txnB, procP, procQ}
	f := func(ops []struct {
		H      uint8
		Excl   bool
		Unlock bool
		Off    uint8
		Len    uint8
	}) bool {
		fl := fileLocks(1 << 16)
		for _, op := range ops {
			h := holders[int(op.H)%len(holders)]
			off := int64(op.Off)
			length := int64(op.Len%32) + 1
			if op.Unlock {
				fl.Unlock(h, off, length) //nolint:errcheck
				continue
			}
			mode := ModeShared
			if op.Excl {
				mode = ModeExclusive
			}
			fl.Lock(Request{Holder: h, Mode: mode, Off: off, Len: length}) //nolint:errcheck
		}
		// Invariant check over the final table.
		entries := fl.Entries()
		for i, a := range entries {
			for _, b := range entries[i+1:] {
				if a.Holder.Group() == b.Holder.Group() {
					continue
				}
				aSpan := span{a.Off, a.Off + a.Len}
				bSpan := span{b.Off, b.Off + b.Len}
				if !aSpan.overlaps(bSpan) {
					continue
				}
				if a.Mode == ModeExclusive || b.Mode == ModeExclusive {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLockingCostCharged(t *testing.T) {
	st := stats.NewSet()
	fl := NewFileLocks("f", nil, st)
	if _, err := fl.Lock(Request{Holder: procP, Mode: ModeShared, Off: 0, Len: 10}); err != nil {
		t.Fatal(err)
	}
	if st.Get(stats.LockAcquires) != 1 {
		t.Fatal("LockAcquires not counted")
	}
	if st.Get(stats.Instructions) < 500 {
		t.Fatalf("lock charged %d instructions, want ~650+", st.Get(stats.Instructions))
	}
}

func TestQueueBatchGrantsReaders(t *testing.T) {
	// When an exclusive lock releases, ALL queued compatible shared
	// requests are granted together, not one per release.
	fl := fileLocks(100)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	const readers = 4
	done := make(chan error, readers)
	for i := 0; i < readers; i++ {
		h := Holder{PID: 100 + i}
		go func() {
			_, err := fl.Lock(Request{Holder: h, Mode: ModeShared, Off: 0, Len: 10, Wait: true, Timeout: 2 * time.Second})
			done <- err
		}()
	}
	for fl.QueueLength() < readers {
		time.Sleep(time.Millisecond)
	}
	fl.ReleaseGroup(txnA.Group())
	for i := 0; i < readers; i++ {
		if err := <-done; err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if fl.QueueLength() != 0 {
		t.Fatal("queue not drained")
	}
	// All four readers hold compatible locks now.
	if len(fl.Entries()) != readers {
		t.Fatalf("entries = %d", len(fl.Entries()))
	}
}

func TestWaiterSkippedOverByCompatibleGrant(t *testing.T) {
	// A queued exclusive waiter behind a reader does not starve forever
	// once everything releases; and compatible grants can pass it while
	// the conflict persists (simple FIFO-per-pump policy).
	fl := fileLocks(100)
	mustLock(t, fl, procP, ModeShared, 0, 10)
	got := make(chan error, 1)
	go func() {
		_, err := fl.Lock(Request{Holder: txnA, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true, Timeout: 2 * time.Second})
		got <- err
	}()
	for fl.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Another reader can still be granted directly (it never queues).
	mustLock(t, fl, procQ, ModeShared, 0, 10)
	fl.ReleaseGroup(procP.Group())
	fl.ReleaseGroup(procQ.Group())
	if err := <-got; err != nil {
		t.Fatalf("exclusive waiter: %v", err)
	}
}
