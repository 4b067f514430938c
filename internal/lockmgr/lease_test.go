package lockmgr

import (
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
)

// ---- sticky lease entries (DESIGN.md section 13) ----

// leaseCovers reports whether site's lease entries at mode or stronger
// cover every byte of [off, off+length).
func (fl *FileLocks) leaseCovers(site int, mode Mode, off, length int64) bool {
	return fl.covered(off, length, func(e *entry) bool { return e.leased && e.leaseSite == site && e.mode >= mode })
}

func TestGrantLeaseAndCovers(t *testing.T) {
	fl := fileLocks(1000)
	if !fl.GrantLease(2, ModeShared, 0, 100) {
		t.Fatal("grant refused")
	}
	if !fl.leaseCovers(2, ModeShared, 0, 100) {
		t.Fatal("no coverage after grant")
	}
	if fl.leaseCovers(2, ModeShared, 50, 100) {
		t.Fatal("coverage past the lease end")
	}
	if fl.leaseCovers(2, ModeExclusive, 0, 100) {
		t.Fatal("shared lease covered exclusive need")
	}
	if fl.leaseCovers(3, ModeShared, 0, 100) {
		t.Fatal("another site's coverage")
	}
	// Adjacent spans merge coverage via the sweep.
	if !fl.GrantLease(2, ModeShared, 100, 100) {
		t.Fatal("second grant refused")
	}
	if !fl.leaseCovers(2, ModeShared, 0, 200) {
		t.Fatal("no merged coverage")
	}
	// A stronger overlapping grant absorbs the weaker span.
	if !fl.GrantLease(2, ModeExclusive, 0, 200) {
		t.Fatal("upgrade refused")
	}
	if !fl.leaseCovers(2, ModeExclusive, 0, 200) {
		t.Fatal("no exclusive coverage after upgrade")
	}
	// A weaker grant must not erase stronger coverage.
	if !fl.GrantLease(2, ModeShared, 0, 200) {
		t.Fatal("downgrade-shaped grant refused")
	}
	if !fl.leaseCovers(2, ModeExclusive, 0, 200) {
		t.Fatal("exclusive coverage lost to a weaker grant")
	}
	if got := fl.LeaseSites(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("LeaseSites = %v", got)
	}
}

func TestLeaseBlocksForeignButNotOwnSite(t *testing.T) {
	fl := fileLocks(1000)
	if !fl.GrantLease(2, ModeExclusive, 0, 100) {
		t.Fatal("grant refused")
	}
	// A request from the leaseholder's own site sails through.
	if _, err := fl.Lock(Request{Holder: txnA, Mode: ModeExclusive, Off: 0, Len: 10, FromSite: 2}); err != nil {
		t.Fatalf("own-site lock vs own lease: %v", err)
	}
	fl.ReleaseGroup(txnA.Group())
	// A foreign request conflicts like a held lock.
	if err := lockErr(fl, txnB, ModeExclusive, 0, 10); !errors.Is(err, ErrConflict) {
		t.Fatalf("foreign lock vs lease: %v", err)
	}
	// Unix-mode access stays lease-transparent: the lease stands in for a
	// lock the holder site would reacquire on demand, not a live lock.
	if err := fl.CheckAccess(procP, false, 0, 10); err != nil {
		t.Fatalf("unix read vs lease: %v", err)
	}
}

func TestBlockingLeaseSites(t *testing.T) {
	fl := fileLocks(1000)
	fl.GrantLease(2, ModeShared, 0, 100)
	fl.GrantLease(3, ModeExclusive, 200, 100)

	// Shared vs shared lease: compatible, no revoke needed.
	if got := fl.BlockingLeaseSites(nil, Request{Holder: txnA, Mode: ModeShared, Off: 0, Len: 50}); len(got) != 0 {
		t.Fatalf("shared vs shared lease: %v", got)
	}
	// Exclusive vs shared lease: revoke site 2.
	if got := fl.BlockingLeaseSites(nil, Request{Holder: txnA, Mode: ModeExclusive, Off: 0, Len: 50}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("exclusive vs shared lease: %v", got)
	}
	// Shared vs exclusive lease: revoke site 3.
	if got := fl.BlockingLeaseSites(nil, Request{Holder: txnA, Mode: ModeShared, Off: 200, Len: 10}); len(got) != 1 || got[0] != 3 {
		t.Fatalf("shared vs exclusive lease: %v", got)
	}
	// The requester's own site is never revoked.
	if got := fl.BlockingLeaseSites(nil, Request{Holder: txnA, Mode: ModeExclusive, Off: 200, Len: 10, FromSite: 3}); len(got) != 0 {
		t.Fatalf("own lease listed for revoke: %v", got)
	}
	// Disjoint range: nothing to revoke.
	if got := fl.BlockingLeaseSites(nil, Request{Holder: txnA, Mode: ModeExclusive, Off: 500, Len: 10}); len(got) != 0 {
		t.Fatalf("disjoint range: %v", got)
	}
}

func TestGrantLeaseRefusedWithWaiters(t *testing.T) {
	fl := fileLocks(1000)
	mustLock(t, fl, txnA, ModeExclusive, 0, 10)
	done := make(chan error, 1)
	go func() {
		_, err := fl.Lock(Request{Holder: txnB, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true})
		done <- err
	}()
	waitQueueLen(t, fl, 1)
	// A lease may never cut ahead of a queued waiter.
	if fl.GrantLease(2, ModeShared, 500, 10) {
		t.Fatal("lease granted with a non-empty queue")
	}
	if _, ok := fl.TryEscalateLease(2, "", ModeShared); ok {
		t.Fatal("escalation with a non-empty queue")
	}
	fl.ReleaseGroup(txnA.Group())
	if err := <-done; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	fl.ReleaseGroup(txnB.Group())
}

func TestRevokeLeaseGrantsWaitersFIFO(t *testing.T) {
	// Satellite 4: after a revoke lands, the queue drains in arrival
	// order — the leaseholder's former coverage cannot reorder waiters.
	fl := fileLocks(1000)
	if !fl.GrantLease(2, ModeExclusive, 0, 100) {
		t.Fatal("grant refused")
	}
	// Exclusive waiters conflict with each other too, so the queue can
	// only drain strictly in arrival order — each grant is observable
	// before the next is possible.
	order := make(chan string, 2)
	lockAsync := func(h Holder) {
		go func() {
			if _, err := fl.Lock(Request{Holder: h, Mode: ModeExclusive, Off: 0, Len: 10, Wait: true}); err == nil {
				order <- h.Group()
			}
		}()
	}
	lockAsync(txnA)
	waitQueueLen(t, fl, 1)
	lockAsync(txnB)
	waitQueueLen(t, fl, 2)

	if !fl.RevokeLease(2) {
		t.Fatal("revoke found nothing")
	}
	if first := <-order; first != txnA.Group() {
		t.Fatalf("first grant = %s, want %s", first, txnA.Group())
	}
	select {
	case g := <-order:
		t.Fatalf("second waiter granted while first still holds: %s", g)
	case <-time.After(20 * time.Millisecond):
	}
	fl.ReleaseGroup(txnA.Group())
	if second := <-order; second != txnB.Group() {
		t.Fatalf("second grant = %s, want %s", second, txnB.Group())
	}
	fl.ReleaseGroup(txnB.Group())
	if fl.RevokeLease(2) {
		t.Fatal("second revoke removed something")
	}
}

func TestTryEscalateLease(t *testing.T) {
	fl := fileLocks(1000)
	fl.GrantLease(2, ModeShared, 0, 100)
	fl.GrantLease(2, ModeExclusive, 100, 100)

	// A foreign descriptor blocks escalation.
	mustLock(t, fl, txnB, ModeShared, 500, 10)
	if _, ok := fl.TryEscalateLease(2, txnA.Group(), ModeShared); ok {
		t.Fatal("escalated over a foreign lock")
	}
	fl.ReleaseGroup(txnB.Group())

	// The triggering transaction's own descriptors are exempt; the
	// whole-file lease takes the strongest absorbed mode.
	mustLock(t, fl, txnA, ModeShared, 300, 10)
	if _, ok := fl.TryEscalateLease(2, txnA.Group(), ModeShared); !ok {
		t.Fatal("escalation refused")
	}
	if !fl.leaseCovers(2, ModeExclusive, 0, 100000) {
		t.Fatal("whole-file exclusive coverage missing after escalation")
	}
	// The byte-range entries collapsed into one.
	leases := 0
	for _, e := range fl.Entries() {
		if e.Leased {
			leases++
		}
	}
	if leases != 1 {
		t.Fatalf("lease entries after escalation = %d, want 1", leases)
	}
}

// TestEscalateLeaseBesideAnotherSite: where another site leases its own
// records of the file, escalation cannot take the whole file; it takes
// the hull of the escalating site's records instead, unless that hull
// would overlap the other site's lease.
func TestEscalateLeaseBesideAnotherSite(t *testing.T) {
	fl := fileLocks(4096)
	fl.GrantLease(3, ModeExclusive, 2048, 8)
	fl.GrantLease(2, ModeExclusive, 0, 8)
	fl.GrantLease(2, ModeShared, 64, 8)
	mustLock(t, fl, txnA, ModeExclusive, 120, 8)
	span, ok := fl.TryEscalateLease(2, txnA.Group(), ModeExclusive)
	if !ok || span != (Result{Off: 0, Len: 128}) {
		t.Fatalf("escalation beside site 3's lease: %+v, %v; want [0,128)", span, ok)
	}
	if !fl.leaseCovers(2, ModeExclusive, 0, 128) || fl.leaseCovers(2, ModeShared, 2048, 8) {
		t.Fatal("site 2's lease does not cover exactly the hull of its records")
	}
	if !fl.leaseCovers(3, ModeExclusive, 2048, 8) {
		t.Fatal("site 3's lease was taken by site 2's escalation")
	}
	fl.ReleaseGroup(txnA.Group())

	// A hull that would reach over site 3's lease is refused.
	fl.GrantLease(2, ModeShared, 4000, 8)
	if span, ok := fl.TryEscalateLease(2, "", ModeShared); ok {
		t.Fatalf("escalated to %+v over site 3's lease", span)
	}
	if !fl.leaseCovers(3, ModeExclusive, 2048, 8) {
		t.Fatal("a refused escalation touched site 3's lease")
	}
}

func TestManagerRevokeSiteLeases(t *testing.T) {
	st := stats.NewSet()
	m := NewManager(st)
	m.File("v/a", nil).GrantLease(2, ModeShared, 0, 10)
	m.File("v/b", nil).GrantLease(2, ModeExclusive, 0, 10)
	m.File("v/c", nil).GrantLease(3, ModeShared, 0, 10)
	if n := m.RevokeSiteLeases(2); n != 2 {
		t.Fatalf("revoked %d files, want 2", n)
	}
	if got := m.Lookup("v/c").LeaseSites(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("site 3 lease lost: %v", got)
	}
	if n := m.RevokeSiteLeases(2); n != 0 {
		t.Fatalf("second revoke touched %d files", n)
	}
}

// ---- satellite 2: leases are invisible to the wait-for edges ----
// (graph-level assertions live in internal/wfg, which may import lockmgr)

func TestWaitEdgesExcludeLeaseEntries(t *testing.T) {
	st := stats.NewSet()
	m := NewManager(st)

	// txn:TW queues behind site 2's lease on v/leased while its revoke is
	// in flight.  Before the fix, edge construction counted the lease as
	// a held lock, so the graph grew a "lease:site2" holder node that no
	// commit or abort could ever clear — feeding the detector a node that
	// looks like a stuck transaction and a phantom component to pick
	// victims from.
	leased := m.File("v/leased", nil)
	if !leased.GrantLease(2, ModeExclusive, 0, 100) {
		t.Fatal("grant refused")
	}
	waiterH := Holder{PID: 50, Txn: "TW"}
	go leased.Lock(Request{Holder: waiterH, Mode: ModeShared, Off: 0, Len: 10, Wait: true}) //nolint:errcheck
	waitQueueLen(t, leased, 1)

	if edges := m.WaitEdges(); len(edges) != 0 {
		t.Fatalf("lease-only block produced edges: %+v", edges)
	}

	// A real blocker alongside the lease still yields exactly its edge.
	mustLock(t, leased, txnB, ModeShared, 200, 10)
	h3 := Holder{PID: 51, Txn: "TX"}
	go leased.Lock(Request{Holder: h3, Mode: ModeExclusive, Off: 200, Len: 10, Wait: true}) //nolint:errcheck
	waitQueueLen(t, leased, 2)
	edges := m.WaitEdges()
	if len(edges) != 1 || edges[0].Waiter != h3.Group() || edges[0].Holder != txnB.Group() {
		t.Fatalf("edges = %+v, want exactly %s -> %s", edges, h3.Group(), txnB.Group())
	}

	m.ReleaseGroup(txnB.Group())
	m.ReleaseGroup(h3.Group())
	leased.RevokeLease(2)
	m.ReleaseGroup(waiterH.Group())
}

// waitQueueLen polls until the file's wait queue reaches n.
func waitQueueLen(t *testing.T, fl *FileLocks, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for fl.QueueLength() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue never reached %d (at %d)", n, fl.QueueLength())
		}
		time.Sleep(time.Millisecond)
	}
}
