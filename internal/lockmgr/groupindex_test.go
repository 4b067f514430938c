package lockmgr

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// indexed reports the lock lists the table's group index holds for group.
func indexed(m *Manager, group string) int { return len(m.groupFiles(group)) }

// indexSize is the number of groups the table's index knows.
func indexSize(m *Manager) int {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return len(m.groups)
}

// TestGroupIndexFollowsEntriesAndWaiters walks every way a group can
// arrive on and leave a lock list and checks that the table's index says
// exactly where each group is, and is empty once everything is gone.
func TestGroupIndexFollowsEntriesAndWaiters(t *testing.T) {
	m := NewManager(stats.NewSet())
	f1, f2, f3 := m.File("v/f1", nil), m.File("v/f2", nil), m.File("v/f3", nil)

	// Grants, repeated and split, index each (group, file) once.
	mustLock(t, f1, txnA, ModeExclusive, 0, 10)
	mustLock(t, f1, txnA2, ModeExclusive, 5, 10)
	mustLock(t, f2, txnA, ModeShared, 0, 10)
	if n := indexed(m, txnA.Group()); n != 2 {
		t.Fatalf("T1 indexed on %d lists, want 2", n)
	}

	// A queued request is indexed while it waits, and stays (as an entry)
	// once the pump grants it.
	granted := make(chan error, 1)
	go func() {
		_, err := f1.Lock(Request{Holder: txnB, Mode: ModeExclusive, Off: 0, Len: 4, Wait: true})
		granted <- err
	}()
	for f1.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	if n := indexed(m, txnB.Group()); n != 1 {
		t.Fatalf("queued T2 indexed on %d lists, want 1", n)
	}
	if gs := m.GroupSummary(txnB.Group()); gs.Entries != 0 {
		t.Fatalf("a waiter is not a held entry: %+v", gs)
	}

	// The table-wide release visits only the group's lists and reports them.
	if visited := m.ReleaseGroup(txnA.Group()); len(visited) != 2 {
		t.Fatalf("ReleaseGroup visited %d lists, want 2", len(visited))
	}
	if err := <-granted; err != nil {
		t.Fatalf("queued T2 after release: %v", err)
	}
	if indexed(m, txnA.Group()) != 0 || indexed(m, txnB.Group()) != 1 {
		t.Fatalf("after release: T1 on %d, T2 on %d lists", indexed(m, txnA.Group()), indexed(m, txnB.Group()))
	}
	if gs := m.GroupSummary(txnB.Group()); gs.Entries != 1 || gs.MaxMode != ModeExclusive {
		t.Fatalf("T2 summary %+v", gs)
	}

	// A timed-out waiter and a cancelled one both leave the index.
	if _, err := f1.Lock(Request{Holder: txnA, Mode: ModeShared, Off: 0, Len: 4, Wait: true, Timeout: 5 * time.Millisecond}); err == nil {
		t.Fatal("conflicting wait should time out")
	}
	cancelled := make(chan error, 1)
	go func() {
		_, err := f1.Lock(Request{Holder: txnA, Mode: ModeShared, Off: 0, Len: 4, Wait: true})
		cancelled <- err
	}()
	for f1.QueueLength() == 0 {
		time.Sleep(time.Millisecond)
	}
	f1.CancelWaiters(txnA.Group())
	if err := <-cancelled; err == nil {
		t.Fatal("cancelled wait returned no error")
	}
	if n := indexed(m, txnA.Group()); n != 0 {
		t.Fatalf("T1 still indexed on %d lists after timeout and cancel", n)
	}

	// The per-list release (process close) and a real unlock un-index too.
	f1.ReleaseGroup(txnB.Group())
	mustLock(t, f2, procP, ModeExclusive, 0, 8)
	if _, err := f2.Unlock(procP, 0, 4); err != nil {
		t.Fatal(err)
	}
	if n := indexed(m, procP.Group()); n != 1 {
		t.Fatalf("half-unlocked process indexed on %d lists, want 1", n)
	}
	if _, err := f2.Unlock(procP, 4, 4); err != nil {
		t.Fatal(err)
	}

	// Leases: grant, escalate, revoke one file, reclaim the rest by site.
	for _, fl := range []*FileLocks{f1, f2, f3} {
		if !fl.GrantLease(2, ModeExclusive, 0, 8) {
			t.Fatal("lease refused on an idle list")
		}
	}
	if !f3.TryEscalateLease(2, "", ModeShared) {
		t.Fatal("escalation refused on a quiet list")
	}
	if n := indexed(m, leaseGroup(2)); n != 3 {
		t.Fatalf("lease group indexed on %d lists, want 3", n)
	}
	if !f1.RevokeLease(2) || indexed(m, leaseGroup(2)) != 2 {
		t.Fatalf("after one revoke the lease group is on %d lists, want 2", indexed(m, leaseGroup(2)))
	}
	if n := m.RevokeSiteLeases(2); n != 2 {
		t.Fatalf("RevokeSiteLeases reclaimed %d lists, want 2", n)
	}

	// Drop severs a list that still has state, and the list stops reporting.
	mustLock(t, f3, procQ, ModeShared, 0, 1)
	m.Drop("v/f3")
	mustLock(t, f3, procP, ModeShared, 0, 1)
	if n := indexSize(m); n != 0 {
		t.Fatalf("group index holds %d groups after everything was released, revoked or dropped", n)
	}
}

// TestGroupQueriesDoNotAllocate pins the end-of-transaction and
// prepare-time queries at zero allocations, on a table with other
// groups' state around.
func TestGroupQueriesDoNotAllocate(t *testing.T) {
	m := NewManager(stats.NewSet())
	var lists []*FileLocks
	for _, id := range []string{"v/a", "v/b", "v/c", "v/d"} {
		fl := m.File(id, nil)
		lists = append(lists, fl)
		mustLock(t, fl, txnA, ModeShared, 0, 8)
		mustLock(t, fl, txnA, ModeExclusive, 16, 8)
		mustLock(t, fl, procP, ModeShared, 0, 8)
		fl.GrantLease(2, ModeShared, 32, 8)
	}
	group, absent := txnA.Group(), txnB.Group()
	buf := make([]EntryInfo, 0, 8)
	for name, fn := range map[string]func(){
		"GroupSummary":        func() { m.GroupSummary(group) },
		"GroupSummary/absent": func() { m.GroupSummary(absent) },
		"ReleaseGroup/absent": func() { m.ReleaseGroup(absent) },
		"Held":                func() { lists[0].Held(true); lists[0].Held(false) },
		"GroupEntries":        func() { buf = lists[1].GroupEntries(buf[:0], group) },
		"Covers":              func() { lists[2].Covers(txnA, ModeShared, 0, 8) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %.0f times per call, want 0", name, n)
		}
	}
	if gs := m.GroupSummary(group); gs.Entries != 8 || gs.MaxMode != ModeExclusive {
		t.Fatalf("summary %+v, want 8 entries up to exclusive", gs)
	}
	if len(buf) != 2 || buf[0].Off != 0 || buf[1].Off != 16 {
		t.Fatalf("GroupEntries = %+v, want T1's two ranges in offset order", buf)
	}

	// A release that finds nothing of the group leaves the list's backing
	// array alone; one that removes entries filters it in place.
	fl := lists[3]
	before := &fl.entries[0]
	fl.ReleaseGroup(absent)
	fl.ReleaseGroup(group)
	fl.RevokeLease(2)
	if len(fl.entries) != 1 || &fl.entries[0] != before {
		t.Fatalf("release/revoke reallocated the lock list (%d entries left)", len(fl.entries))
	}
}

// TestGroupEntriesMatchesEntries pins the prepare-record order: the
// per-group view is Entries() restricted to the group.
func TestGroupEntriesMatchesEntries(t *testing.T) {
	fl := fileLocks(0)
	for _, off := range []int64{40, 8, 24, 0, 32, 16} {
		mustLock(t, fl, txnA, ModeExclusive, off, 4)
		mustLock(t, fl, txnB, ModeShared, off+4, 4)
	}
	var want []EntryInfo
	for _, e := range fl.Entries() {
		if e.Holder.Group() == txnA.Group() {
			want = append(want, e)
		}
	}
	got := fl.GroupEntries(nil, txnA.Group())
	if len(got) != len(want) {
		t.Fatalf("GroupEntries returned %d entries, Entries has %d of the group", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestGroupIndexConcurrentMembers has several member processes of each
// transaction lock, summarize and partly unlock across shared files at
// once, with lease grants and reclaims alongside (run with -race): the
// index must end empty and no release may miss a lock.
func TestGroupIndexConcurrentMembers(t *testing.T) {
	m := NewManager(stats.NewSet())
	files := []string{"v/a", "v/b", "v/c", "v/d", "v/e", "v/f"}
	const txns, members, rounds = 4, 3, 40
	var wg sync.WaitGroup
	for x := 0; x < txns; x++ {
		var txnWG sync.WaitGroup
		txid := fmt.Sprintf("T%d", x)
		for p := 0; p < members; p++ {
			wg.Add(1)
			txnWG.Add(1)
			go func(x, p int) {
				defer wg.Done()
				defer txnWG.Done()
				h := Holder{PID: 10*x + p, Txn: txid}
				for r := 0; r < rounds; r++ {
					fl := m.File(files[(r+p)%len(files)], nil)
					// Each transaction owns a disjoint stripe of every file.
					if _, err := fl.Lock(Request{Holder: h, Mode: ModeExclusive, Off: int64(1000*x + 8*r), Len: 8, NonTxn: r%2 == 0, FromSite: 9}); err != nil {
						t.Errorf("%s lock: %v", txid, err)
						return
					}
					if r%2 == 0 {
						fl.Unlock(h, int64(1000*x+8*r), 8) //nolint:errcheck // a NonTxn-mode lock really releases
					}
					m.GroupSummary(h.Group())
					fl.GrantLease(1+x%2, ModeShared, int64(100000+8*r), 8)
				}
			}(x, p)
		}
		wg.Add(1)
		go func(x int) { // the top-level process: commit when the members are done
			defer wg.Done()
			txnWG.Wait()
			group := Holder{Txn: txid}.Group()
			m.ReleaseGroup(group)
			if gs := m.GroupSummary(group); gs.Entries != 0 {
				t.Errorf("%s holds %d entries after its release", txid, gs.Entries)
			}
			m.RevokeSiteLeases(1 + x%2)
		}(x)
	}
	wg.Wait()
	m.RevokeSiteLeases(1)
	m.RevokeSiteLeases(2)
	if n := indexSize(m); n != 0 {
		t.Fatalf("group index holds %d groups after every transaction released", n)
	}
	for _, id := range files {
		if m.Lookup(id).Held(true) {
			t.Fatalf("%s still holds locks", id)
		}
	}
}
