package lockmgr

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// waitTurn is one wait of TestLockListCyclesAllocateNothing: an actor
// queues behind another group's lock and, once granted, releases it.
type waitTurn struct {
	m   *Manager
	fl  *FileLocks
	req Request
	res Result
	err error
}

func takeTurn(arg any, _ int) {
	wt := arg.(*waitTurn)
	wt.res, wt.err = wt.fl.Lock(wt.req)
	wt.m.ReleaseGroup(wt.req.Group)
}

// TestLockListCyclesAllocateNothing pins the steady state of a lock list
// on the virtual clock: once warmed up, a transaction's grants and
// release, a wait that another group's release grants, and a lease grant
// and its forget reuse the list's descriptors and wait records, so none
// of them allocates.
func TestLockListCyclesAllocateNothing(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	v := vtime.NewVirtual()
	st := stats.NewSet()
	m := NewManager(st)
	m.SetClock(v)
	fl := m.File("v/a", nil)
	gA, gB := txnA.Group(), txnB.Group()
	lockA := func(off int64) {
		if _, err := fl.Lock(Request{Holder: txnA, Group: gA, Mode: ModeExclusive, Off: off, Len: 8}); err != nil {
			t.Fatal(err)
		}
	}
	wt := &waitTurn{m: m, fl: fl, req: Request{Holder: txnB, Group: gB, Mode: ModeShared, Off: 4, Len: 8, Wait: true}}

	before := st.Snapshot()
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"grant and release", func() {
			lockA(0)
			lockA(8)
			lockA(4) // absorbs the two, carving their ends
			m.ReleaseGroup(gA)
		}},
		{"wait granted by a release", func() {
			lockA(0)
			vtime.GoArg(v, wt, takeTurn)
			vtime.Settle(v) // B queues behind A
			m.ReleaseGroup(gA)
			vtime.Settle(v) // B is granted, then releases
			if wt.err != nil || wt.res != (Result{Off: 4, Len: 8}) {
				t.Fatalf("the waiter got %+v, %v", wt.res, wt.err)
			}
		}},
		{"lease grant and forget", func() {
			if !fl.GrantLease(2, ModeShared, 0, 64) {
				t.Fatal("lease refused")
			}
			fl.RevokeLease(2)
		}},
	} {
		for i := 0; i < 4; i++ {
			c.cycle()
		}
		if n := testing.AllocsPerRun(100, c.cycle); n != 0 {
			t.Errorf("%s: %.1f allocations per cycle, want 0", c.name, n)
		}
	}
	if fl.Held(true) || fl.QueueLength() != 0 || indexSize(m) != 0 {
		t.Fatal("the cycles left lock state behind")
	}
	if n := st.Snapshot().Sub(before).Get(stats.LockWaits); n != 105 {
		t.Fatalf("%d waits, want 105: the wait cycle did not wait", n)
	}
}

// TestReusedWaitersKeepTheirOwnOutcome races short-timeout waits against
// the releases that grant them, on the real clock, with wait records
// reused throughout: every Lock returns either its own grant, held by its
// own group over its own range, or a timeout that leaves its group
// nothing, and a reused record never hands a later wait an earlier one's
// grant.
func TestReusedWaitersKeepTheirOwnOutcome(t *testing.T) {
	st := stats.NewSet()
	m := NewManager(st)
	fl := m.File("v/a", nil)
	const workers, rounds = 8, 150
	var wg sync.WaitGroup
	var mu sync.Mutex
	granted, timedOut := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			off := int64(4 * (w % 3)) // overlapping ranges: every pair conflicts
			for r := 0; r < rounds; r++ {
				h := Holder{PID: w + 1, Txn: fmt.Sprintf("w%d.%d", w, r)}
				group := h.Group()
				timeout := time.Duration(10+rng.Intn(400)) * time.Microsecond
				res, err := fl.Lock(Request{Holder: h, Mode: ModeExclusive, Off: off, Len: 8, Wait: true, Timeout: timeout})
				switch {
				case errors.Is(err, ErrTimeout):
					if got := fl.GroupEntries(nil, group); len(got) != 0 {
						t.Errorf("%s timed out holding %+v", group, got)
						return
					}
					mu.Lock()
					timedOut++
					mu.Unlock()
				case err != nil:
					t.Errorf("%s: %v", group, err)
					return
				default:
					if res != (Result{Off: off, Len: 8}) || !fl.Covers(h, ModeExclusive, off, 8) {
						t.Errorf("%s asked for [%d,%d) and got %+v, covered: %v", group, off, off+8, res, fl.Covers(h, ModeExclusive, off, 8))
						return
					}
					time.Sleep(time.Duration(rng.Intn(100)) * time.Microsecond)
					m.ReleaseGroup(group)
					mu.Lock()
					granted++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	waits := st.Get(stats.LockWaits)
	t.Logf("%d grants, %d timeouts, %d waits", granted, timedOut, waits)
	if granted+timedOut != workers*rounds && !t.Failed() {
		t.Fatalf("%d outcomes for %d requests", granted+timedOut, workers*rounds)
	}
	if fl.Held(true) || fl.QueueLength() != 0 || indexSize(m) != 0 {
		t.Fatal("lock state left after every request released or timed out")
	}
	fl.mu.Lock()
	idle := len(fl.idle)
	fl.mu.Unlock()
	if idle > workers || int64(idle) > waits {
		t.Fatalf("%d idle wait records after %d waits by %d workers", idle, waits, workers)
	}
}
