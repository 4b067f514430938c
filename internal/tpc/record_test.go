package tpc

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// threeSiteFiles spans three participant sites and five files, past both
// of the coordinator record's inline arrays.
var threeSiteFiles = []proc.FileRef{
	{FileID: "c/2", StorageSite: 4},
	{FileID: "a/1", StorageSite: 2},
	{FileID: "b/1", StorageSite: 3},
	{FileID: "a/0", StorageSite: 2},
	{FileID: "c/1", StorageSite: 4},
}

// filesTransport is a fakeTransport that keeps the file list each site was
// last asked to prepare.
type filesTransport struct {
	*fakeTransport
	sent map[simnet.SiteID][]string
}

func (f *filesTransport) SendPrepare(site simnet.SiteID, txid string, files []string, coord simnet.SiteID) (Vote, error) {
	f.mu.Lock()
	f.sent[site] = append([]string(nil), files...)
	f.mu.Unlock()
	return f.fakeTransport.SendPrepare(site, txid, files, coord)
}

// TestThreeSiteCoordinator: a transaction past the record's inline
// capacity prepares each site with exactly its own files and commits
// everywhere; one that fails a vote aborts at every site that was still in
// the protocol, and a read-only voter drops out of that abort.
func TestThreeSiteCoordinator(t *testing.T) {
	t.Run("commits", func(t *testing.T) {
		v := coordVolume(t)
		tr := &filesTransport{newFakeTransport(), map[simnet.SiteID][]string{}}
		st := stats.NewSet()
		c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true})
		if err := c.CommitTransaction("T1", threeSiteFiles); err != nil {
			t.Fatal(err)
		}
		want := map[simnet.SiteID][]string{2: {"a/0", "a/1"}, 3: {"b/1"}, 4: {"c/1", "c/2"}}
		for site, files := range want {
			if !slices.Equal(tr.sent[site], files) {
				t.Errorf("site %v prepared %v, want %v", site, tr.sent[site], files)
			}
			if tr.count(tr.commits, site) != 1 || tr.count(tr.aborts, site) != 0 {
				t.Errorf("site %v: commits=%d aborts=%d", site, tr.count(tr.commits, site), tr.count(tr.aborts, site))
			}
		}
		if c.PendingCount() != 0 || len(v.Log().Keys()) != 0 {
			t.Fatalf("pending=%d log=%v after phase two", c.PendingCount(), v.Log().Keys())
		}
		if st.Get(stats.TxnCommits) != 1 || st.Get(stats.RemoteParticipants) != 3 {
			t.Fatalf("commits=%d remote participants=%d", st.Get(stats.TxnCommits), st.Get(stats.RemoteParticipants))
		}
	})
	t.Run("aborts on a failed vote", func(t *testing.T) {
		v := coordVolume(t)
		tr := newFakeTransport()
		tr.failPrepare[3] = true
		c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true})
		if err := c.CommitTransaction("T2", threeSiteFiles); !errors.Is(err, ErrPrepareFailed) {
			t.Fatalf("got %v, want ErrPrepareFailed", err)
		}
		for _, site := range []simnet.SiteID{2, 3, 4} {
			if tr.count(tr.aborts, site) != 1 || tr.count(tr.commits, site) != 0 {
				t.Errorf("site %v: aborts=%d commits=%d", site, tr.count(tr.aborts, site), tr.count(tr.commits, site))
			}
		}
		if c.PendingCount() != 0 || len(v.Log().Keys()) != 0 || c.StatusOf("T2") != StatusAborted {
			t.Fatalf("pending=%d log=%v status=%v", c.PendingCount(), v.Log().Keys(), c.StatusOf("T2"))
		}
	})
	t.Run("read-only voter skips the abort", func(t *testing.T) {
		v := coordVolume(t)
		tr := newFakeTransport()
		tr.votes[2] = VoteReadOnly
		tr.failPrepare[4] = true
		c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true, FastPaths: true})
		if err := c.CommitTransaction("T3", threeSiteFiles); !errors.Is(err, ErrPrepareFailed) {
			t.Fatalf("got %v, want ErrPrepareFailed", err)
		}
		for site, want := range map[simnet.SiteID]int{2: 0, 3: 1, 4: 1} {
			if got := tr.count(tr.aborts, site); got != want {
				t.Errorf("site %v: aborts=%d, want %d", site, got, want)
			}
		}
	})
}

// applyTransport models participants that apply a commit once: a
// duplicate is acknowledged without applying again.  While gate is open
// (nil) commits pass straight through; otherwise each waits for it.
type applyTransport struct {
	*fakeTransport
	gate    chan struct{}
	entered int
	applied map[string]int // "site/txid" -> times applied
	dups    int
}

func (a *applyTransport) SendCommit(site simnet.SiteID, txid string) error {
	a.mu.Lock()
	a.entered++
	gate := a.gate
	a.mu.Unlock()
	if gate != nil {
		<-gate
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	key := fmt.Sprintf("%v/%s", site, txid)
	if a.applied[key] > 0 {
		a.dups++
		return nil
	}
	a.applied[key]++
	return nil
}

func (a *applyTransport) read(fn func()) {
	a.mu.Lock()
	defer a.mu.Unlock()
	fn()
}

// waitUntil polls cond for up to five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestRetryOverlapsAsyncPhase2 runs a retry pass while a transaction's
// asynchronous phase two is still in flight, on the real clock, each
// participant holding its first commit: the retry leaves the transaction
// to its pass and counts it unacknowledged, so each site hears the commit
// once (a second pass would send it again, and a participant refuses a
// duplicate it is still applying), and the coordinator log record is
// deleted once.  Then retry passes run back to back throughout four
// clients' commits, so they overlap committing calls and their own phase
// two: every site of every transaction still applies its commit once, and
// -race sees the records shared without a data race.
func TestRetryOverlapsAsyncPhase2(t *testing.T) {
	base := runtime.NumGoroutine()
	v := coordVolume(t)
	tr := &applyTransport{fakeTransport: newFakeTransport(), gate: make(chan struct{}), applied: map[string]int{}}
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{})
	if err := c.CommitTransaction("T1", threeSiteFiles); err != nil {
		t.Fatal(err)
	}
	before := v.Stats().Snapshot()
	entered := func(n int) func() bool {
		return func() bool { k := 0; tr.read(func() { k = tr.entered }); return k == n }
	}
	waitUntil(t, "the asynchronous pass to reach every site", entered(3))
	var mu sync.Mutex
	left := -1
	go func() { n := c.RetryPending(); mu.Lock(); left = n; mu.Unlock() }()
	waitUntil(t, "the retry pass to return", func() bool { mu.Lock(); defer mu.Unlock(); return left >= 0 })
	if left != 1 {
		t.Fatalf("RetryPending = %d, want 1: the transaction in flight is still unacknowledged", left)
	}
	close(tr.gate)
	waitUntil(t, "phase two to finish", func() bool { return c.PendingCount() == 0 })
	tr.read(func() {
		if tr.entered != 3 || tr.dups != 0 {
			t.Errorf("%d commit deliveries (%d duplicates), want one to each of 3 sites", tr.entered, tr.dups)
		}
		for _, site := range []simnet.SiteID{2, 3, 4} {
			if n := tr.applied[fmt.Sprintf("%v/T1", site)]; n != 1 {
				t.Errorf("site %v applied the commit %d times", site, n)
			}
		}
	})
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("coordinator log not cleared: %v", v.Log().Keys())
	}
	if d := v.Stats().Snapshot().Sub(before); d.Get(stats.DiskWrites) != 1 {
		t.Fatalf("%d log writes after the commit point, want the one delete", d.Get(stats.DiskWrites))
	}

	tr.read(func() { tr.gate = nil })
	busy := NewCoordinator(1, coordVolume(t), tr, stats.NewSet(), Config{})
	done, retrying := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(retrying)
		for {
			select {
			case <-done:
				return
			default:
				busy.RetryPending()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if err := busy.CommitTransaction(fmt.Sprintf("R%d.%d", i, j), threeSiteFiles); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	<-retrying
	waitUntil(t, "the busy run's phase two to finish", func() bool { return busy.PendingCount() == 0 })
	tr.read(func() {
		for key, n := range tr.applied {
			if n != 1 {
				t.Errorf("%s applied %d times", key, n)
			}
		}
		if len(tr.applied) != 3+3*40 {
			t.Errorf("%d site commits applied, want %d", len(tr.applied), 3+3*40)
		}
	})
	waitGoroutines(t, func(g int) bool { return g <= base }, "passes outlived the test")
}

func waitGoroutines(t *testing.T, ok func(int) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if ok(runtime.NumGoroutine()) {
			return
		}
		runtime.Gosched()
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s (goroutines = %d)", msg, runtime.NumGoroutine())
}
