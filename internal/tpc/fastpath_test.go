package tpc

import (
	"errors"
	"testing"
	"time"

	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Coordinator-side behavior of the commit fast paths (DESIGN.md section
// 10).  The participant-side halves (skipping the prepare-record force,
// the one-phase commit point) live in the cluster package tests.

func TestReadOnlyVoteSkipsPhase2(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.votes[3] = VoteReadOnly // volB/1 site did only shared reads
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true, FastPaths: true})

	if err := c.CommitTransaction("T1", testFiles); err != nil {
		t.Fatal(err)
	}
	// The read-only site was prepared but dropped out of phase two.
	if tr.count(tr.prepares, 3) != 1 || tr.count(tr.commits, 3) != 0 {
		t.Fatalf("read-only site: prepares=%d commits=%d, want 1/0",
			tr.count(tr.prepares, 3), tr.count(tr.commits, 3))
	}
	// The writer site still ran the full protocol.
	if tr.count(tr.prepares, 2) != 1 || tr.count(tr.commits, 2) != 1 {
		t.Fatalf("writer site: prepares=%d commits=%d, want 1/1",
			tr.count(tr.prepares, 2), tr.count(tr.commits, 2))
	}
	if c.PendingCount() != 0 || c.StatusOf("T1") != StatusCommitted {
		t.Fatalf("pending=%d status=%v", c.PendingCount(), c.StatusOf("T1"))
	}
	if st.Get(stats.ReadOnlyVotes) != 1 {
		t.Fatalf("ReadOnlyVotes = %d, want 1", st.Get(stats.ReadOnlyVotes))
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("coordinator log not cleared: %v", v.Log().Keys())
	}
}

func TestAllReadOnlySkipsCommitForce(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.votes[2] = VoteReadOnly
	tr.votes[3] = VoteReadOnly
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true, FastPaths: true})

	before := v.Stats().Snapshot()
	if err := c.CommitTransaction("T1", testFiles); err != nil {
		t.Fatal(err)
	}
	d := v.Stats().Snapshot().Sub(before)
	// Step 1 is written before the votes are known, but the commit-mark
	// flip is skipped: one log write instead of Figure 5's two.
	if d.Get(stats.CoordLogWrites) != 1 {
		t.Fatalf("CoordLogWrites = %d, want 1 (no commit-mark force)", d.Get(stats.CoordLogWrites))
	}
	// Nobody gets a phase-two message.
	for _, site := range []simnet.SiteID{2, 3} {
		if tr.count(tr.commits, site) != 0 || tr.count(tr.aborts, site) != 0 {
			t.Fatalf("site %v received an outcome message", site)
		}
	}
	if c.StatusOf("T1") != StatusCommitted || st.Get(stats.TxnCommits) != 1 {
		t.Fatalf("status=%v commits=%d", c.StatusOf("T1"), st.Get(stats.TxnCommits))
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("coordinator log not reclaimed: %v", v.Log().Keys())
	}
}

func TestReadOnlyVoterExcludedFromAbort(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.votes[3] = VoteReadOnly // released its locks at prepare time
	tr.failPrepare[2] = true   // the writer site refuses
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true, FastPaths: true})

	if err := c.CommitTransaction("T1", testFiles); !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("err = %v", err)
	}
	// The read-only voter holds no transaction state: it must not be
	// bothered with the abort.
	if tr.count(tr.aborts, 3) != 0 {
		t.Fatalf("read-only voter got %d aborts", tr.count(tr.aborts, 3))
	}
	if tr.count(tr.aborts, 2) != 1 {
		t.Fatalf("refusing site got %d aborts, want 1", tr.count(tr.aborts, 2))
	}
	if c.StatusOf("T1") != StatusAborted {
		t.Fatalf("status = %v", c.StatusOf("T1"))
	}
}

func TestOnePhaseCommitSingleSite(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true, FastPaths: true})

	before := v.Stats().Snapshot()
	if err := c.CommitTransaction("T1", testFiles[:2]); err != nil { // both files on site 2
		t.Fatal(err)
	}
	d := v.Stats().Snapshot().Sub(before)
	// The commit point is the participant's prepare-record force: the
	// coordinator logs nothing at all.
	if d.Get(stats.CoordLogWrites) != 0 {
		t.Fatalf("CoordLogWrites = %d, want 0", d.Get(stats.CoordLogWrites))
	}
	if tr.count(tr.prepCommits, 2) != 1 || tr.count(tr.prepares, 2) != 0 || tr.count(tr.commits, 2) != 0 {
		t.Fatalf("site 2: prepCommits=%d prepares=%d commits=%d, want 1/0/0",
			tr.count(tr.prepCommits, 2), tr.count(tr.prepares, 2), tr.count(tr.commits, 2))
	}
	if st.Get(stats.OnePhaseCommits) != 1 || st.Get(stats.TxnCommits) != 1 {
		t.Fatalf("OnePhaseCommits=%d TxnCommits=%d", st.Get(stats.OnePhaseCommits), st.Get(stats.TxnCommits))
	}
	if c.PendingCount() != 0 || c.StatusOf("T1") != StatusCommitted {
		t.Fatalf("pending=%d status=%v", c.PendingCount(), c.StatusOf("T1"))
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("coordinator log written on one-phase path: %v", v.Log().Keys())
	}
}

func TestOnePhaseRequiresFastPaths(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true}) // FastPaths off

	before := v.Stats().Snapshot()
	if err := c.CommitTransaction("T1", testFiles[:2]); err != nil {
		t.Fatal(err)
	}
	// Paper-exact mode: the ordinary protocol, even for one site.
	d := v.Stats().Snapshot().Sub(before)
	if d.Get(stats.CoordLogWrites) != 2 {
		t.Fatalf("CoordLogWrites = %d, want 2", d.Get(stats.CoordLogWrites))
	}
	if tr.count(tr.prepCommits, 2) != 0 || tr.count(tr.prepares, 2) != 1 || tr.count(tr.commits, 2) != 1 {
		t.Fatalf("site 2: prepCommits=%d prepares=%d commits=%d, want 0/1/1",
			tr.count(tr.prepCommits, 2), tr.count(tr.prepares, 2), tr.count(tr.commits, 2))
	}
}

func TestOnePhaseFailureAborts(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.failPrepare[2] = true
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true, FastPaths: true})

	err := c.CommitTransaction("T1", testFiles[:2])
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("err = %v", err)
	}
	// Best-effort abort so an un-prepared participant rolls back its
	// working state; if the participant actually committed and only the
	// ack was lost, its one-phase record refuses the abort and recovery
	// self-resolves.
	if tr.count(tr.aborts, 2) != 1 {
		t.Fatalf("aborts = %d, want 1", tr.count(tr.aborts, 2))
	}
	if c.StatusOf("T1") != StatusAborted || st.Get(stats.TxnAborts) != 1 {
		t.Fatalf("status=%v aborts=%d", c.StatusOf("T1"), st.Get(stats.TxnAborts))
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("log keys = %v", v.Log().Keys())
	}
}

func TestPhase2ParallelDelivery(t *testing.T) {
	// A slow participant must not delay commit delivery to healthy
	// sites.  Site 2 (first in sorted order, so a serial loop would
	// stall behind it) sleeps; sites 3 and 4 must still receive their
	// commits almost immediately.
	v := coordVolume(t)
	tr := newFakeTransport()
	const slow = 300 * time.Millisecond
	tr.commitDelay[2] = slow
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true, FastPaths: true})

	refs := append(append([]proc.FileRef(nil), testFiles...), // volA on 2, volB on 3
		proc.FileRef{FileID: "volC/1", StorageSite: 4})
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- c.CommitTransaction("T1", refs) }()

	// Healthy sites get their commit well before the slow site wakes.
	deadline := time.After(slow / 2)
	for {
		if tr.count(tr.commits, 3) == 1 && tr.count(tr.commits, 4) == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("healthy sites not committed within %v: commits=%d/%d",
				slow/2, tr.count(tr.commits, 3), tr.count(tr.commits, 4))
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if elapsed := time.Since(start); elapsed >= slow {
		t.Fatalf("healthy delivery took %v, not parallel with the slow site", elapsed)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if tr.count(tr.commits, 2) != 1 || c.PendingCount() != 0 {
		t.Fatalf("slow site commits=%d pending=%d", tr.count(tr.commits, 2), c.PendingCount())
	}
}
