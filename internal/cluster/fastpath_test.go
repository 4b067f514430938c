package cluster

import (
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/stats"
	"repro/internal/tpc"
)

// Participant-side behavior of the commit fast paths (DESIGN.md section
// 10), driven through real sites: the read-only voter forces no prepare
// record and receives no phase-two message, the one-phase participant
// carries the commit point in its own log, and recovery resolves both
// without a coordinator.

func TestClusterReadOnlyParticipant(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true})
	s1 := cl.Site(1)
	const txid = "RO1"
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)

	// Write va/f locally; shared-read vb/g at the remote site.
	for _, path := range []string{"va/f", "vb/g"} {
		if err := s1.Create(path); err != nil {
			t.Fatal(err)
		}
	}
	fid, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Lock(fid, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(fid, pid, txid, 0, []byte("COMMITME")); err != nil {
		t.Fatal(err)
	}
	gid, _, err := s1.Open("vb/g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Lock(gid, pid, txid, lockmgr.ModeShared, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}

	coord, err := s1.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	files := []proc.FileRef{
		{FileID: "va/f", StorageSite: 1},
		{FileID: "vb/g", StorageSite: 2},
	}
	before := cl.Stats().Snapshot()
	if err := coord.CommitTransaction(txid, files); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)

	// Only the writer site forced a prepare record.
	if got := d.Get(stats.PrepareLogWrites); got != 1 {
		t.Fatalf("PrepareLogWrites = %d, want 1 (read-only site forces nothing)", got)
	}
	if got := d.Get(stats.ReadOnlyVotes); got != 1 {
		t.Fatalf("ReadOnlyVotes = %d, want 1", got)
	}
	// One round trip to site 2 - the prepare exchange - and nothing
	// else: the read-only voter receives no phase-two message.  (The
	// writer participant is the coordinator's own site: local calls.)
	if got := d.Get(stats.MsgsSent); got != 2 {
		t.Fatalf("MsgsSent = %d, want 2 (prepare round trip only)", got)
	}
	// Site 2 kept no transaction state and released its read lock.
	if recs, _ := tpc.ReadPrepareRecords(cl.Site(2).Volume("vb")); len(recs) != 0 {
		t.Fatalf("read-only site has prepare records: %+v", recs)
	}
	pid2 := cl.NewPID()
	cl.Site(2).Procs().NewProcess(pid2, 0)
	gid2, _, err := cl.Site(2).Open("vb/g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Site(2).Lock(gid2, pid2, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatalf("read lock not released at prepare time: %v", err)
	}
	// The write committed.
	if _, committed, _ := s1.Stat(fid); committed != 8 {
		t.Fatalf("va/f committed = %d, want 8", committed)
	}
}

func TestClusterOnePhaseCommit(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true})
	s2 := cl.Site(2) // coordinator remote from the storage site
	const txid = "OP1"
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)

	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	fid, _, err := s2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lock(fid, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write(fid, pid, txid, 0, []byte("COMMITME")); err != nil {
		t.Fatal(err)
	}

	coord, err := s2.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Snapshot()
	if err := coord.CommitTransaction(txid, []proc.FileRef{{FileID: "va/f", StorageSite: 1}}); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)

	// The commit point moved to the participant's prepare-record force:
	// zero coordinator-side log I/O, one prepare-log force, and a single
	// round trip on the wire.
	if got := d.Get(stats.CoordLogWrites); got != 0 {
		t.Fatalf("CoordLogWrites = %d, want 0", got)
	}
	if got := d.Get(stats.PrepareLogWrites); got != 1 {
		t.Fatalf("PrepareLogWrites = %d, want 1", got)
	}
	if got := d.Get(stats.MsgsSent); got != 2 {
		t.Fatalf("MsgsSent = %d, want 2 (one combined exchange)", got)
	}
	if got := d.Get(stats.OnePhaseCommits); got != 1 {
		t.Fatalf("OnePhaseCommits = %d, want 1", got)
	}
	// The participant applied and cleaned up inside the exchange.
	if recs, _ := tpc.ReadPrepareRecords(cl.Site(1).Volume("va")); len(recs) != 0 {
		t.Fatalf("residual prepare records: %+v", recs)
	}
	if _, committed, _ := s2.Stat(fid); committed != 8 {
		t.Fatalf("committed = %d, want 8", committed)
	}
	pid1 := cl.NewPID()
	cl.Site(1).Procs().NewProcess(pid1, 0)
	fid1, _, err := cl.Site(1).Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Site(1).Lock(fid1, pid1, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatalf("locks not released after one-phase commit: %v", err)
	}
}

// onePhasePrepared drives a transaction to the point where its one-phase
// prepare records are on disk but the outcome has not been applied -
// the window a crash exposes.
func onePhasePrepared(t *testing.T, cl *Cluster, txid string, total int) *Site {
	t.Helper()
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	fid, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Lock(fid, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(fid, pid, txid, 0, []byte("COMMITME")); err != nil {
		t.Fatal(err)
	}
	// Coord site 9 does not exist: any status query would fail, proving
	// one-phase resolution never asks.
	req := prepareReq{Txid: txid, FileIDs: []string{"va/f"}, Coord: 9}
	preps, _, err := s1.kernel().gatherPrepare(req)
	if err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		total = s1.kernel().prepareRecordCount(preps)
	}
	if err := s1.kernel().writePrepareRecords(req, preps, total); err != nil {
		t.Fatal(err)
	}
	return s1
}

func TestOnePhaseRecoveryCommitsCompleteSet(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true})
	s1 := onePhasePrepared(t, cl, "OPR1", 0)

	// Crash after the force (the commit point), before the apply.
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	// The complete record set self-resolves to committed - no
	// coordinator involved (site 9 is unreachable by construction).
	if n := s1.InDoubtCount(); n != 0 {
		t.Fatalf("in doubt = %d, want 0 (self-resolved)", n)
	}
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	fid, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, committed, _ := s1.Stat(fid); committed != 8 {
		t.Fatalf("committed = %d, want 8 (complete one-phase set must commit)", committed)
	}
	if _, err := s1.Lock(fid, pid, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatalf("locks not released: %v", err)
	}
	if recs, _ := tpc.ReadPrepareRecords(s1.Volume("va")); len(recs) != 0 {
		t.Fatalf("residual prepare records: %+v", recs)
	}
}

func TestOnePhaseRecoveryAbortsTornSet(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true})
	// The record claims a set of 2 but only 1 survives: the final force
	// - the commit point - never landed, so recovery must abort.
	s1 := onePhasePrepared(t, cl, "OPR2", 2)

	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := s1.InDoubtCount(); n != 0 {
		t.Fatalf("in doubt = %d, want 0 (self-resolved)", n)
	}
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	fid, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, committed, _ := s1.Stat(fid); committed != 0 {
		t.Fatalf("committed = %d, want 0 (torn one-phase set must abort)", committed)
	}
	if _, err := s1.Lock(fid, pid, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatalf("locks not released: %v", err)
	}
	if recs, _ := tpc.ReadPrepareRecords(s1.Volume("va")); len(recs) != 0 {
		t.Fatalf("residual prepare records: %+v", recs)
	}
}

func TestAbortRefusedPastOnePhaseCommitPoint(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true})
	s1 := cl.Site(1)
	// A live one-phase entry exists only after its records were forced -
	// past the commit point.  A late abort (the coordinator lost the
	// ack) must be refused, not applied.
	s1.kernel().mu.Lock()
	s1.kernel().prepared["OPX"] = &preparedTxn{onePhase: true}
	s1.kernel().mu.Unlock()
	if err := s1.kernel().handleAbortTxn(abortTxnReq{Txid: "OPX"}); err == nil {
		t.Fatal("abort accepted past the one-phase commit point")
	}
}
