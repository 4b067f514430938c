package cluster

import (
	"errors"
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/tpc"
	"repro/internal/vtime"
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

	// Two modified files keep the one-phase commit on the record path: a
	// transaction that changed one file commits at its inode write
	// (TestOneFileOnePhaseCommitForcesOnce).
	var fid *Binding
	for _, path := range []string{"va/f", "va/g"} {
		if err := s2.Create(path); err != nil {
			t.Fatal(err)
		}
		b, _, err := s2.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Lock(b, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Write(b, pid, txid, 0, []byte("COMMITME")); err != nil {
			t.Fatal(err)
		}
		if fid == nil {
			fid = b
		}
	}

	coord, err := s2.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Snapshot()
	if err := coord.CommitTransaction(txid, []proc.FileRef{{FileID: "va/f", StorageSite: 1}, {FileID: "va/g", StorageSite: 1}}); err != nil {
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
	sc, _, err := s1.kernel().gatherPrepare(req)
	if err != nil {
		t.Fatal(err)
	}
	defer prepScratches.Put(sc)
	if total == 0 {
		total = s1.kernel().prepareRecordCount(sc.preps)
	}
	if err := s1.kernel().writePrepareRecords(req, sc.preps, total); err != nil {
		t.Fatal(err)
	}
	return s1
}

func TestOnePhaseRecoveryCommitsCompleteSet(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	s1 := onePhasePrepared(t, cl, "OPR1", 0)

	// Crash after the force (the commit point), before the apply.
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	settle(cl)
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
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	// The record claims a set of 2 but only 1 survives: the final force
	// - the commit point - never landed, so recovery must abort.
	s1 := onePhasePrepared(t, cl, "OPR2", 2)

	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	settle(cl)
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
	if err := s1.kernel().handleAbortTxn(txnReq{Txid: "OPX"}); err == nil {
		t.Fatal("abort accepted past the one-phase commit point")
	}
}

// oneFileTxn has a process at site 2 write data to each of paths (files
// of site 1's volume va, created on first use) in transaction txid, and
// returns the coordinator that is to commit it from site 2.
func oneFileTxn(t *testing.T, cl *Cluster, txid, data string, paths ...string) (*tpc.Coordinator, []proc.FileRef) {
	t.Helper()
	s2 := cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	var refs []proc.FileRef
	for _, path := range paths {
		b, _, err := s2.Open(path)
		if errors.Is(err, ErrNoSuchFile) {
			must(t, s2.Create(path))
			b, _, err = s2.Open(path)
		}
		must(t, err)
		if _, err := s2.Lock(b, pid, txid, lockmgr.ModeExclusive, 0, int64(len(data)), false, false, false); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Write(b, pid, txid, 0, []byte(data)); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, proc.FileRef{FileID: path, StorageSite: 1})
	}
	coord, err := s2.Coordinator()
	must(t, err)
	return coord, refs
}

// committedAt reads path's committed image at site 1.
func committedAt(t *testing.T, cl *Cluster, path string) string {
	t.Helper()
	img, err := cl.Site(1).kernel().committedImage(path)
	must(t, err)
	return string(img)
}

// TestOneFileOnePhaseCommitForcesOnce: a one-phase commit of a
// transaction that changed one file is that file's single-file commit.
// The participant writes the data page and the inode in one force, and
// nothing else: no prepare record is written, and the coordinator logs
// nothing.
func TestOneFileOnePhaseCommitForcesOnce(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	defer cl.Shutdown()
	coord, refs := oneFileTxn(t, cl, "OF1", "COMMITME", "va/f")
	disk := cl.Site(1).Volume("va").Disk()
	w0 := disk.StableWrites()
	before := cl.Stats().Snapshot()
	must(t, coord.CommitTransaction("OF1", refs))
	d := cl.Stats().Snapshot().Sub(before)
	if got := disk.StableWrites() - w0; got != 2 {
		t.Errorf("participant stable writes = %d, want 2 (data page, inode)", got)
	}
	if got := d.Get(stats.ForcedIOs); got != 1 {
		t.Errorf("ForcedIOs = %d, want 1", got)
	}
	if got := d.Get(stats.PrepareLogWrites) + d.Get(stats.CoordLogWrites); got != 0 {
		t.Errorf("log writes = %d, want 0", got)
	}
	if got := d.Get(stats.OnePhaseCommits); got != 1 {
		t.Errorf("OnePhaseCommits = %d, want 1", got)
	}
	if recs, err := tpc.ReadPrepareRecords(cl.Site(1).Volume("va")); err != nil || len(recs) != 0 {
		t.Errorf("prepare records %+v (%v), want none", recs, err)
	}
	if got := committedAt(t, cl, "va/f"); got != "COMMITME" {
		t.Errorf("committed %q, want COMMITME", got)
	}
}

// TestOneFileOnePhaseInodeFailureAborts: a disk failure at the inode
// write - before the commit point - aborts the transaction.  The
// participant rolls back, leaves no prepared entry that could read as
// committed, and recovery keeps the pre image.
func TestOneFileOnePhaseInodeFailureAborts(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	defer cl.Shutdown()
	coord, refs := oneFileTxn(t, cl, "OF1", "PREIMAGE", "va/f")
	must(t, coord.CommitTransaction("OF1", refs))
	coord, refs = oneFileTxn(t, cl, "OF2", "POSTIMAG", "va/f")
	s1 := cl.Site(1)
	s1.Volume("va").Disk().CrashAfterWritesOfKind(simdisk.IOInode, 0)
	if err := coord.CommitTransaction("OF2", refs); !errors.Is(err, tpc.ErrPrepareFailed) {
		t.Fatalf("commit with the inode write failing: %v, want ErrPrepareFailed", err)
	}
	k := s1.kernel()
	k.mu.Lock()
	pt := k.prepared["OF2"]
	k.mu.Unlock()
	if pt != nil {
		t.Fatalf("prepared entry left behind: %+v", pt)
	}
	if of, err := k.lookupOpen("va/f"); err == nil && of.file.Load().HasMods(shadow.Owner(k.txnName("OF2"))) {
		t.Error("the working state was not rolled back")
	}
	must(t, s1.Restart())
	if got := committedAt(t, cl, "va/f"); got != "PREIMAGE" {
		t.Errorf("recovered %q, want the pre image PREIMAGE", got)
	}
}

// TestOneFileOnePhaseLateAbortUndoesNothing: an abort that arrives after
// the one-file commit (the coordinator lost the reply) finds nothing to
// undo.
func TestOneFileOnePhaseLateAbortUndoesNothing(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	defer cl.Shutdown()
	coord, refs := oneFileTxn(t, cl, "OF1", "COMMITME", "va/f")
	must(t, coord.CommitTransaction("OF1", refs))
	must(t, cl.Site(1).kernel().handleAbortTxn(txnReq{Txid: "OF1"}))
	if got := committedAt(t, cl, "va/f"); got != "COMMITME" {
		t.Errorf("after a late abort: %q, want COMMITME", got)
	}
}

// TestTwoFilesOnePhaseForceRecordSet: two modified files at the one
// participant still commit at a complete prepare-record set.  With one
// record per file the set is two records; a disk failure at the first
// inode write comes after the commit point, so recovery commits both
// files from the logged intentions.
func TestTwoFilesOnePhaseForceRecordSet(t *testing.T) {
	cl := twoSiteCluster(t, Config{FastPaths: true, Clock: vtime.NewVirtual()})
	defer cl.Shutdown()
	s1 := cl.Site(1)
	s1.Volume("va").PerFilePrepareLogs = true
	coord, refs := oneFileTxn(t, cl, "OF1", "COMMITME", "va/f", "va/g")
	s1.Volume("va").Disk().CrashAfterWritesOfKind(simdisk.IOInode, 0)
	before := cl.Stats().Snapshot()
	coord.CommitTransaction("OF1", refs) //nolint:errcheck // the reply is lost with the disk; recovery decides
	if got := cl.Stats().Snapshot().Sub(before).Get(stats.PrepareLogWrites); got != 2 {
		t.Fatalf("PrepareLogWrites = %d, want 2 (one record per file)", got)
	}
	must(t, s1.Restart())
	settle(cl)
	if n := s1.InDoubtCount(); n != 0 {
		t.Fatalf("in doubt = %d, want 0 (self-resolved)", n)
	}
	for _, path := range []string{"va/f", "va/g"} {
		if got := committedAt(t, cl, path); got != "COMMITME" {
			t.Errorf("%s recovered %q, want COMMITME", path, got)
		}
	}
}
