package cluster

import (
	"bytes"
	"errors"
	"testing"

	"fmt"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tpc"
)

// twoSiteCluster builds sites 1 and 2 with volumes "va" (site 1) and
// "vb" (site 2).
func twoSiteCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.SyncPhase2 = true
	cl := New(cfg)
	cl.AddSite(1)
	cl.AddSite(2)
	if err := cl.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddVolume(2, "vb"); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestNamespaceAndStorageSites(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	if site, err := cl.StorageSite("va/x"); err != nil || site != 1 {
		t.Fatalf("va -> %v, %v", site, err)
	}
	if site, err := cl.StorageSite("vb/x"); err != nil || site != 2 {
		t.Fatalf("vb -> %v, %v", site, err)
	}
	if _, err := cl.StorageSite("nope/x"); !errors.Is(err, ErrNoSuchVolume) {
		t.Fatalf("unknown volume: %v", err)
	}
	if _, err := cl.StorageSite("bad"); !errors.Is(err, ErrBadPath) {
		t.Fatalf("bad path: %v", err)
	}
	if err := cl.AddVolume(1, "va"); err == nil {
		t.Fatal("duplicate mount accepted")
	}
}

func TestLocalAndRemoteFileIO(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)

	for _, path := range []string{"va/local", "vb/remote"} {
		if err := s1.Create(path); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		id, size, err := s1.Open(path)
		if err != nil || id != path || size != 0 {
			t.Fatalf("open %s = %q, %d, %v", path, id, size, err)
		}
		data := []byte("payload for " + path)
		if n, err := s1.Write(id, pid, "", 3, data); err != nil || n != len(data) {
			t.Fatalf("write: %d, %v", n, err)
		}
		got, err := s1.Read(id, pid, "", 3, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read %s = %q, %v", path, got, err)
		}
		size, committed, err := s1.Stat(id)
		if err != nil || size != int64(3+len(data)) || committed != 0 {
			t.Fatalf("stat = %d, %d, %v", size, committed, err)
		}
		if err := s1.Close(id, pid, ""); err != nil {
			t.Fatal(err)
		}
	}
	names, err := s1.List("vb")
	if err != nil || len(names) != 1 || names[0] != "remote" {
		t.Fatalf("list vb = %v, %v", names, err)
	}
}

func TestRemoteOpsCostMessages(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	// Local write: no messages.
	before := cl.Stats().Snapshot()
	if _, err := s1.Write(id, pid, "", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("local write sent %d messages", d.Get(stats.MsgsSent))
	}
	// Remote write from site 2: one round trip (2 messages).
	s2 := cl.Site(2)
	pid2 := cl.NewPID()
	s2.Procs().NewProcess(pid2, 0)
	id2, _, err := s2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	before = cl.Stats().Snapshot()
	if _, err := s2.Write(id2, pid2, "", 100, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 2 {
		t.Fatalf("remote write sent %d messages, want 2", d.Get(stats.MsgsSent))
	}
}

func TestNonTxnCloseCommits(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Write(id, pid, "", 0, []byte("durable")); err != nil {
		t.Fatal(err)
	}
	_, committed, _ := s1.Stat(id)
	if committed != 0 {
		t.Fatal("committed before close")
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	// Crash the storage site: the close-committed data must survive.
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	id, size, err := s1.Open("va/f")
	if err != nil || size != 7 {
		t.Fatalf("after restart: %d, %v", size, err)
	}
	got, err := s1.Read(id, pid+1000, "", 0, 7)
	if err != nil || string(got) != "durable" {
		t.Fatalf("read = %q, %v", got, err)
	}
}

func TestUncommittedLostOnCrash(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Write(id, pid, "", 0, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	_, size, err := s1.Open("va/f")
	if err != nil || size != 0 {
		t.Fatalf("uncommitted data survived: size=%d err=%v", size, err)
	}
}

func TestSyncMakesDurable(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Write(id, pid, "", 0, []byte("synced")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Sync(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	_, size, err := s1.Open("va/f")
	if err != nil || size != 6 {
		t.Fatalf("synced data lost: size=%d err=%v", size, err)
	}
}

func TestTxnWriteRequiresLockAtStorageSite(t *testing.T) {
	// Directly through the storage-site handler (bypassing the
	// requesting kernel's implicit locking): a transaction write without
	// the exclusive lock must be refused.
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.kernel().handleOpen(openReq{Path: "va/f"}); err != nil {
		t.Fatal(err)
	}
	_, err := s1.kernel().handleWrite(s1.id, writeReq{FileID: "va/f", Off: 0, Data: []byte("x"), PID: 1, Txn: "T1"})
	if !errors.Is(err, lockmgr.ErrAccessDenied) {
		t.Fatalf("unlocked txn write: %v", err)
	}
	if _, err := s1.kernel().handleRead(s1.id, readReq{FileID: "va/f", Off: 0, Len: 1, PID: 1, Txn: "T1"}); !errors.Is(err, lockmgr.ErrAccessDenied) {
		t.Fatalf("unlocked txn read: %v", err)
	}
}

func TestImplicitLockingAndCache(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s2 := cl.Site(2) // requester; storage is site 1
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")

	// First transactional write: cache miss -> lock RPC + write RPC.
	before := cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) != 4 {
		t.Fatalf("first txn write sent %d messages, want 4 (lock + data RPCs)", d.Get(stats.MsgsSent))
	}
	if d.Get(stats.LockCacheMisses) != 1 {
		t.Fatalf("cache misses = %d", d.Get(stats.LockCacheMisses))
	}
	// Second write to the same range: cache hit -> data RPC only.
	before = cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T1", 0, []byte("efgh")); err != nil {
		t.Fatal(err)
	}
	d = cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) != 2 {
		t.Fatalf("cached txn write sent %d messages, want 2", d.Get(stats.MsgsSent))
	}
	if d.Get(stats.LockCacheHits) != 1 {
		t.Fatalf("cache hits = %d", d.Get(stats.LockCacheHits))
	}
}

func TestLockCacheAblation(t *testing.T) {
	cl := twoSiteCluster(t, Config{DisableLockCache: true})
	s2 := cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	// With the cache disabled every transactional access revalidates.
	before := cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T1", 0, []byte("efgh")); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) != 4 {
		t.Fatalf("uncached txn write sent %d messages, want 4", d.Get(stats.MsgsSent))
	}
}

func TestRule2AdoptionAtLockTime(t *testing.T) {
	// Section 3.3's example: a non-transaction modifies x[1] and unlocks
	// without committing; a transaction then locks x[1].  The lock is
	// retained and the record commits with the transaction.
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	procPid := cl.NewPID()
	s1.Procs().NewProcess(procPid, 0)
	if err := s1.Create("va/x"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/x")

	// Non-transaction: lock, write, unlock (lock truly releases).
	if _, err := s1.Lock(id, procPid, "", lockmgr.ModeExclusive, 0, 4, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, procPid, "", 0, []byte("dirt")); err != nil {
		t.Fatal(err)
	}
	if retained, err := s1.Unlock(id, procPid, "", 0, 4); err != nil || retained {
		t.Fatalf("nontxn unlock: retained=%v err=%v", retained, err)
	}

	// Transaction locks the modified-but-uncommitted record.
	txnPid := cl.NewPID()
	s1.Procs().NewProcess(txnPid, 0)
	if _, err := s1.Lock(id, txnPid, "T5", lockmgr.ModeShared, 0, 4, false, false, false); err != nil {
		t.Fatal(err)
	}
	// Ownership moved to the transaction.
	of, err := s1.kernel().lookupOpen(id)
	if err != nil {
		t.Fatal(err)
	}
	if of.file.HasMods(shadow.Owner(fmt.Sprintf("proc:%d", procPid))) {
		t.Fatal("non-transaction still owns the record")
	}
	if !of.file.HasMods(TxnOwner("T5")) {
		t.Fatal("transaction did not adopt the record")
	}

	// Commit the transaction through the participant machinery.
	if err := s1.kernel().handlePrepare(prepareReq{Txid: "T5", FileIDs: []string{id}, Coord: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handleCommit2(commit2Req{Txid: "T5"}); err != nil {
		t.Fatal(err)
	}
	_, committed, _ := s1.Stat(id)
	if committed != 4 {
		t.Fatalf("adopted record not committed: committed size = %d", committed)
	}
}

func mkRef(id string, site int) proc.FileRef {
	return proc.FileRef{FileID: id, StorageSite: simnet.SiteID(site)}
}

func TestParticipantPrepareCommitAbort(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Lock(id, pid, "T1", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, pid, "T1", 0, []byte("prepared")); err != nil {
		t.Fatal(err)
	}

	before := cl.Stats().Snapshot()
	if err := s1.kernel().handlePrepare(prepareReq{Txid: "T1", FileIDs: []string{id}, Coord: 2}); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	// Prepare flushes the dirty page (step 2 of Figure 5) and writes one
	// prepare log record (step 3).
	if d.Get(stats.DataPageWrites) != 1 || d.Get(stats.PrepareLogWrites) != 1 {
		t.Fatalf("prepare I/O = %v", d)
	}
	recs, _ := tpc.ReadPrepareRecords(s1.Volume("va"))
	if len(recs) != 1 || recs[0].Txid != "T1" || recs[0].CoordSite != 2 {
		t.Fatalf("prepare records = %+v", recs)
	}
	if len(recs[0].Locks) == 0 {
		t.Fatal("prepare record has no lock list")
	}

	if err := s1.kernel().handleCommit2(commit2Req{Txid: "T1"}); err != nil {
		t.Fatal(err)
	}
	_, committed, _ := s1.Stat(id)
	if committed != 8 {
		t.Fatalf("committed size = %d", committed)
	}
	// Locks released, prepare log cleared, duplicate commit harmless.
	recs, _ = tpc.ReadPrepareRecords(s1.Volume("va"))
	if len(recs) != 0 {
		t.Fatalf("prepare records remain: %+v", recs)
	}
	if err := s1.kernel().handleCommit2(commit2Req{Txid: "T1"}); err != nil {
		t.Fatal(err)
	}

	// A second transaction aborts after writing.
	pid2 := cl.NewPID()
	s1.Procs().NewProcess(pid2, 0)
	id2, _, _ := s1.Open("va/f")
	if _, err := s1.Lock(id2, pid2, "T2", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id2, pid2, "T2", 0, []byte("DOOMEDXX")); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handleAbortTxn(abortTxnReq{Txid: "T2"}); err != nil {
		t.Fatal(err)
	}
	got, err := s1.Read(id2, pid2, "", 0, 8)
	if err != nil || string(got) != "prepared" {
		t.Fatalf("after abort = %q, %v", got, err)
	}
	// Duplicate abort is harmless.
	if err := s1.kernel().handleAbortTxn(abortTxnReq{Txid: "T2"}); err != nil {
		t.Fatal(err)
	}
}

func TestParticipantCrashRecoveryInDoubtThenCommit(t *testing.T) {
	// The participant crashes after prepare; on restart the coordinator
	// is unreachable, so the transaction stays in doubt with its locks
	// re-established; when the coordinator answers, the intentions are
	// applied from the log.
	cl := twoSiteCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Lock(id, pid, "T1", lockmgr.ModeExclusive, 0, 5, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, pid, "T1", 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	// Coordinator is site 2; write its log as committed (commit point
	// reached) before the participant crash.
	coord2, err := s2.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	_ = coord2
	if err := s1.kernel().handlePrepare(prepareReq{Txid: "T1", FileIDs: []string{id}, Coord: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tpc.WriteCoordRecord(s2.Volume("vb"), tpc.CoordRecord{
		Txid: "T1", Files: nil, Status: tpc.StatusCommitted,
	}); err != nil {
		t.Fatal(err)
	}

	// Crash the participant AND the coordinator; restart only the
	// participant: in doubt.
	s1.Crash()
	s2.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	if s1.InDoubtCount() != 1 {
		t.Fatalf("in doubt = %d, want 1", s1.InDoubtCount())
	}
	// The retained lock excludes others while in doubt.
	pid3 := cl.NewPID()
	s1.Procs().NewProcess(pid3, 0)
	id3, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Lock(id3, pid3, "", lockmgr.ModeExclusive, 0, 5, false, false, false); !errors.Is(err, lockmgr.ErrConflict) {
		t.Fatalf("in-doubt record not protected: %v", err)
	}

	// Coordinator returns; resolution applies the commit.
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := s1.ResolveInDoubt(); n != 0 {
		t.Fatalf("resolve left %d in doubt", n)
	}
	got, err := s1.Read(id3, pid3, "", 0, 5)
	if err != nil || string(got) != "hello" {
		t.Fatalf("after resolution = %q, %v", got, err)
	}
	// Lock released after resolution.
	if _, err := s1.Lock(id3, pid3, "", lockmgr.ModeExclusive, 0, 5, false, false, false); err != nil {
		t.Fatalf("lock after resolution: %v", err)
	}
}

func TestDirectorySurvivesRestart(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	for _, n := range []string{"va/a", "va/b", "va/c"} {
		if err := s1.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	names, err := s1.List("va")
	if err != nil || len(names) != 3 {
		t.Fatalf("names after restart = %v, %v", names, err)
	}
	if _, err := s1.kernel().handleOpen(openReq{Path: "va/b"}); err != nil {
		t.Fatal(err)
	}
	// Duplicate create still rejected after reload.
	if err := s1.Create("va/b"); !errors.Is(err, ErrFileExists) {
		t.Fatalf("duplicate create after restart: %v", err)
	}
}

func TestForkMigrateMergeFileList(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	parent := cl.NewPID()
	p := s1.Procs().NewProcess(parent, 0)
	p.TxnID = "T1"
	p.TopLevel = true
	p.TopPID = parent
	p.TopSite = 1

	// Remote child inherits the transaction.
	child, err := s1.Spawn(parent, 2)
	if err != nil {
		t.Fatal(err)
	}
	s2 := cl.Site(2)
	cp, err := s2.Procs().Get(child)
	if err != nil {
		t.Fatal(err)
	}
	if cp.TxnID != "T1" || cp.TopPID != parent || cp.TopSite != 1 {
		t.Fatalf("child = %+v", cp)
	}
	// Child uses a file, then the parent migrates, then the child exits:
	// the merge must chase the parent to its new site.
	if err := s2.Procs().AddFile(child, mkRef("vb/data", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Migrate(parent, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Procs().Get(parent); err == nil {
		t.Fatal("parent still at site 1")
	}
	if err := s2.ExitProc(child); err != nil {
		t.Fatal(err)
	}
	fl, err := s2.Procs().FileList(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl) != 1 || fl[0].FileID != "vb/data" {
		t.Fatalf("merged file list = %+v", fl)
	}
}

func TestRemoveFileReclaimsStorage(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	free0 := s1.Volume("va").FreePages()
	if err := s1.Create("va/victim"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/victim")
	if _, err := s1.Write(id, pid, "", 0, bytes.Repeat([]byte{1}, 3000)); err != nil {
		t.Fatal(err)
	}
	// Open files cannot be removed.
	if err := s1.Remove("va/victim"); err == nil {
		t.Fatal("removed an open file")
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	if err := s1.Remove("va/victim"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Open("va/victim"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("open after remove: %v", err)
	}
	// All data pages reclaimed (directory growth may hold a page or two
	// of slack, but the 3 data pages must be back).
	if got := s1.Volume("va").FreePages(); got < free0-1 {
		t.Fatalf("pages leaked: %d -> %d", free0, got)
	}
	// Removing again fails cleanly; the name is reusable.
	if err := s1.Remove("va/victim"); !errors.Is(err, ErrNoSuchFile) {
		t.Fatalf("double remove: %v", err)
	}
	if err := s1.Create("va/victim"); err != nil {
		t.Fatal(err)
	}
}

func TestInDoubtResolvesToAbort(t *testing.T) {
	// A participant prepared, crashed, and restarted while its
	// coordinator was down: in doubt with locks re-established.  When
	// the coordinator returns with an ABORT outcome, the logged
	// intentions are discarded.
	cl := twoSiteCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/f")
	if _, err := s1.Lock(id, pid, "TD", lockmgr.ModeExclusive, 0, 4, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, pid, "TD", 0, []byte("gone")); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handlePrepare(prepareReq{Txid: "TD", FileIDs: []string{id}, Coord: 2}); err != nil {
		t.Fatal(err)
	}
	// Coordinator records the abort decision, then BOTH crash; the
	// participant restarts first and stays in doubt.
	if err := tpc.WriteCoordRecord(s2.Volume("vb"), tpc.CoordRecord{Txid: "TD", Status: tpc.StatusAborted}); err != nil {
		t.Fatal(err)
	}
	s1.Crash()
	s2.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	if s1.InDoubtCount() != 1 {
		t.Fatalf("in doubt = %d", s1.InDoubtCount())
	}
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := s1.ResolveInDoubt(); n != 0 {
		t.Fatalf("resolve left %d in doubt", n)
	}
	// Rolled back: nothing committed, locks free, prepare log clear.
	pid2 := cl.NewPID()
	s1.Procs().NewProcess(pid2, 0)
	id2, _, err := s1.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	_, committed, _ := s1.Stat(id2)
	if committed != 0 {
		t.Fatalf("aborted txn committed %d bytes", committed)
	}
	if _, err := s1.Lock(id2, pid2, "", lockmgr.ModeExclusive, 0, 4, false, false, false); err != nil {
		t.Fatalf("lock after aborted resolution: %v", err)
	}
	if recs, _ := tpc.ReadPrepareRecords(s1.Volume("va")); len(recs) != 0 {
		t.Fatalf("prepare records remain: %+v", recs)
	}
}

func TestInodeExhaustionSurfacesCleanly(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1 := cl.Site(1)
	var lastErr error
	created := 0
	for i := 0; i < 100; i++ {
		if err := s1.Create(fmt.Sprintf("va/f%03d", i)); err != nil {
			lastErr = err
			break
		}
		created++
	}
	if lastErr == nil {
		t.Fatal("volume never ran out of inodes")
	}
	if !errors.Is(lastErr, fs.ErrNoInodes) {
		t.Fatalf("exhaustion error = %v", lastErr)
	}
	// The default volume has 64 inodes; one is the directory.
	if created != 63 {
		t.Fatalf("created %d files before exhaustion, want 63", created)
	}
	// Removing one frees an inode for a new file.
	if err := s1.Remove("va/f000"); err != nil {
		t.Fatal(err)
	}
	if err := s1.Create("va/fresh"); err != nil {
		t.Fatalf("create after remove: %v", err)
	}
}
