package cluster

import (
	"errors"
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// settle runs a virtual-clock cluster for two recovery intervals: what
// Restart leaves behind it (phase two, coordinator queries) gets at least
// one recovery pass after the caller's last change.
func settle(cl *Cluster) { cl.Clock().Sleep(2 * recoveryInterval) }

// prepareAt writes data into path at s under txid and runs the
// participant's first phase naming coord as the coordinator site.
func prepareAt(t *testing.T, s *Site, path, txid, data string, coord simnet.SiteID) {
	t.Helper()
	id := writeTxn(t, s, path, txid, data)
	if _, err := s.kernel().prepare(prepareReq{Txid: txid, FileIDs: []string{id.ID()}, Coord: coord}); err != nil {
		t.Fatal(err)
	}
}

// writeTxn writes data into path at s (creating it if need be) under
// txid, from a fresh process there.
func writeTxn(t *testing.T, s *Site, path, txid, data string) *Binding {
	t.Helper()
	pid := s.cl.NewPID()
	s.Procs().NewProcess(pid, 0)
	id, _, err := s.Open(path)
	if errors.Is(err, ErrNoSuchFile) {
		must(t, s.Create(path))
		id, _, err = s.Open(path)
	}
	must(t, err)
	if _, err := s.Lock(id, pid, txid, lockmgr.ModeExclusive, 0, int64(len(data)), false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(id, pid, txid, 0, []byte(data)); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestRestartResolvesEachPreparedTransaction walks the in-doubt table of
// DESIGN.md section 9 through a real restart: the coordinator says
// committed (intentions applied from the log), it has never heard of the
// transaction (presumed abort, shadow pages discarded), or it cannot be
// reached (in doubt: record kept, locks re-established, resolved by a
// later pass).
func TestRestartResolvesEachPreparedTransaction(t *testing.T) {
	cl := twoSiteCluster(t, Config{Clock: vtime.NewVirtual()})
	cl.AddSite(3)
	if err := cl.AddVolume(3, "vc"); err != nil {
		t.Fatal(err)
	}
	s1, s2, s3 := cl.Site(1), cl.Site(2), cl.Site(3)
	prepareAt(t, s1, "va/c", "C", "committed", 2)
	prepareAt(t, s1, "va/a", "A", "aborted", 2)
	prepareAt(t, s1, "va/d", "D", "doubtful", 3)
	if err := tpc.WriteCoordRecord(s2.Volume("vb"), tpc.CoordRecord{Txid: "C", Status: tpc.StatusCommitted}); err != nil {
		t.Fatal(err)
	}

	s3.Crash()
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	settle(cl)
	committedSize := func(path string) int64 {
		t.Helper()
		id, _, err := s1.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := s1.Stat(id)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := committedSize("va/c"); n != int64(len("committed")) {
		t.Errorf("committed transaction: %d bytes committed, want %d", n, len("committed"))
	}
	if n := committedSize("va/a"); n != 0 {
		t.Errorf("transaction the coordinator never heard of committed %d bytes", n)
	}
	if n := committedSize("va/d"); n != 0 {
		t.Errorf("in-doubt transaction committed %d bytes", n)
	}
	if n := s1.InDoubtCount(); n != 1 {
		t.Fatalf("in doubt = %d, want 1 (D: coordinator unreachable)", n)
	}
	// The in-doubt record survives for the next pass, under its lock.
	if recs, _ := tpc.ReadPrepareRecords(s1.Volume("va")); len(recs) != 1 || recs[0].Txid != "D" {
		t.Fatalf("surviving prepare records = %+v, want D's alone", recs)
	}
	if sum := s1.Locks().GroupSummary(lockmgr.TxnGroup("D")); sum.MaxMode != lockmgr.ModeExclusive {
		t.Fatalf("in-doubt transaction's retained lock not re-established: %+v", sum)
	}

	if err := s3.Restart(); err != nil {
		t.Fatal(err)
	}
	settle(cl)
	if n := s1.InDoubtCount(); n != 0 {
		t.Fatalf("resolve once the coordinator is back left %d in doubt", n)
	}
	if recs, _ := tpc.ReadPrepareRecords(s1.Volume("va")); len(recs) != 0 {
		t.Fatalf("prepare records remain: %+v", recs)
	}
}

// TestResolveOnePhaseNeedsNoCoordinator: one-phase records are their own
// verdict - a complete set is committed, a torn one aborted - and an
// ordinary record whose coordinator cannot be reached stays in doubt.
// Site 9 does not exist, so any answer but "in doubt" was reached without
// a query.
func TestResolveOnePhaseNeedsNoCoordinator(t *testing.T) {
	s1 := twoSiteCluster(t, Config{FastPaths: true}).Site(1)
	set := []tpc.PrepareRecord{{Txid: "T", OnePhaseTotal: 2}, {Txid: "T", OnePhaseTotal: 2}}
	for _, tc := range []struct {
		name string
		pt   *preparedTxn
		want tpc.Status
	}{
		{"complete set", &preparedTxn{coord: 9, onePhase: true, recovered: true, records: set}, tpc.StatusCommitted},
		{"torn set", &preparedTxn{coord: 9, onePhase: true, recovered: true, records: set[:1]}, tpc.StatusAborted},
		{"live entry (records forced)", &preparedTxn{coord: 9, onePhase: true}, tpc.StatusCommitted},
		{"two-phase, coordinator unreachable", &preparedTxn{coord: 9, recovered: true, records: []tpc.PrepareRecord{{Txid: "T"}}}, tpc.StatusUnknown},
	} {
		if got := s1.kernel().resolve("T", tc.pt); got != tc.want {
			t.Errorf("%s: resolve = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAbortEverywhereNeedsNoLog: a transaction aborted before it entered
// two-phase commit is rolled back by message alone (section 4.3) - no
// coordinator log is written, and a later in-doubt query about it reads
// presumed abort.
func TestAbortEverywhereNeedsNoLog(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("vb/f"); err != nil {
		t.Fatal(err)
	}
	id, _, err := s1.Open("vb/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Lock(id, pid, "T9", lockmgr.ModeExclusive, 0, 6, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, pid, "T9", 0, []byte("DOOMED")); err != nil {
		t.Fatal(err)
	}

	before := cl.Stats().Snapshot()
	s1.AbortEverywhere("T9")
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.CoordLogWrites) != 0 || d.Get(stats.PrepareLogWrites) != 0 {
		t.Fatalf("pre-2PC abort wrote a log: %v", d)
	}
	if sum := s2.Locks().GroupSummary(lockmgr.TxnGroup("T9")); sum.MaxMode != lockmgr.ModeNone {
		t.Fatalf("aborted transaction still holds locks at the storage site: %+v", sum)
	}
	if _, committed, _ := s1.Stat(id); committed != 0 {
		t.Fatalf("aborted transaction committed %d bytes", committed)
	}
	if st, err := s2.QueryStatus(1, "T9"); err != nil || st != tpc.StatusAborted {
		t.Fatalf("status of an aborted, never-logged transaction = %v, %v; want aborted", st, err)
	}
}

// TestPrepareRefusedAfterLosingTheTransaction: a site that crashed and
// restarted between a transaction's writes and its prepare has lost the
// writes with its kernel memory.  If someone else has the file open again
// the prepare finds nothing wrong with the name - and nothing to prepare -
// so it must notice that this incarnation never granted the transaction
// an access (Site.txns) and vote no; a vacuous yes lets the coordinator
// commit the other sites' halves.
func TestPrepareRefusedAfterLosingTheTransaction(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	for _, st := range []struct {
		s    *Site
		path string
	}{{s1, "va/f"}, {s2, "vb/f"}} {
		st.s.Procs().NewProcess(pid, 0)
		if err := st.s.Create(st.path); err != nil {
			t.Fatal(err)
		}
		id, _, err := st.s.Open(st.path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.s.Lock(id, pid, "T1", lockmgr.ModeExclusive, 0, 4, false, false, false); err != nil {
			t.Fatal(err)
		}
		if _, err := st.s.Write(id, pid, "T1", 0, []byte("half")); err != nil {
			t.Fatal(err)
		}
	}
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Open("va/f"); err != nil { // another user's open
		t.Fatal(err)
	}
	// A straggler of the transaction's (a duplicated read, say) is denied,
	// its lock having died in the crash; being denied does not make the
	// transaction known here again.
	if _, err := s1.kernel().handleRead(2, readReq{FileID: "va/f", Len: 4, PID: pid, Txn: "T1"}); !errors.Is(err, lockmgr.ErrAccessDenied) {
		t.Fatalf("read under a lock lost in the crash = %v, want access denied", err)
	}

	coord, err := s2.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	files := []proc.FileRef{{FileID: "va/f", StorageSite: 1}, {FileID: "vb/f", StorageSite: 2}}
	if err := coord.CommitTransaction("T1", files); !errors.Is(err, tpc.ErrPrepareFailed) {
		t.Fatalf("CommitTransaction = %v, want a prepare failure: site 1 lost its half", err)
	}
	id, _, err := s2.Open("vb/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, committed, _ := s2.Stat(id); committed != 0 {
		t.Fatalf("site 2 committed %d bytes of a transaction whose other half was lost", committed)
	}
}
