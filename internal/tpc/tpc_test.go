package tpc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/fs"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func coordVolume(t *testing.T) *fs.Volume {
	t.Helper()
	st := stats.NewSet()
	d := simdisk.New("cd", 96, 512, st)
	v, err := fs.Format("coordvol", d, fs.Options{NumInodes: 4, LogPages: 24})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// fakeTransport records protocol messages and injects failures, votes,
// and per-site delays.
type fakeTransport struct {
	mu          sync.Mutex
	prepares    map[simnet.SiteID][]string // site -> txids prepared
	prepCommits map[simnet.SiteID][]string // site -> txids one-phase prepared+committed
	commits     map[simnet.SiteID][]string
	aborts      map[simnet.SiteID][]string
	failPrepare map[simnet.SiteID]bool
	failCommit  map[simnet.SiteID]bool
	votes       map[simnet.SiteID]Vote          // prepare answer; zero value is VoteCommit
	commitDelay map[simnet.SiteID]time.Duration // injected SendCommit latency
}

func newFakeTransport() *fakeTransport {
	return &fakeTransport{
		prepares:    map[simnet.SiteID][]string{},
		prepCommits: map[simnet.SiteID][]string{},
		commits:     map[simnet.SiteID][]string{},
		aborts:      map[simnet.SiteID][]string{},
		failPrepare: map[simnet.SiteID]bool{},
		failCommit:  map[simnet.SiteID]bool{},
		votes:       map[simnet.SiteID]Vote{},
		commitDelay: map[simnet.SiteID]time.Duration{},
	}
}

func (f *fakeTransport) SendPrepare(site simnet.SiteID, txid string, files []string, coord simnet.SiteID) (Vote, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPrepare[site] {
		return VoteCommit, fmt.Errorf("injected prepare failure at %s", site)
	}
	f.prepares[site] = append(f.prepares[site], txid)
	return f.votes[site], nil
}

func (f *fakeTransport) SendPrepareCommit(site simnet.SiteID, txid string, files []string, coord simnet.SiteID) (Vote, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failPrepare[site] {
		return VoteCommit, fmt.Errorf("injected prepare failure at %s", site)
	}
	f.prepCommits[site] = append(f.prepCommits[site], txid)
	return f.votes[site], nil
}

func (f *fakeTransport) SendCommit(site simnet.SiteID, txid string) error {
	f.mu.Lock()
	d := f.commitDelay[site]
	fail := f.failCommit[site]
	f.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if fail {
		return fmt.Errorf("injected commit failure at %s", site)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.commits[site] = append(f.commits[site], txid)
	return nil
}

func (f *fakeTransport) SendAbort(site simnet.SiteID, txid string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.aborts[site] = append(f.aborts[site], txid)
	return nil
}

func (f *fakeTransport) count(m map[simnet.SiteID][]string, site simnet.SiteID) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(m[site])
}

var testFiles = []proc.FileRef{
	{FileID: "volA/1", StorageSite: 2},
	{FileID: "volA/2", StorageSite: 2},
	{FileID: "volB/1", StorageSite: 3},
}

func TestCommitHappyPath(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true})

	if err := c.CommitTransaction("T1", testFiles); err != nil {
		t.Fatal(err)
	}
	// Both participant sites prepared and committed exactly once.
	for _, site := range []simnet.SiteID{2, 3} {
		if tr.count(tr.prepares, site) != 1 || tr.count(tr.commits, site) != 1 {
			t.Fatalf("site %v: prepares=%d commits=%d", site,
				tr.count(tr.prepares, site), tr.count(tr.commits, site))
		}
	}
	// Phase two completed: log cleared, nothing pending, commit counted.
	if c.PendingCount() != 0 {
		t.Fatalf("pending = %d", c.PendingCount())
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("coordinator log not cleared: %v", v.Log().Keys())
	}
	if st.Get(stats.TxnCommits) != 1 {
		t.Fatal("commit not counted")
	}
}

func TestCommitIOPattern(t *testing.T) {
	// Figure 5's coordinator-side log I/O: one write for the initial
	// record (step 1) and one for the commit mark (step 4).
	v := coordVolume(t)
	tr := newFakeTransport()
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true})
	before := v.Stats().Snapshot()
	if err := c.CommitTransaction("T1", testFiles[:1]); err != nil {
		t.Fatal(err)
	}
	d := v.Stats().Snapshot().Sub(before)
	// 2 coordinator-log writes plus the delete's meta write.
	if d.Get(stats.CoordLogWrites) != 2 {
		t.Fatalf("CoordLogWrites = %d, want 2 (record + commit mark)", d.Get(stats.CoordLogWrites))
	}
}

func TestPrepareFailureAborts(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.failPrepare[3] = true
	st := stats.NewSet()
	c := NewCoordinator(1, v, tr, st, Config{SyncPhase2: true})

	err := c.CommitTransaction("T1", testFiles)
	if !errors.Is(err, ErrPrepareFailed) {
		t.Fatalf("err = %v", err)
	}
	// Every participant site received an abort (site 2 prepared; site 3
	// gets one too - duplicates are harmless).
	if tr.count(tr.aborts, 2) != 1 || tr.count(tr.aborts, 3) != 1 {
		t.Fatalf("aborts = %v", tr.aborts)
	}
	if tr.count(tr.commits, 2) != 0 {
		t.Fatal("commit sent despite abort")
	}
	if c.StatusOf("T1") != StatusAborted {
		t.Fatalf("StatusOf = %v", c.StatusOf("T1"))
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatalf("log not cleaned after abort: %v", v.Log().Keys())
	}
	if st.Get(stats.TxnAborts) != 1 {
		t.Fatal("abort not counted")
	}
}

func TestPhase2RetriesUnreachableParticipant(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.failCommit[3] = true
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true})

	// Commit succeeds (the commit point is durable) even though site 3
	// cannot acknowledge phase two yet.
	if err := c.CommitTransaction("T1", testFiles); err != nil {
		t.Fatal(err)
	}
	if c.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", c.PendingCount())
	}
	// The coordinator log is retained until everyone acknowledges.
	if len(v.Log().Keys()) != 1 {
		t.Fatalf("log keys = %v", v.Log().Keys())
	}
	if c.StatusOf("T1") != StatusCommitted {
		t.Fatal("in-doubt query must see committed")
	}
	// Site 3 comes back; a retry completes phase two.
	tr.mu.Lock()
	tr.failCommit[3] = false
	tr.mu.Unlock()
	c.RetryPending()
	if c.PendingCount() != 0 {
		t.Fatalf("pending after retry = %d", c.PendingCount())
	}
	if len(v.Log().Keys()) != 0 {
		t.Fatal("log retained after full acknowledgement")
	}
	if tr.count(tr.commits, 3) != 1 {
		t.Fatalf("site 3 commits = %d", tr.count(tr.commits, 3))
	}
}

func TestDuplicateTxnRejected(t *testing.T) {
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.failCommit[2] = true // keep T1 pending
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true})
	if err := c.CommitTransaction("T1", testFiles[:1]); err != nil {
		t.Fatal(err)
	}
	if err := c.CommitTransaction("T1", testFiles[:1]); !errors.Is(err, ErrTxnExists) {
		t.Fatalf("duplicate commit: %v", err)
	}
}

func TestStatusOfUnknownIsPresumedAbort(t *testing.T) {
	v := coordVolume(t)
	c := NewCoordinator(1, v, newFakeTransport(), stats.NewSet(), Config{})
	if c.StatusOf("never-seen") != StatusAborted {
		t.Fatal("presumed abort violated")
	}
}

// gatedTransport parks SendPrepare to one site until released, so a test
// can look at the coordinator while it is still collecting votes.
type gatedTransport struct {
	*fakeTransport
	site             simnet.SiteID
	entered, release chan struct{}
}

func (g *gatedTransport) SendPrepare(site simnet.SiteID, txid string, files []string, coord simnet.SiteID) (Vote, error) {
	if site == g.site {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.fakeTransport.SendPrepare(site, txid, files, coord)
}

// TestStatusOfUndecidedWhileCollectingVotes: a participant that has voted
// yes may ask about a transaction whose coordinator is still inside its
// prepare phase.  The answer must be "undecided" (StatusUnknown), never
// abort - the coordinator may yet commit - and turn into the decision once
// it is made (site 2 refuses phase two, so a commit stays live to ask
// about).  Only a transaction the coordinator never heard of is presumed
// aborted.
func TestStatusOfUndecidedWhileCollectingVotes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		failPrepare bool
		want        Status
	}{{"commit", false, StatusCommitted}, {"abort", true, StatusAborted}} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &gatedTransport{fakeTransport: newFakeTransport(), site: 3,
				entered: make(chan struct{}), release: make(chan struct{})}
			tr.failPrepare[3] = tc.failPrepare
			tr.failCommit[2] = true
			c := NewCoordinator(1, coordVolume(t), tr, stats.NewSet(), Config{SyncPhase2: true})
			done := make(chan error, 1)
			go func() { done <- c.CommitTransaction("T1", testFiles) }()
			<-tr.entered
			if st := c.StatusOf("T1"); st != StatusUnknown {
				t.Fatalf("status while collecting votes = %v, want unknown (undecided)", st)
			}
			if st := c.StatusOf("never-seen"); st != StatusAborted {
				t.Fatalf("status of a transaction never seen = %v, want aborted", st)
			}
			close(tr.release)
			if err := <-done; (err != nil) != tc.failPrepare {
				t.Fatalf("CommitTransaction: %v", err)
			}
			if st := c.StatusOf("T1"); st != tc.want {
				t.Fatalf("status after the decision = %v, want %v", st, tc.want)
			}
		})
	}
}

// TestRecoverLeavesLiveTransactionsAlone: the site's log replay can run on
// a coordinator that is already serving a client (one that arrived between
// the restart and the replay).  The record of a transaction still in its
// prepare phase reads "unknown" in the log, but it is live, not a survivor
// of the crash: replay must not abort it under the CommitTransaction that
// is about to commit it.
func TestRecoverLeavesLiveTransactionsAlone(t *testing.T) {
	tr := &gatedTransport{fakeTransport: newFakeTransport(), site: 3,
		entered: make(chan struct{}), release: make(chan struct{})}
	st := stats.NewSet()
	c := NewCoordinator(1, coordVolume(t), tr, st, Config{SyncPhase2: true})
	done := make(chan error, 1)
	go func() { done <- c.CommitTransaction("T1", testFiles) }()
	<-tr.entered
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	close(tr.release)
	if err := <-done; err != nil {
		t.Fatalf("CommitTransaction: %v", err)
	}
	for _, site := range []simnet.SiteID{2, 3} {
		if a, cm := tr.count(tr.aborts, site), tr.count(tr.commits, site); a != 0 || cm != 1 {
			t.Errorf("site %v got %d aborts and %d commits for a committed transaction, want 0 and 1", site, a, cm)
		}
	}
	if cm, a := st.Get(stats.TxnCommits), st.Get(stats.TxnAborts); cm != 1 || a != 0 {
		t.Fatalf("%d commits and %d aborts counted, want 1 and 0", cm, a)
	}
}

func TestCoordinatorRecoveryCommitted(t *testing.T) {
	// Crash after the commit mark but before phase two: recovery must
	// re-drive commits from the durable log.
	v := coordVolume(t)
	rec := CoordRecord{Txid: "T1", Files: testFiles, Status: StatusCommitted}
	if err := WriteCoordRecord(v, rec); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: reload volume, fresh coordinator.
	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("coordvol", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	tr := newFakeTransport()
	clk := vtime.NewVirtual()
	c := NewCoordinator(1, v2, tr, stats.NewSet(), Config{Clock: clk})
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	// Phase two runs behind Recover; the record answers at once.
	if c.StatusOf("T1") != StatusCommitted {
		t.Fatal("status right after recovery")
	}
	clk.WaitIdle()
	if tr.count(tr.commits, 2) != 1 || tr.count(tr.commits, 3) != 1 {
		t.Fatalf("recovery commits = %v", tr.commits)
	}
	if len(v2.Log().Keys()) != 0 || c.PendingCount() != 0 {
		t.Fatalf("after recovery phase two: log %v, %d pending", v2.Log().Keys(), c.PendingCount())
	}
}

func TestCoordinatorRecoveryUncommitted(t *testing.T) {
	// Crash before the commit point: recovery queues abort processing.
	v := coordVolume(t)
	if err := WriteCoordRecord(v, CoordRecord{Txid: "T2", Files: testFiles, Status: StatusUnknown}); err != nil {
		t.Fatal(err)
	}
	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("coordvol", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	tr := newFakeTransport()
	clk := vtime.NewVirtual()
	c := NewCoordinator(1, v2, tr, stats.NewSet(), Config{Clock: clk})
	if err := c.Recover(); err != nil {
		t.Fatal(err)
	}
	if c.StatusOf("T2") != StatusAborted {
		t.Fatal("status right after recovery")
	}
	clk.WaitIdle()
	if tr.count(tr.aborts, 2) != 1 || tr.count(tr.aborts, 3) != 1 {
		t.Fatalf("recovery aborts = %v", tr.aborts)
	}
	if c.StatusOf("T2") != StatusAborted || len(v2.Log().Keys()) != 0 || c.PendingCount() != 0 {
		t.Fatalf("after recovery aborts: status %v, log %v, %d pending", c.StatusOf("T2"), v2.Log().Keys(), c.PendingCount())
	}
}

func TestCoordRecordRoundTrip(t *testing.T) {
	v := coordVolume(t)
	want := CoordRecord{Txid: "T7", Files: testFiles, Status: StatusUnknown}
	if err := WriteCoordRecord(v, want); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadCoordRecords(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !reflect.DeepEqual(recs[0], want) {
		t.Fatalf("records = %+v", recs)
	}
	// The status flip reuses the slot (same size payload).
	want.Status = StatusCommitted
	if err := WriteCoordRecord(v, want); err != nil {
		t.Fatal(err)
	}
	recs, _ = ReadCoordRecords(v)
	if recs[0].Status != StatusCommitted {
		t.Fatal("status flip lost")
	}
	if err := DeleteCoordRecord(v, "T7"); err != nil {
		t.Fatal(err)
	}
	recs, _ = ReadCoordRecords(v)
	if len(recs) != 0 {
		t.Fatal("delete failed")
	}
}

func TestPrepareRecordRoundTripAndPerFileMode(t *testing.T) {
	v := coordVolume(t)
	rec := PrepareRecord{
		Txid:      "T1",
		CoordSite: 4,
		Files: []PreparedFile{{
			FileID: "volA/1",
			Intentions: shadow.IntentionsList{
				Ino: 1, NewSize: 100,
				Entries: []shadow.Intention{{Logical: 0, Base: 30, Shadow: 31,
					Ranges: []shadow.Range{{Off: 4, Len: 8}}}},
			},
		}},
		Locks: []LockInfo{{FileID: "volA/1", Mode: 2, Off: 4, Len: 8}},
	}
	if err := WritePrepareRecord(v, rec, ""); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPrepareRecords(v)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
		t.Fatalf("records = %+v", got)
	}
	// Footnote-10 per-file records coexist and all delete together.
	rec2 := rec
	rec2.Files = rec.Files[:1]
	if err := WritePrepareRecord(v, rec2, "volA/2"); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadPrepareRecords(v)
	if len(got) != 2 {
		t.Fatalf("want 2 records, got %d", len(got))
	}
	if err := DeletePrepareRecords(v, "T1"); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadPrepareRecords(v)
	if len(got) != 0 {
		t.Fatalf("records after delete = %+v", got)
	}
}

func TestPinPreparedPages(t *testing.T) {
	v := coordVolume(t)
	g := v.Geometry()
	shadowPage := g.DataStart + 5
	rec := PrepareRecord{
		Txid: "T1", CoordSite: 1,
		Files: []PreparedFile{{
			FileID: "f",
			Intentions: shadow.IntentionsList{Ino: 0, Entries: []shadow.Intention{
				{Logical: 0, Base: -1, Shadow: shadowPage},
			}},
		}},
	}
	if err := WritePrepareRecord(v, rec, ""); err != nil {
		t.Fatal(err)
	}
	v.Disk().Crash()
	v.Disk().Restart()
	v2, err := fs.Load("coordvol", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	if v2.PageAllocated(shadowPage) {
		t.Fatal("page allocated before pinning (test setup broken)")
	}
	if err := PinPreparedPages(v2); err != nil {
		t.Fatal(err)
	}
	if !v2.PageAllocated(shadowPage) {
		t.Fatal("prepared page not pinned")
	}
	// Idempotent.
	if err := PinPreparedPages(v2); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	if StatusUnknown.String() != "unknown" || StatusCommitted.String() != "committed" ||
		StatusAborted.String() != "aborted" {
		t.Fatal("status names")
	}
	if Status(9).String() != "status(9)" {
		t.Fatal("unknown status")
	}
}

func TestRetryPendingCountsUnacked(t *testing.T) {
	// RetryPending re-drives phase two and reports what is still
	// unacknowledged, so its caller knows whether to come back.
	v := coordVolume(t)
	tr := newFakeTransport()
	tr.failCommit[2] = true
	c := NewCoordinator(1, v, tr, stats.NewSet(), Config{SyncPhase2: true})
	if err := c.CommitTransaction("T1", testFiles[:1]); err != nil {
		t.Fatal(err)
	}
	if n := c.RetryPending(); n != 1 || c.PendingCount() != 1 {
		t.Fatalf("retry against a failing site left %d unacked, %d pending; want 1 and 1", n, c.PendingCount())
	}
	tr.mu.Lock()
	tr.failCommit[2] = false
	tr.mu.Unlock()
	if n := c.RetryPending(); n != 0 || c.PendingCount() != 0 {
		t.Fatalf("retry after the site recovered left %d unacked, %d pending; want 0 and 0", n, c.PendingCount())
	}
	if tr.count(tr.commits, 2) != 1 {
		t.Fatalf("commits applied at site 2 = %d, want 1", tr.count(tr.commits, 2))
	}
}
