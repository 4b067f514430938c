package cluster

import (
	"errors"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// replicatedCluster: volume "va" primary at site 1, replicas at 2 and 3.
func replicatedCluster(t *testing.T) *Cluster {
	t.Helper()
	cl := New(Config{SyncPhase2: true})
	for i := 1; i <= 3; i++ {
		cl.AddSite(simnet.SiteID(i))
	}
	if err := cl.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	// Pre-existing content must reach replicas at AddReplica time.
	s1 := cl.Site(1)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/pre"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/pre")
	if _, err := s1.Write(id, pid, "", 0, []byte("preexisting")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	for i := 2; i <= 3; i++ {
		if err := cl.AddReplica("va", simnet.SiteID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

func TestReplicaServesLocalReads(t *testing.T) {
	cl := replicatedCluster(t)
	s2 := cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	id, _, err := s2.Open("va/pre")
	if err != nil {
		t.Fatal(err)
	}
	// Opening goes to the primary; the read itself must be served by the
	// local replica with zero messages.
	before := cl.Stats().Snapshot()
	got, err := s2.Read(id, pid, "", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "preexisting" {
		t.Fatalf("replica read = %q", got)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("replica-local read sent %d messages", d.Get(stats.MsgsSent))
	}
}

func TestOpenForUpdateMigratesService(t *testing.T) {
	cl := replicatedCluster(t)
	s1, s2 := cl.Site(1), cl.Site(2)
	w := cl.NewPID()
	s1.Procs().NewProcess(w, 0)
	id, _, _ := s1.Open("va/pre")

	// A write at the primary marks the file open-for-update; replicas
	// must forward reads to the primary (seeing the working state).
	if _, err := s1.Write(id, w, "", 0, []byte("UPDATING..!")); err != nil {
		t.Fatal(err)
	}
	r := cl.NewPID()
	s2.Procs().NewProcess(r, 0)
	id2, _, err := s2.Open("va/pre")
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Snapshot()
	got, err := s2.Read(id2, r, "", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) == 0 {
		t.Fatal("read served locally while file is open for update")
	}
	if string(got) != "UPDATING..!" {
		t.Fatalf("forwarded read = %q", got)
	}

	// The writer commits via close; the file quiesces and the new
	// contents propagate; local service resumes.
	if err := s1.Close(id, w, ""); err != nil {
		t.Fatal(err)
	}
	before = cl.Stats().Snapshot()
	got, err = s2.Read(id2, r, "", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	d = cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("post-quiesce read sent %d messages", d.Get(stats.MsgsSent))
	}
	if string(got) != "UPDATING..!" {
		t.Fatalf("replica content after propagation = %q", got)
	}
}

func TestTransactionCommitPropagatesToReplicas(t *testing.T) {
	cl := replicatedCluster(t)
	s1, s3 := cl.Site(1), cl.Site(3)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	id, _, _ := s1.Open("va/pre")
	if _, err := s1.Lock(id, pid, "T1", lockmgr.ModeExclusive, 0, 11, false, false, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Write(id, pid, "T1", 0, []byte("committed!!")); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handlePrepare(prepareReq{Txid: "T1", FileIDs: []string{id}, Coord: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handleCommit2(commit2Req{Txid: "T1"}); err != nil {
		t.Fatal(err)
	}
	// Replica at site 3 serves the committed contents locally.
	r := cl.NewPID()
	s3.Procs().NewProcess(r, 0)
	id3, _, err := s3.Open("va/pre")
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Snapshot()
	got, err := s3.Read(id3, r, "", 0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed!!" {
		t.Fatalf("replica after txn commit = %q", got)
	}
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 0 {
		t.Fatalf("replica read after propagation sent %d messages", d.Get(stats.MsgsSent))
	}
}

func TestReplicaAvailabilityWhenPrimaryDown(t *testing.T) {
	cl := replicatedCluster(t)
	cl.Site(1).Crash()
	s2 := cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	// Open cannot reach the primary, but a previously opened handle (the
	// file ID is just the path) keeps reading locally: optimistic
	// availability.
	got, ok := s2.kernel().replicaRead("va/pre", 0, 11)
	if !ok || string(got) != "preexisting" {
		t.Fatalf("replica read with primary down = %q, %v", got, ok)
	}
	if err := cl.Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaRestartResyncs(t *testing.T) {
	cl := replicatedCluster(t)
	s1, s2 := cl.Site(1), cl.Site(2)

	// Crash the replica, update the file at the primary meanwhile.
	s2.Crash()
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	id, _, _ := s1.Open("va/pre")
	if _, err := s1.Write(id, pid, "", 0, []byte("newer data!")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	// Restart: the replica resynchronizes from the primary.
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.kernel().replicaRead("va/pre", 0, 11)
	if !ok {
		t.Fatal("replica not serving after resync")
	}
	if string(got) != "newer data!" {
		t.Fatalf("replica after resync = %q (stale?)", got)
	}
}

func TestAddReplicaValidation(t *testing.T) {
	cl := replicatedCluster(t)
	if err := cl.AddReplica("nope", 2); !errors.Is(err, ErrNoSuchVolume) {
		t.Fatalf("unknown volume: %v", err)
	}
	if err := cl.AddReplica("va", 1); err == nil {
		t.Fatal("replica at primary accepted")
	}
	if err := cl.AddReplica("va", 2); err == nil {
		t.Fatal("duplicate replica accepted")
	}
	if got := cl.ReplicaSites("va"); len(got) != 2 {
		t.Fatalf("replica sites = %v", got)
	}
}

func TestNewFileCreatedAfterReplicationPropagates(t *testing.T) {
	cl := replicatedCluster(t)
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/late"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/late")
	if _, err := s1.Write(id, pid, "", 0, []byte("late file")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.kernel().replicaRead("va/late", 0, 9)
	if !ok || string(got) != "late file" {
		t.Fatalf("late file on replica = %q, %v", got, ok)
	}
}

func TestRemovePropagatesToReplicas(t *testing.T) {
	cl := replicatedCluster(t)
	s1, s2 := cl.Site(1), cl.Site(2)
	if err := s1.Remove("va/pre"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.kernel().replicaRead("va/pre", 0, 4); ok {
		t.Fatal("replica serves a removed file")
	}
	// Resync after a replica restart also drops removed files... by way
	// of never re-pushing them; a fresh create under the same name works
	// end to end.
	pid := cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	if err := s1.Create("va/pre"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s1.Open("va/pre")
	if _, err := s1.Write(id, pid, "", 0, []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}
	got, ok := s2.kernel().replicaRead("va/pre", 0, 6)
	if !ok || string(got) != "reborn" {
		t.Fatalf("recreated file on replica = %q, %v", got, ok)
	}
}

// TestReplicaDiskChargesTheSpindle: a replica's disk is built like every
// other (machine.mount via addVolume), so installing propagated contents
// pays the forced-write delay - at AddReplica time and again after the
// replica site reloads.  Replica disks used to be built a second way that
// forgot SetSyncDelay, and their forces cost zero simulated time.
func TestReplicaDiskChargesTheSpindle(t *testing.T) {
	const delay = 5 * time.Millisecond
	clk := vtime.NewVirtual()
	cl := twoSiteCluster(t, Config{Clock: clk, DiskSyncDelay: delay})
	defer cl.Shutdown()
	if err := cl.AddReplica("va", 2); err != nil {
		t.Fatal(err)
	}
	s2 := cl.Site(2)
	install := func(when string, data string) {
		t.Helper()
		t0 := clk.Now()
		if err := s2.kernel().handleReplSync(replSyncReq{Path: "va/f", Data: []byte(data)}); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if took := clk.Now().Sub(t0); took < delay {
			t.Errorf("%s: a replsync install took %v of simulated time, want at least one force (%v)", when, took, delay)
		}
	}
	install("fresh replica", "one")
	s2.Crash()
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	install("reloaded replica", "two")
}
