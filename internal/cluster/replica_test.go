package cluster

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/placement"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// replicatedCluster: volume "va" primary at site 1, replicas at 2 and 3.
func replicatedCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.SyncPhase2 = true
	cl := New(cfg)
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
	if _, err := s1.kernel().prepare(prepareReq{Txid: "T1", FileIDs: []string{id.ID()}, Coord: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s1.kernel().handleCommit2(txnReq{Txid: "T1"}); err != nil {
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
	cl := replicatedCluster(t, Config{})
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
// other (machine.mount via addVolume), so installing shipped contents pays
// the forced-write delay - on the replica's first volume and again after
// the replica site reloads.  Replica disks used to be built a second way
// that forgot SetSyncDelay, and their forces cost zero simulated time.
func TestReplicaDiskChargesTheSpindle(t *testing.T) {
	const delay = 5 * time.Millisecond
	clk := vtime.NewVirtual()
	cl := twoSiteCluster(t, Config{Clock: clk, DiskSyncDelay: delay})
	defer cl.Shutdown()
	s1, s2 := cl.Site(1), cl.Site(2)
	must(t, s1.Create("va/f"))
	must(t, cl.AddReplica("va", 2))
	sync := func(when string, version uint64, data string) {
		t.Helper()
		cl.updateCycle("va/f", true)
		req := proposeInstall(s1.kernel(), 100+version, install{path: "va/f", to: 2, version: version}, data)
		t0 := clk.Now()
		if _, err := s2.kernel().handleInstall(1, req); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if took := clk.Now().Sub(t0); took < delay {
			t.Errorf("%s: a replica install took %v of simulated time, want at least one force (%v)", when, took, delay)
		}
	}
	sync("fresh replica", 1, "one")
	s2.Crash()
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	sync("reloaded replica", 2, "two")
}

// TestSyncOvertakenByUpdateForwards: a sync that lands after its file was
// opened for update again must not make the replica current.  The sync is
// parked at the top of the replica's handler while a second writer opens
// the file for update; once it lands, the replica's copy is a version
// behind, so its reads forward and see the working bytes (as in
// TestOpenForUpdateMigratesService).  When the update cycle was a mark on
// the replica, set by its own message, the late sync cleared it and the
// replica served its copy locally mid-update.
func TestSyncOvertakenByUpdateForwards(t *testing.T) {
	clk := vtime.NewVirtual()
	cl := replicatedCluster(t, Config{Clock: clk})
	defer cl.Shutdown()
	s1, s2 := cl.Site(1), cl.Site(2)
	first, second, reader := cl.NewPID(), cl.NewPID(), cl.NewPID()
	s1.Procs().NewProcess(first, 0)
	s1.Procs().NewProcess(second, 0)
	s2.Procs().NewProcess(reader, 0)
	id, _, err := s1.Open("va/pre")
	must(t, err)
	_, err = s1.Write(id, first, "", 0, []byte("first write"))
	must(t, err)

	parked, release := make(chan struct{}, 1), make(chan struct{}, 1)
	s2.Stall("install", func() {
		vtime.NotifySend(clk, parked, struct{}{})
		vtime.WaitRecv(clk, release, 0)
	})
	g := vtime.NewGroup(clk)
	g.Go(func() {
		if err := s1.Close(id, first, ""); err != nil { // commits; the quiesce ships to 2 and 3
			t.Error(err)
		}
	})
	vtime.WaitRecv(clk, parked, 0)
	s2.Stall("install", nil)
	_, err = s1.Write(id, second, "", 0, []byte("UPDATING..!"))
	must(t, err)
	vtime.NotifySend(clk, release, struct{}{})
	g.Wait()

	rid, _, err := s2.Open("va/pre")
	must(t, err)
	before := cl.Stats().Snapshot()
	got, err := s2.Read(rid, reader, "", 0, 11)
	must(t, err)
	if cl.Stats().Snapshot().Sub(before).Get(stats.MsgsSent) == 0 {
		t.Fatalf("replica served %q locally while the file is open for update", got)
	}
	if string(got) != "UPDATING..!" {
		t.Fatalf("forwarded read = %q, want the working bytes", got)
	}
}

// TestMoveOntoReplicaLeavesOneCopy: a primary copy that moves to a site
// holding a replica of its volume lands on the replica's copy, written
// through the replica's read handle, which becomes the new home's: one
// copy, one volume and one live handle there, and clean allocators after
// commits at the new home.
func TestMoveOntoReplicaLeavesOneCopy(t *testing.T) {
	w := newMoveWorld(t, Config{Placement: placement.Config{MinAccesses: 1e9}}) // moves only when told
	s2 := w.cl.Site(2)
	must(t, w.cl.AddReplica("va", 2))
	if _, err := s2.Read(w.f, w.pid, "", 0, 1); err != nil { // opens the read handle
		t.Fatal(err)
	}
	for _, txid := range []string{"T1", "T2"} { // each commit syncs the replica
		_, err := s2.Write(w.f, w.pid, txid, int64(len(w.data)), []byte("abcd"))
		must(t, err)
		commitAtHome(t, w.cl, txid, w.id)
		w.data = append(w.data, "abcd"...)
	}
	must(t, w.cl.Site(1).kernel().moveFile(w.id, 2))
	w.expect(t, 2)
	if recorded, _ := w.cl.ReplicaCopy(w.id, 2); recorded {
		t.Error("the new home is still recorded as a replica")
	}
	_, err := s2.Write(w.f, w.pid, "T-home", 0, []byte("home"))
	must(t, err)
	commitAtHome(t, w.cl, "T-home", w.id)

	k := s2.kernel()
	k.mu.Lock()
	of, vs := k.open[w.id], k.vols["va"]
	oneHandle := of != nil && of.file.Load() == vs.files["f"]
	k.mu.Unlock()
	if !oneHandle {
		t.Error("the new home's open file does not use the replica's handle")
	}
	if got := s2.Volumes(); len(got) != 2 || len(s2.disks) != 2 {
		t.Errorf("site 2 volumes %v on %d disks, want [va vb] on 2", got, len(s2.disks))
	}
	for _, id := range w.cl.Sites() {
		for _, vs := range w.cl.Site(id).kernel().volStates() {
			for _, v := range allocatorViolations(vs) {
				t.Errorf("site %v %s: %s", id, vs.name, v)
			}
		}
	}
}

// allocatorViolations checks that the volume's page allocator agrees with
// its inodes, as invariant.Audit's allocator check does.
func allocatorViolations(vs *volState) []string {
	var out []string
	vol, ref := vs.vol, map[int]int{}
	for _, ino := range vol.Inodes() {
		node, err := vol.ReadInode(ino)
		if err != nil {
			out = append(out, fmt.Sprintf("ino %d unreadable: %v", ino, err))
			continue
		}
		for _, pg := range append(slices.Clone(node.Pages), node.Indirect) {
			if pg < 0 {
				continue
			}
			if prev, dup := ref[pg]; dup {
				out = append(out, fmt.Sprintf("page %d referenced by ino %d and ino %d", pg, prev, ino))
			}
			ref[pg] = ino
			if !vol.PageAllocated(pg) {
				out = append(out, fmt.Sprintf("ino %d references free page %d", ino, pg))
			}
		}
	}
	for pg := vol.Geometry().DataStart; pg < vol.Geometry().NumPages; pg++ {
		if _, ok := ref[pg]; !ok && vol.PageAllocated(pg) {
			out = append(out, fmt.Sprintf("page %d allocated but referenced by no inode", pg))
		}
	}
	return out
}
