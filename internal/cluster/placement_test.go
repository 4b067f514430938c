package cluster

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/placement"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// placementCluster builds a 2-site cluster with adaptive placement on
// and aggressive knobs, so a move fires after a couple of remote
// accesses.
func placementCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.AdaptivePlacement = true
	if cfg.Placement.MinAccesses == 0 {
		cfg.Placement.MinAccesses = 2
	}
	if cfg.Placement.Cooldown == 0 {
		cfg.Placement.Cooldown = 2
	}
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

// commitAtHome commits at whichever site currently stores the file -
// after an ownership move that is no longer the mount site.
func commitAtHome(t *testing.T, cl *Cluster, txid string, fileIDs ...string) {
	t.Helper()
	home, err := cl.StorageSite(fileIDs[0])
	if err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, cl.Site(home), txid, fileIDs...)
}

func TestPlacementOffMatchesLegacyByteForByte(t *testing.T) {
	// Placement off must reproduce the exact legacy counters — the
	// acceptance gate for "off by default means off".
	run := func(placement bool) stats.Snapshot {
		cfg := Config{AdaptivePlacement: placement}
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
		s2 := cl.Site(2)
		pid := cl.NewPID()
		s2.Procs().NewProcess(pid, 0)
		if err := s2.Create("va/f"); err != nil {
			t.Fatal(err)
		}
		id, _, _ := s2.Open("va/f")
		for i, txid := range []string{"T1", "T2", "T3"} {
			if _, err := s2.Write(id, pid, txid, int64(8*i), []byte("12345678")); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, cl.Site(1), txid, id.ID())
		}
		return cl.Stats().Snapshot()
	}
	off := run(false)
	legacy := run(false)
	if off.Get(stats.MsgsSent) != legacy.Get(stats.MsgsSent) || off.Get(stats.LockMsgs) != legacy.Get(stats.LockMsgs) {
		t.Fatalf("placement-off runs disagree with themselves: %v vs %v", off, legacy)
	}
	for _, c := range []stats.Counter{stats.OwnerMoves, stats.RoutedCommits, stats.PlacementMigrations} {
		if off.Get(c) != 0 {
			t.Fatalf("placement-off run recorded placement traffic (%v): %v", c, off)
		}
	}
}

func TestOwnershipMoveMigratesHotFile(t *testing.T) {
	cl := placementCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")

	// A run of remote transactions from site 2 heats the file until the
	// post-commit sweep migrates its primary copy there.
	for i, txid := range []string{"T1", "T2", "T3", "T4"} {
		if _, err := s2.Write(id, pid, txid, int64(4*i), []byte("abcd")); err != nil {
			t.Fatal(err)
		}
		commitAtHome(t, cl, txid, id.ID())
	}

	home, err := cl.StorageSite(id.ID())
	if err != nil {
		t.Fatal(err)
	}
	if home != 2 {
		t.Fatalf("file home after hot run = %v, want 2", home)
	}
	if n := cl.Stats().Snapshot().Get(stats.OwnerMoves); n != 1 {
		t.Fatalf("owner moves = %d, want 1", n)
	}

	// The committed image survived the move intact, readable from both
	// the new home and (remotely) the old one.
	want := []byte("abcdabcdabcdabcd")
	for _, s := range []*Site{s1, s2} {
		got, err := s.Read(id, pid, "", 0, len(want))
		if err != nil {
			t.Fatalf("read via site %v: %v", s.id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("read via site %v = %q, want %q", s.id, got, want)
		}
	}

	// The mount site still lists the file (namespace is unchanged even
	// though the bytes moved).
	names, err := s1.List("va")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range names {
		found = found || n == "f"
	}
	if !found {
		t.Fatalf("va listing lost the moved file: %v", names)
	}

	// Life goes on at the new home: the surviving open handle writes and
	// commits without touching site 1's volume.
	if _, err := s2.Write(id, pid, "T5", 0, []byte("zzzz")); err != nil {
		t.Fatalf("write after move: %v", err)
	}
	commitAtHome(t, cl, "T5", id.ID())
	got, err := s2.Read(id, pid, "", 0, 4)
	if err != nil || !bytes.Equal(got, []byte("zzzz")) {
		t.Fatalf("read after post-move commit = %q, %v", got, err)
	}
	if err := s2.Close(id, pid, ""); err != nil {
		t.Fatalf("close after move: %v", err)
	}
}

func TestOwnershipMoveSurvivesRestarts(t *testing.T) {
	cl := placementCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	for _, txid := range []string{"T1", "T2", "T3", "T4"} {
		if _, err := s2.Write(id, pid, txid, 0, []byte("data")); err != nil {
			t.Fatal(err)
		}
		commitAtHome(t, cl, txid, id.ID())
	}
	if home, _ := cl.StorageSite(id.ID()); home != 2 {
		t.Fatalf("file did not migrate (home %v)", home)
	}
	if err := s2.Close(id, pid, ""); err != nil {
		t.Fatal(err)
	}

	// Both sites crash and restart; the old home's restart purge must
	// not resurrect a second primary, and the new home must still serve
	// the committed bytes.
	for _, s := range []*Site{s1, s2} {
		s.Crash()
		if err := s.Restart(); err != nil {
			t.Fatalf("restart site %v: %v", s.id, err)
		}
	}
	if home, _ := cl.StorageSite(id.ID()); home != 2 {
		t.Fatalf("home after restarts = %v, want 2", home)
	}
	pid2 := cl.NewPID()
	s2.Procs().NewProcess(pid2, 0)
	id2, _, err := s2.Open("va/f")
	if err != nil {
		t.Fatalf("reopen after restarts: %v", err)
	}
	got, err := s2.Read(id2, pid2, "", 0, 4)
	if err != nil || !bytes.Equal(got, []byte("data")) {
		t.Fatalf("read after restarts = %q, %v", got, err)
	}
	// Exactly one site's volume holds the file: the old home's directory
	// for va must not have a local copy (its listing still shows the
	// name, merged from the namespace, but the volume itself does not).
	s1.kernel().mu.Lock()
	vs1 := s1.kernel().vols["va"]
	s1.kernel().mu.Unlock()
	for _, n := range vs1.dirList() {
		if n == "f" {
			t.Fatal("old home still holds a local copy after restart purge")
		}
	}
}

func TestOwnershipMoveDeferredWhileLocked(t *testing.T) {
	cl := placementCluster(t, Config{})
	s2 := cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	for _, txid := range []string{"T1", "T2", "T3"} {
		if _, err := s2.Write(id, pid, txid, 0, []byte("data")); err != nil {
			t.Fatal(err)
		}
		commitAtHome(t, cl, txid, id.ID())
	}

	// A second process holds an uncommitted write when T-hot commits:
	// the quiesce check must refuse the move (the heat survives, so a
	// later quiet commit still migrates).
	cl2 := placementCluster(t, Config{})
	s2b := cl2.Site(2)
	pidA, pidB := cl2.NewPID(), cl2.NewPID()
	s2b.Procs().NewProcess(pidA, 0)
	s2b.Procs().NewProcess(pidB, 0)
	if err := s2b.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	idB, _, _ := s2b.Open("va/f")
	if _, err := s2b.Write(idB, pidB, "THOLD", 0, []byte("hold")); err != nil {
		t.Fatal(err)
	}
	for _, txid := range []string{"T1", "T2", "T3"} {
		if _, err := s2b.Write(idB, pidA, txid, 4, []byte("data")); err != nil {
			t.Fatal(err)
		}
		commitAtHome(t, cl2, txid, idB.ID())
	}
	if home, _ := cl2.StorageSite(idB.ID()); home != 1 {
		t.Fatalf("move proceeded past an uncommitted owner (home %v)", home)
	}
	// Release the holder; the next commit quiesces and the move lands.
	commitAtHome(t, cl2, "THOLD", idB.ID())
	if home, _ := cl2.StorageSite(idB.ID()); home != 2 {
		t.Fatalf("move did not land after quiesce (home %v)", home)
	}
}

func TestRouteTarget(t *testing.T) {
	cl := placementCluster(t, Config{})
	refs := func(ids ...string) []proc.FileRef {
		out := make([]proc.FileRef, len(ids))
		for i, id := range ids {
			out[i] = proc.FileRef{FileID: id}
		}
		return out
	}
	if _, ok := cl.RouteTarget(2, refs()); ok {
		t.Fatal("empty file set routed")
	}
	if target, ok := cl.RouteTarget(2, refs("va/x", "va/y")); !ok || target != 1 {
		t.Fatalf("single-site remote set = (%v,%v), want (1,true)", target, ok)
	}
	if _, ok := cl.RouteTarget(1, refs("va/x")); ok {
		t.Fatal("self-stored set routed")
	}
	if _, ok := cl.RouteTarget(3, refs("va/x", "vb/y")); ok {
		t.Fatal("split set routed")
	}
}

func TestRouteCommitCoordinatesRemotely(t *testing.T) {
	cl := placementCluster(t, Config{Placement: placement.Config{MinAccesses: 1e9}})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid, "TR", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	if err := s2.RouteCommit(1, "TR", []proc.FileRef{{FileID: id.ID(), StorageSite: simnet.SiteID(1)}}); err != nil {
		t.Fatalf("routed commit: %v", err)
	}
	if n := cl.Stats().Snapshot().Get(stats.RoutedCommits); n != 1 {
		t.Fatalf("routed commits = %d, want 1", n)
	}
	got, err := s1.Read(id, pid, "", 0, 4)
	if err != nil || !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("read after routed commit = %q, %v", got, err)
	}
}

// moveWorld is a placementCluster with a process at site 2 that has va/f
// (mounted at site 1) open, and the bytes its transactions committed.
type moveWorld struct {
	cl   *Cluster
	pid  int
	id   string   // va/f
	f    *Binding // va/f, opened at site 2
	data []byte
}

func newMoveWorld(t *testing.T, cfg Config) *moveWorld {
	t.Helper()
	cl := placementCluster(t, cfg)
	t.Cleanup(cl.Shutdown)
	w := &moveWorld{cl: cl, pid: cl.NewPID()}
	s2 := cl.Site(2)
	s2.Procs().NewProcess(w.pid, 0)
	must(t, s2.Create("va/f"))
	id, _, err := s2.Open("va/f")
	must(t, err)
	w.f, w.id = id, id.ID()
	return w
}

// heat commits site 2's transactions on va/f at site 1 until the commit
// sweep there has tried to move the file.  It may run in an actor, so it
// reports with t.Error.
func (w *moveWorld) heat(t *testing.T) {
	s1 := w.cl.Site(1)
	for i := 0; i < 8 && s1.installSeq.Load() == 0; i++ {
		txid := fmt.Sprintf("T%d", i)
		if _, err := w.cl.Site(2).Write(w.f, w.pid, txid, int64(len(w.data)), []byte("abcd")); err != nil {
			t.Error(err)
			return
		}
		k := s1.kernel()
		if _, err := k.prepare(prepareReq{Txid: txid, FileIDs: []string{w.id}, Coord: 1}); err != nil {
			t.Error(err)
			return
		}
		if err := k.handleCommit2(txnReq{Txid: txid}); err != nil {
			t.Error(err)
			return
		}
		w.data = append(w.data, "abcd"...)
	}
	if s1.installSeq.Load() == 0 {
		t.Error("no ownership move was tried")
	}
}

// expect requires the move's end state: the catalog names home, exactly
// home holds a copy, nothing is in flight and - when home is up - the
// committed bytes read back through it.
func (w *moveWorld) expect(t *testing.T, home simnet.SiteID) {
	t.Helper()
	if got, _ := w.cl.StorageSite(w.id); got != home {
		t.Errorf("catalog says %v, want %v", got, home)
	}
	vol, name, _ := splitPath(w.id)
	var holders []simnet.SiteID
	for _, id := range w.cl.Sites() {
		if vs, err := w.cl.Site(id).kernel().volByName(vol); err == nil {
			if _, err := vs.dirLookup(name); err == nil {
				holders = append(holders, id)
			}
		}
		if n := w.cl.Site(id).PlacementInFlight(); n != 0 {
			t.Errorf("site %v: %d placement operations in flight", id, n)
		}
	}
	if len(holders) != 1 || holders[0] != home {
		t.Errorf("copies at sites %v, want one at %v", holders, home)
	}
	if !w.cl.Site(home).Up() {
		return
	}
	s2 := w.cl.Site(2)
	if _, _, err := s2.Open("va/f"); err != nil {
		t.Fatal(err)
	}
	if got, err := s2.Read(w.f, w.pid, "", 0, len(w.data)); err != nil || !bytes.Equal(got, w.data) {
		t.Errorf("read through %v = %q, %v; want %q", home, got, err, w.data)
	}
}

// TestMoveVerdict: an ownership move is decided once, in the catalog - the
// target commits it before it replies, the source's settle or its crash
// aborts it - and each side acts on the verdict, with no restart.  Rows (a)
// and (c) fail where moves were decided by disown messages: a lost reply
// plus a lost disown, or a source crashing mid-adoption, left the target's
// copy beside the source's until a restart.
func TestMoveVerdict(t *testing.T) {
	t.Run("a-reply-lost", func(t *testing.T) {
		w := newMoveWorld(t, Config{Clock: vtime.NewVirtual()})
		var cut atomic.Bool
		w.cl.Net().SetFaultFilter(func(from, to simnet.SiteID, op string) bool {
			if op == "install" && from == 2 { // the adoption's reply
				cut.Store(true)
				return true
			}
			return cut.Load() && from == 1 && to == 2
		})
		w.heat(t)
		w.expect(t, 2)
	})
	// A call runs its handler on the caller's actor, so a stalled adoption
	// stalls its source too: the source settles before the target decides
	// only when it crashes under the adoption.
	t.Run("c-source-crashes", func(t *testing.T) {
		clk := vtime.NewVirtual()
		w := newMoveWorld(t, Config{Clock: clk})
		s1 := w.cl.Site(1)
		parked, release := make(chan struct{}, 1), make(chan struct{}, 1)
		w.cl.Site(2).Stall("install", func() {
			vtime.NotifySend(clk, parked, struct{}{})
			vtime.WaitRecv(clk, release, 0)
		})
		g := vtime.NewGroup(clk)
		g.Go(func() { w.heat(t) })
		vtime.WaitRecv(clk, parked, 0)
		w.cl.Site(2).Stall("install", nil)
		s1.Crash()
		vtime.NotifySend(clk, release, struct{}{})
		g.Wait()
		w.expect(t, 1)
		must(t, s1.Restart())
		w.expect(t, 1)
	})
}

// movedPair builds a placement cluster whose site 1 stores va/warm and
// va/f, each holding a record a non-transaction write committed (no heat
// at site 1), and moves va/warm to site 2 so site 2 already serves its
// copy of va: a later move of va/f pays for the file alone.
func movedPair(t *testing.T, cfg Config) (cl *Cluster, f *Binding, pid int) {
	t.Helper()
	cl = placementCluster(t, cfg)
	t.Cleanup(cl.Shutdown)
	s1 := cl.Site(1)
	pid = cl.NewPID()
	s1.Procs().NewProcess(pid, 0)
	for _, path := range []string{"va/warm", "va/f"} {
		must(t, s1.Create(path))
		b, _, err := s1.Open(path)
		must(t, err)
		if _, err := s1.Write(b, pid, "", 0, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
		must(t, s1.Sync(b, pid, ""))
		f = b
	}
	must(t, s1.kernel().moveFile("va/warm", 2))
	if home, _ := cl.StorageSite("va/warm"); home != 2 {
		t.Fatalf("va/warm at %v after its move, want 2", home)
	}
	return cl, f, pid
}

// TestOwnerMoveForces: a move costs at most six forced I/Os, target and
// source together - the entry and then the image with its inode at the
// target, the entry and the released inode at the source, one force each.
// It cost nine: the target wrote an empty inode first, and each entry and
// image took a page force and an inode force, the release two more.
func TestOwnerMoveForces(t *testing.T) {
	cl, f, _ := movedPair(t, Config{})
	before := cl.Stats().Snapshot()
	must(t, cl.Site(1).kernel().moveFile(f.ID(), 2))
	d := cl.Stats().Snapshot().Sub(before)
	if n := d.Get(stats.OwnerMoves); n != 1 {
		t.Fatalf("owner moves = %d, want 1", n)
	}
	t.Logf("one move: %d forced I/Os", d.Get(stats.ForcedIOs))
	if n := d.Get(stats.ForcedIOs); n > 6 {
		t.Errorf("a move costs %d forced I/Os, want at most 6", n)
	}
	if got, err := cl.Site(2).Read(f, cl.NewPID(), "", 0, 4); err != nil || string(got) != "abcd" {
		t.Errorf("moved file reads %q, %v at its new home", got, err)
	}
}

// TestNoLeaseWhereTheHomeLeads: with placement on, a storage site that
// leads a file's heat grants no lease on it - its own next conflicting
// access would revoke the lease before the holder came back - and grants
// one once a remote site leads.
func TestNoLeaseWhereTheHomeLeads(t *testing.T) {
	cl := placementCluster(t, Config{LockLeases: true})
	t.Cleanup(cl.Shutdown)
	s1, s2 := cl.Site(1), cl.Site(2)
	pid1, pid2 := cl.NewPID(), cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	s2.Procs().NewProcess(pid2, 0)
	must(t, s1.Create("va/f"))
	b1, _, err := s1.Open("va/f")
	must(t, err)
	b2, _, err := s2.Open("va/f")
	must(t, err)
	write := func(s *Site, b *Binding, pid int, txid string, off int64) []int {
		t.Helper()
		if _, err := s.Write(b, pid, txid, off, []byte("abcd")); err != nil {
			t.Fatal(err)
		}
		commitAtStorage(t, s1, txid, b.ID())
		return s1.Locks().Lookup(b.ID()).LeaseSites()
	}
	write(s1, b1, pid1, "T1", 0)
	if sites := write(s2, b2, pid2, "T2", 8); len(sites) != 0 {
		t.Errorf("site 1 leads va/f and granted leases to sites %v", sites)
	}
	if sites := write(s2, b2, pid2, "T3", 16); !slices.Equal(sites, []int{2}) {
		t.Errorf("site 2 leads va/f and holds leases %v, want [2]", sites)
	}
}

// TestStaleLeaseHolderAdoptsTheFile: a holder whose lease was reclaimed
// while it was partitioned away keeps the lease cached, and its stale
// hits materialize at the storage site without granting it a new lease,
// so nothing denies a later quiesce and the file can move to the holder.
// The new home then stores the file it holds a stale lease on: the
// install drops the entry, and a hit taken before the move that reaches
// the new home after it takes its lock there, so the holder's
// transactions keep committing.
func TestStaleLeaseHolderAdoptsTheFile(t *testing.T) {
	cfg := Config{LockLeases: true}
	cfg.Placement.MinAccesses = 1 << 20 // only the explicit move below
	cl := placementCluster(t, cfg)
	t.Cleanup(cl.Shutdown)
	s1, s2 := cl.Site(1), cl.Site(2)
	pid1, pid2 := cl.NewPID(), cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	s2.Procs().NewProcess(pid2, 0)
	must(t, s1.Create("va/f"))
	b1, _, err := s1.Open("va/f")
	must(t, err)
	b2, _, err := s2.Open("va/f")
	must(t, err)
	write := func(s *Site, b *Binding, pid int, txid, data string) {
		t.Helper()
		if _, err := s.Write(b, pid, txid, 0, []byte(data)); err != nil {
			t.Fatalf("%s at site %v: %v", txid, s.id, err)
		}
		commitAtHome(t, cl, txid, b.ID())
	}
	cached := func() bool {
		return s2.kernel().leaseHit("va/f", lockmgr.ModeExclusive, 0, 4)
	}

	write(s2, b2, pid2, "T1", "aaaa")
	if sites := s1.Locks().Lookup("va/f").LeaseSites(); !slices.Equal(sites, []int{2}) {
		t.Fatalf("lease sites after T1 = %v, want [2]", sites)
	}
	cl.Net().Partition(2)
	write(s1, b1, pid1, "T2", "bbbb") // the callback fails; the lease is reclaimed
	cl.Net().Heal()
	if !cached() {
		t.Fatal("the partitioned holder lost its cached lease")
	}
	before := cl.Stats().Snapshot()
	write(s2, b2, pid2, "T3", "cccc")
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.LeaseHits) != 1 || d.Get(stats.LockMsgs) != 0 {
		t.Fatalf("stale hit: lease_hits=%d lock_msgs=%d, want 1/0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	if sites := s1.Locks().Lookup("va/f").LeaseSites(); len(sites) != 0 {
		t.Fatalf("a stale hit re-granted leases to %v", sites)
	}

	must(t, s1.kernel().moveFile("va/f", 2))
	if home, _ := cl.StorageSite("va/f"); home != 2 {
		t.Fatalf("va/f at %v after its move, want 2", home)
	}
	if cached() {
		t.Error("the new home kept a cached lease on the file it stores")
	}
	write(s2, b2, pid2, "T4", "dddd")

	// A hit taken before the move whose access lands after it.
	s2.kernel().leaseCacheAdd("va/f", lockmgr.ModeExclusive, 0, wholeFile)
	write(s2, b2, pid2, "T5", "eeee")
	if got, err := s1.Read(b1, pid1, "", 0, 4); err != nil || string(got) != "eeee" {
		t.Fatalf("va/f reads %q, %v; want eeee", got, err)
	}
}
