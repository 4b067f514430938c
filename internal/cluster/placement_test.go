package cluster

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

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
	if cfg.PlacementMinAccesses == 0 {
		cfg.PlacementMinAccesses = 2
	}
	if cfg.PlacementCooldown == 0 {
		cfg.PlacementCooldown = 2
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
			commitAtStorage(t, cl.Site(1), txid, id)
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
		commitAtHome(t, cl, txid, id)
	}

	home, err := cl.StorageSite(id)
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
	commitAtHome(t, cl, "T5", id)
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
		commitAtHome(t, cl, txid, id)
	}
	if home, _ := cl.StorageSite(id); home != 2 {
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
	if home, _ := cl.StorageSite(id); home != 2 {
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
		commitAtHome(t, cl, txid, id)
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
		commitAtHome(t, cl2, txid, idB)
	}
	if home, _ := cl2.StorageSite(idB); home != 1 {
		t.Fatalf("move proceeded past an uncommitted owner (home %v)", home)
	}
	// Release the holder; the next commit quiesces and the move lands.
	commitAtHome(t, cl2, "THOLD", idB)
	if home, _ := cl2.StorageSite(idB); home != 2 {
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
	cl := placementCluster(t, Config{PlacementMinAccesses: 1e9})
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
	if err := s2.RouteCommit(1, "TR", []proc.FileRef{{FileID: id, StorageSite: simnet.SiteID(1)}}); err != nil {
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
	id   string
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
	w.id = id
	return w
}

// heat commits site 2's transactions on va/f at site 1 until the commit
// sweep there has tried to move the file.  It may run in an actor, so it
// reports with t.Error.
func (w *moveWorld) heat(t *testing.T) {
	s1 := w.cl.Site(1)
	for i := 0; i < 8 && s1.moveSeq.Load() == 0; i++ {
		txid := fmt.Sprintf("T%d", i)
		if _, err := w.cl.Site(2).Write(w.id, w.pid, txid, int64(len(w.data)), []byte("abcd")); err != nil {
			t.Error(err)
			return
		}
		k := s1.kernel()
		if err := k.handlePrepare(prepareReq{Txid: txid, FileIDs: []string{w.id}, Coord: 1}); err != nil {
			t.Error(err)
			return
		}
		if err := k.handleCommit2(commit2Req{Txid: txid}); err != nil {
			t.Error(err)
			return
		}
		w.data = append(w.data, "abcd"...)
	}
	if s1.moveSeq.Load() == 0 {
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
	if got, err := s2.Read(w.id, w.pid, "", 0, len(w.data)); err != nil || !bytes.Equal(got, w.data) {
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
			if op == "owneradopt" && from == 2 { // the adoption's reply
				cut.Store(true)
				return true
			}
			return cut.Load() && from == 1 && to == 2
		})
		w.heat(t)
		w.expect(t, 2)
	})
	// Under the virtual clock a call runs its handler on the caller's
	// goroutine, so a stalled adoption stalls its caller too: only the real
	// clock lets the source time out under it.
	t.Run("b-source-times-out", func(t *testing.T) {
		w := newMoveWorld(t, Config{Net: simnet.Config{CallTimeout: 100 * time.Millisecond}})
		parked, release := make(chan struct{}, 1), make(chan struct{})
		w.cl.Site(2).Stall("owneradopt", func() { parked <- struct{}{}; <-release })
		w.heat(t) // the triggering commit returns once the source settled
		<-parked
		w.cl.Site(2).Stall("owneradopt", nil)
		sent := func() int64 { return w.cl.Stats().Snapshot().Get(stats.MsgsSent) }
		before := sent()
		close(release)
		for deadline := time.Now().Add(5 * time.Second); sent() == before && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond) // until the adoption has answered
		}
		w.expect(t, 1)
	})
	t.Run("c-source-crashes", func(t *testing.T) {
		clk := vtime.NewVirtual()
		w := newMoveWorld(t, Config{Clock: clk})
		s1 := w.cl.Site(1)
		parked, release := make(chan struct{}, 1), make(chan struct{}, 1)
		w.cl.Site(2).Stall("owneradopt", func() {
			vtime.NotifySend(clk, parked, struct{}{})
			vtime.WaitRecv(clk, release, 0)
		})
		g := vtime.NewGroup(clk)
		g.Go(func() { w.heat(t) })
		vtime.WaitRecv(clk, parked, 0)
		w.cl.Site(2).Stall("owneradopt", nil)
		s1.Crash()
		vtime.NotifySend(clk, release, struct{}{})
		g.Wait()
		w.expect(t, 1)
		must(t, s1.Restart())
		w.expect(t, 1)
	})
}
