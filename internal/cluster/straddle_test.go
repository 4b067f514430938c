package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// The straddle table: a request is received by site 1, parks (Site.Stall:
// after it is bound to its incarnation, before the handler body), the site
// crashes and restarts under it, and only then does the handler run.  For
// every op that changes storage-site or participant state the caller must
// see a lost reply - a dead kernel sends nothing - and the new incarnation,
// snapshotted before the handler is released, must be exactly as it was
// afterwards.

// straddleWorld is the cluster a row runs in: site 1 (the one that
// crashes) mounts va, holds a replica of vb and may host vc; site 2 mounts
// vb and sends the straddling request; site 3 mounts vc and is the
// coordinator prepare records name.
type straddleWorld struct {
	t   *testing.T
	cl  *Cluster
	clk vtime.Clock
	pid int    // a process at site 2 with va/f open
	id  string // va/f
}

func newStraddleWorld(t *testing.T, clk vtime.Clock) *straddleWorld {
	t.Helper()
	// A lost reply costs the caller its call budget: on the real clock that
	// is wall time, and it must outlast the crash, restart and release.
	cl := New(Config{Clock: clk, SyncPhase2: true, AdaptivePlacement: true, Net: simnet.Config{CallTimeout: 500 * time.Millisecond}})
	t.Cleanup(cl.Shutdown)
	for i, vol := range []string{"va", "vb", "vc"} {
		cl.AddSite(simnet.SiteID(i + 1))
		must(t, cl.AddVolume(simnet.SiteID(i+1), vol))
	}
	s2 := cl.Site(2)
	must(t, s2.Create("vb/r"))
	must(t, cl.AddReplica("vb", 1))
	w := &straddleWorld{t: t, cl: cl, clk: clk, pid: cl.NewPID()}
	s2.Procs().NewProcess(w.pid, 0)
	must(t, s2.Create("va/f"))
	id, _, err := s2.Open("va/f")
	must(t, err)
	w.id = id
	return w
}

// txnWrite has transaction T1 lock and write va/f from site 2.
func (w *straddleWorld) txnWrite() {
	w.t.Helper()
	_, err := w.cl.Site(2).Write(w.id, w.pid, "T1", 0, []byte("abcd"))
	must(w.t, err)
}

func (w *straddleWorld) prepareReq() prepareReq {
	return prepareReq{Txid: "T1", FileIDs: []string{w.id}, Coord: 3}
}

// prepared leaves T1 prepared at site 1 with its coordinator (site 3)
// down, so site 1's restart recovers it in doubt, locks re-established.
func (w *straddleWorld) prepared() {
	w.t.Helper()
	w.txnWrite()
	must(w.t, w.cl.Site(1).kernel().handlePrepare(w.prepareReq()))
	w.cl.Site(3).Crash()
}

// pending creates vc/<name> at site 3 and registers its move to site 1 in
// the catalog, as ship does before the call; the returned install is site
// 3's.
func (w *straddleWorld) pending(name string, id uint64) installReq {
	w.t.Helper()
	must(w.t, w.cl.Site(3).Create("vc/"+name))
	return proposeInstall(w.cl.Site(3).kernel(), id, install{path: "vc/" + name, to: 1, move: true}, "image")
}

// proposeInstall registers src's install in the catalog, drawn as id, as
// ship does before the call, and returns the request that carries data.
func proposeInstall(src *incarnation, id uint64, in install, data string) installReq {
	in.src = src
	src.cl.propose(&in, id)
	return installReq{Path: in.path, Data: []byte(data), ID: id}
}

// hosted has site 3 move vc/h to site 1 for real, so site 1 hosts vc.
func (w *straddleWorld) hosted() {
	w.t.Helper()
	must(w.t, w.cl.Site(3).Create("vc/h"))
	must(w.t, w.cl.Site(3).kernel().moveFile("vc/h", 1))
	if home, _ := w.cl.StorageSite("vc/h"); home != 1 {
		w.t.Fatalf("vc/h did not move to site 1 (home %v)", home)
	}
}

// snapshot renders everything a stale handler could have disturbed in
// site 1's current incarnation and on its disks.
func (w *straddleWorld) snapshot() string {
	s := w.cl.Site(1)
	k := s.kernel()
	var b strings.Builder
	fmt.Fprintf(&b, "up=%v volumes=%v indoubt=%d lockcache=%d\n", s.Up(), s.Volumes(), s.InDoubtCount(), s.LockCacheGroups())
	home, _ := w.cl.StorageSite("vc/g")
	recorded, current := w.cl.ReplicaCopy("vb/r", 1)
	fmt.Fprintf(&b, "catalog vc/g home=%v, vb/r replica at 1=%v current=%v\n", home, recorded, current)
	for _, f := range k.locks.Files() {
		fmt.Fprintf(&b, "locks %s: %+v\n", f, k.locks.Lookup(f).Entries())
	}
	k.mu.Lock()
	var lines []string
	for id, of := range k.open {
		lines = append(lines, fmt.Sprintf("open %s refs=%d", id, of.refs))
	}
	for txid, pt := range k.prepared {
		lines = append(lines, fmt.Sprintf("prepared %s recovered=%v applying=%v", txid, pt.recovered, pt.applying))
	}
	for txid := range k.txns {
		lines = append(lines, "txn "+txid)
	}
	for _, vs := range k.vols {
		lines = append(lines, fmt.Sprintf("handles %s=%d", vs.name, len(vs.files)))
	}
	k.mu.Unlock()
	k.fenceMu.Lock()
	lines = append(lines, fmt.Sprintf("fenced=%v", k.fenced))
	k.fenceMu.Unlock()
	for _, vs := range k.volStates() {
		recs, err := tpc.ReadPrepareRecords(vs.vol)
		must(w.t, err)
		var txids []string
		for _, rec := range recs {
			txids = append(txids, rec.Txid)
		}
		lines = append(lines, fmt.Sprintf("volume %s mounted=%v dir=%v log=%v prepare=%v free=%d",
			vs.name, vs.disk.mounted, vs.dirList(), vs.vol.Log().Keys(), txids, vs.vol.FreePages()))
	}
	sort.Strings(lines)
	return b.String() + strings.Join(lines, "\n")
}

func TestStraddle(t *testing.T) {
	rows := []struct {
		op string
		// name, if set, names the row in place of op: an install row is
		// named for the copy it lands - a move's adoption at its new home,
		// or a replica's sync.
		name  string
		from  simnet.SiteID              // the sender; 0 means site 2
		setup func(w *straddleWorld) any // prepares the world, returns the request
		// check, if set, inspects the new incarnation's snapshot: the row
		// is only worth its name if recovery left there what the stale
		// handler would have hit.
		check func(t *testing.T, snap string)
	}{
		{op: "create", setup: func(w *straddleWorld) any { return createReq{Path: "va/new"} }},
		{op: "open", setup: func(w *straddleWorld) any { return openReq{Path: "va/f"} }},
		{op: "lock", setup: func(w *straddleWorld) any {
			return lockReq{FileID: w.id, PID: w.pid, Txn: "T1", Mode: lockmgr.ModeExclusive, Len: 4}
		}},
		{op: "write", setup: func(w *straddleWorld) any {
			return writeReq{FileID: w.id, PID: w.pid, Data: []byte("abcd")}
		}},
		{op: "unlock", setup: func(w *straddleWorld) any {
			_, err := w.cl.Site(2).Lock(w.id, w.pid, "", lockmgr.ModeExclusive, 0, 4, false, false, false)
			must(w.t, err)
			return unlockReq{FileID: w.id, PID: w.pid, Len: 4}
		}},
		{op: "close", setup: func(w *straddleWorld) any {
			_, err := w.cl.Site(2).Write(w.id, w.pid, "", 0, []byte("abcd"))
			must(w.t, err)
			return closeReq{FileID: w.id, PID: w.pid}
		}},
		{op: "prepare", setup: func(w *straddleWorld) any { w.txnWrite(); return w.prepareReq() }},
		{op: "preparev", setup: func(w *straddleWorld) any { w.txnWrite(); return w.prepareReq() }},
		{op: "prepareCommit", setup: func(w *straddleWorld) any { w.txnWrite(); return w.prepareReq() }},
		{op: "commit2", setup: func(w *straddleWorld) any { w.prepared(); return commit2Req{Txid: "T1"} }, check: inDoubt},
		{op: "abortTxn", setup: func(w *straddleWorld) any { w.prepared(); return abortTxnReq{Txid: "T1"} }, check: inDoubt},
		{op: "install", name: "owneradopt", from: 3, setup: func(w *straddleWorld) any { return w.pending("g", 7) }},
		{op: "install", name: "owneradopt", from: 3, setup: func(w *straddleWorld) any { // site 1 hosts vc already
			w.hosted()
			return w.pending("g", 7)
		}},
		// remove reclaims a file the way a refused install reclaims its copy.
		{op: "remove", setup: func(w *straddleWorld) any { must(w.t, w.cl.Site(2).Create("va/x")); return removeReq{Path: "va/x"} }},
		{op: "install", name: "replsync", setup: func(w *straddleWorld) any { // vb/r, held at 1 at version 0
			id, _, err := w.cl.Site(2).Open("vb/r")
			must(w.t, err)
			_, err = w.cl.Site(2).Write(id, w.pid, "", 0, []byte("dirty")) // version 1; the restart's pull skips it
			must(w.t, err)
			return proposeInstall(w.cl.Site(2).kernel(), 9, install{path: "vb/r", to: 1, version: 1}, "fresh")
		}},
		{op: "replremove", setup: func(w *straddleWorld) any { return replRemoveReq{Path: "vb/r"} }},
	}
	clocks := map[string]func() vtime.Clock{
		"real":    vtime.Real,
		"virtual": func() vtime.Clock { return vtime.NewVirtual() },
	}
	for name, newClock := range clocks {
		for i, row := range rows {
			t.Run(fmt.Sprintf("%s/%d-%s", name, i, cmp.Or(row.name, row.op)), func(t *testing.T) {
				if name == "real" {
					t.Parallel() // the silence costs the caller its whole call budget
				}
				clk := newClock()
				w := newStraddleWorld(t, clk)
				req := row.setup(w)
				s1 := w.cl.Site(1)

				parked, release := make(chan struct{}, 1), make(chan struct{}, 1)
				s1.Stall(row.op, func() {
					vtime.NotifySend(clk, parked, struct{}{})
					vtime.WaitRecv(clk, release, 0)
				})
				var callErr error
				g := vtime.NewGroup(clk)
				from := row.from
				if from == 0 {
					from = 2
				}
				g.Go(func() { _, callErr = w.cl.Site(from).ep.Call(1, row.op, req) })
				vtime.WaitRecv(clk, parked, 0)
				s1.Stall(row.op, nil) // recovery's own traffic goes through

				old := s1.kernel()
				s1.Crash()
				must(t, s1.Restart())
				before := w.snapshot()
				if row.check != nil {
					row.check(t, before)
				}

				vtime.NotifySend(clk, release, struct{}{})
				g.Wait()
				if !errors.Is(callErr, simnet.ErrTimeout) {
					t.Errorf("the caller of a handler its site crashed under got %v, want a lost reply", callErr)
				}
				if after := w.snapshot(); after != before {
					t.Errorf("a handler of the dead incarnation changed its successor.\nbefore:\n%s\nafter:\n%s", before, after)
				}
				if s1.kernel() == old || !old.dead.Load() {
					t.Error("site 1 did not change incarnation")
				}
			})
		}
	}
}

// inDoubt requires T1 recovered in doubt with its lock re-established and
// its prepare record on disk.
func inDoubt(t *testing.T, snap string) {
	t.Helper()
	for _, want := range []string{"indoubt=1", "locks va/f: [{Holder:{PID:0 Txn:T1}", "prepared T1 recovered=true", "prepare=[T1]"} {
		if !strings.Contains(snap, want) {
			t.Errorf("recovery should have left %q:\n%s", want, snap)
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
