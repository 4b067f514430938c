package invariant_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/invariant"
	"repro/internal/lockmgr"
	"repro/internal/scenario"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// commit creates (first time) or reopens path from a process at site and
// commits data into it.
func commit(t *testing.T, sys *core.System, site simnet.SiteID, path, data string) {
	t.Helper()
	p, err := sys.NewProcess(site)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Open(path)
	if err != nil {
		if f, err = p.Create(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte(data), 0); err != nil {
		t.Fatal(err)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAuditCatchesEachDefect plants one defect per row in an otherwise
// clean two-site cluster and requires the audit to report exactly the
// check that owns it - the paths the harnesses otherwise only exercise
// when the system under test misbehaves.
func TestAuditCatchesEachDefect(t *testing.T) {
	files := []string{"v1/a", "v1/b", "v2/c"}
	vol1 := func(sys *core.System) *fs.Volume { return sys.Cluster().Site(1).Volume("v1") }
	lockA := func(sys *core.System, h lockmgr.Holder) {
		fl := sys.Cluster().Site(1).Locks().File("v1/a", nil)
		if _, err := fl.Lock(lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Off: 0, Len: 10}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		spec  scenario.Spec
		plant func(t *testing.T, sys *core.System)
		check string // the one check that must fail
		want  string // and what one of its violations must say
	}{
		{name: "clean", plant: func(*testing.T, *core.System) {}},
		{
			name:  "residual lock",
			plant: func(t *testing.T, sys *core.System) { lockA(sys, lockmgr.Holder{PID: 9, Txn: "T9"}) },
			check: "lock-table", want: "residual exclusive lock txn:T9 [0,10)",
		},
		{
			name: "conflicting grants from two groups",
			plant: func(t *testing.T, sys *core.System) {
				// A process's pre-transaction lock never blocks its own
				// transaction, so the same PID lands two exclusive grants in
				// two conflict groups.
				lockA(sys, lockmgr.Holder{PID: 7})
				lockA(sys, lockmgr.Holder{PID: 7, Txn: "T7"})
			},
			check: "lock-table", want: "conflicting grants pid:7 exclusive [0,10) vs txn:T7 exclusive [0,10)",
		},
		{
			name: "leaked allocated page",
			plant: func(t *testing.T, sys *core.System) {
				if _, err := vol1(sys).AllocPage(); err != nil {
					t.Fatal(err)
				}
			},
			check: "allocator", want: "allocated but referenced by no inode",
		},
		{
			name: "page referenced by two inodes",
			plant: func(t *testing.T, sys *core.System) {
				vol := vol1(sys)
				var nodes []*fs.Inode
				for _, ino := range vol.Inodes() {
					node, err := vol.ReadInode(ino)
					if err != nil {
						t.Fatal(err)
					}
					if ino != 0 && len(node.Pages) > 0 {
						nodes = append(nodes, node)
					}
				}
				if len(nodes) < 2 {
					t.Fatalf("want two data files on v1, found %d", len(nodes))
				}
				nodes[1].Pages[0] = nodes[0].Pages[0]
				if err := vol.WriteInode(nodes[1]); err != nil {
					t.Fatal(err)
				}
			},
			check: "allocator", want: "referenced by both ino",
		},
		{
			name: "residual prepare record",
			plant: func(t *testing.T, sys *core.System) {
				if err := tpc.WritePrepareRecord(vol1(sys), tpc.PrepareRecord{Txid: "00000099.1", CoordSite: 2}, ""); err != nil {
					t.Fatal(err)
				}
			},
			check: "resolution", want: "1 residual prepare records",
		},
		{
			name: "unreclaimed log key",
			plant: func(t *testing.T, sys *core.System) {
				if err := vol1(sys).Log().Put("coord:00000098.1", fs.KindCoordinator, []byte("stale")); err != nil {
					t.Fatal(err)
				}
			},
			check: "resolution", want: "log not reclaimed: [coord:00000098.1]",
		},
		{
			// A move lands (site 2 commits v1/b until it migrates there),
			// then the source's directory gets the name back: the leftover
			// a crash between the target's commit and the source's reclaim
			// leaves for the source's restart purge, caught before any
			// restart.
			name: "second primary copy",
			spec: scenario.Spec{Config: cluster.Config{AdaptivePlacement: true, Placement: scenario.Eager}},
			plant: func(t *testing.T, sys *core.System) {
				for i := 0; i < 3; i++ {
					commit(t, sys, 2, "v1/b", "from site two")
				}
				if home, _ := sys.Cluster().StorageSite("v1/b"); home != 2 {
					t.Fatalf("v1/b did not move to site 2 (home %v)", home)
				}
				dir, err := cluster.ReadDirectory(vol1(sys))
				if err != nil {
					t.Fatal(err)
				}
				dir["b"] = dir["a"]
				f, err := shadow.Open(vol1(sys), 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt("plant", cluster.AppendDirectory(nil, dir), 0); err != nil {
					t.Fatal(err)
				}
				if err := f.Commit("plant"); err != nil {
					t.Fatal(err)
				}
			},
			check: "single-primary", want: "v1/b: primary copies at sites [site1 site2], catalog says site2",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec
			spec.Volumes, spec.Trace = scenario.PerSite(2), true
			sys, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Cluster().Shutdown()
			commit(t, sys, 1, "v1/a", "alpha")
			commit(t, sys, 1, "v1/b", "bravo")
			commit(t, sys, 2, "v2/c", "charlie")
			tc.plant(t, sys)
			if tc.check != "lock-table" { // a planted lock is exactly what Drain waits out
				if err := invariant.Drain(sys.Cluster(), sys.Cluster().Clock(), 10*time.Minute); err != nil {
					t.Fatal(err)
				}
			}

			report := invariant.Audit(sys.Cluster(), scenario.Collector(sys), files, nil)
			for _, c := range report {
				switch {
				case c.Name != tc.check && len(c.Violations) > 0:
					t.Errorf("check %s failed too: %v", c.Name, c.Violations)
				case c.Name == tc.check && !strings.Contains(strings.Join(c.Violations, "\n"), tc.want):
					t.Errorf("check %s: want a violation saying %q, got %v", c.Name, tc.want, c.Violations)
				}
			}
			if report.OK() != (tc.check == "") {
				t.Errorf("OK() = %v with violations %v", report.OK(), report.Violations())
			}
		})
	}
}

// TestDrainReportsStuckWork: a drain that cannot finish says what is
// stuck instead of returning silently.
func TestDrainReportsStuckWork(t *testing.T) {
	sys, err := scenario.Spec{Volumes: scenario.PerSite(1)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cluster().Shutdown()
	fl := sys.Cluster().Site(1).Locks().File("v1/a", nil)
	if _, err := fl.Lock(lockmgr.Request{Holder: lockmgr.Holder{PID: 9, Txn: "T9"}, Mode: lockmgr.ModeExclusive, Len: 10}); err != nil {
		t.Fatal(err)
	}
	err = invariant.Drain(sys.Cluster(), sys.Cluster().Clock(), time.Second)
	if err == nil || !strings.Contains(err.Error(), "site 1: 1 locks still held") {
		t.Fatalf("Drain = %v, want an error naming the held lock", err)
	}
}

// TestHealRedrivesLostAbort: a transaction that a partition aborts
// leaves its lock at the storage site it cut off, since the abort cannot
// cross; the heal sends the abort again, so recovery without a restart
// finds nothing held.
func TestHealRedrivesLostAbort(t *testing.T) {
	sys, err := scenario.Spec{Volumes: scenario.PerSite(2)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cluster().Shutdown()
	commit(t, sys, 1, "v2/f", "pre")
	p, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := p.Open("v2/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("doomed"), 0); err != nil {
		t.Fatal(err)
	}
	net := sys.Cluster().Net()
	net.Partition(2)
	vtime.Settle(sys.Cluster().Clock()) // the watcher aborts the transaction
	net.Heal()
	if err := invariant.Quiesce(sys.Cluster(), sys.Cluster().Clock(), false); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(p.EndTrans(), core.ErrAborted) {
		t.Error("the partition did not abort the transaction")
	}
}

// TestAtomicAndReplicaCatchEachDefect: the post-recovery checks of a
// scenario file's expect atomic and replica lines name the step each
// file holds and fail on a torn, reverted or split march and on a
// replica serving bytes that are not the committed version.
func TestAtomicAndReplicaCatchEachDefect(t *testing.T) {
	sys, err := scenario.Spec{Volumes: scenario.PerSite(2)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cluster().Shutdown()
	commit(t, sys, 1, "v1/a", "pre")
	commit(t, sys, 1, "v2/b", "post")
	march := func(confirmed int, steps ...string) invariant.Images {
		im := invariant.Images{Confirmed: confirmed}
		for _, s := range steps {
			im.Steps = append(im.Steps, []byte(s))
		}
		return im
	}
	for _, tc := range []struct {
		name   string
		paths  []string
		images []invariant.Images
		state  string
		want   string // a violation must say this; "" is clean
	}{
		{"pre", []string{"v1/a"}, []invariant.Images{march(0, "pre", "post")}, "pre", ""},
		{"post2", []string{"v1/a"}, []invariant.Images{march(2, "x", "y", "pre")}, "post2", ""},
		{"torn", []string{"v1/a"}, []invariant.Images{march(0, "old", "new")}, "torn(len=3)", "none of the whole images"},
		{"reverted", []string{"v1/a"}, []invariant.Images{march(1, "pre", "post")}, "pre", "post was confirmed to its client but recovery kept pre"},
		{"split", []string{"v1/a", "v2/b"}, []invariant.Images{march(0, "pre", "post"), march(0, "pre", "post")},
			"split(pre/post)", "cross-site atomicity torn"},
		{"unreadable", []string{"v1/none"}, []invariant.Images{march(0, "pre")}, "unreadable", "committed read failed"},
		{"undone create", []string{"v1/none"}, []invariant.Images{march(0, "", "post")}, "pre", ""},
		{"lost create", []string{"v1/none"}, []invariant.Images{march(1, "", "post")}, "pre", "post was confirmed to its client but recovery kept pre"},
	} {
		state, c := invariant.Atomic(sys, tc.paths, tc.images)
		if got := strings.Join(c.Violations, "\n"); state != tc.state || !strings.Contains(got, tc.want) || (tc.want == "") != (got == "") {
			t.Errorf("%s: state %q violations %q, want %q and a violation saying %q", tc.name, state, got, tc.state, tc.want)
		}
	}

	for _, r := range []struct {
		vol  string
		site simnet.SiteID
	}{{"v1", 2}, {"v2", 1}} {
		if err := sys.AddReplica(r.vol, r.site); err != nil {
			t.Fatal(err)
		}
	}
	if c := invariant.Replica(sys, "v2/b", 1); len(c.Violations) != 0 {
		t.Fatalf("a current replica: %v", c.Violations)
	}
	// Plant bytes the catalog does not know of in v1's copy at site 2,
	// then restart the site so it reads the copy from its disk.
	vol := sys.Cluster().Site(2).Volume("v1")
	dir, err := cluster.ReadDirectory(vol)
	if err != nil {
		t.Fatal(err)
	}
	node, err := vol.ReadInode(dir["a"])
	if err != nil {
		t.Fatal(err)
	}
	if err := vol.RewriteFile(node, []byte("PRE")); err != nil {
		t.Fatal(err)
	}
	sys.Cluster().Site(2).Crash()
	if err := sys.Cluster().Site(2).Restart(); err != nil {
		t.Fatal(err)
	}
	if c := invariant.Replica(sys, "v1/a", 2); !strings.Contains(strings.Join(c.Violations, "\n"), "not the committed version") {
		t.Fatalf("a stale replica served locally: %v", c.Violations)
	}
}

// TestLostCreateFailsBothChecks: a file whose create no confirmed commit
// covers may be missing after recovery, but a recovery that drops a
// confirmed create's directory entry fails both the single-primary check
// and expect atomic.
func TestLostCreateFailsBothChecks(t *testing.T) {
	sys, err := scenario.Spec{Volumes: scenario.PerSite(1)}.Build()
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Cluster().Shutdown()
	commit(t, sys, 1, "v1/n", "created")
	// The planted recovery: v1's directory loses n, and the site reloads.
	vol := sys.Cluster().Site(1).Volume("v1")
	dir, err := cluster.ReadDirectory(vol)
	if err != nil {
		t.Fatal(err)
	}
	delete(dir, "n")
	f, err := shadow.Open(vol, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt("plant", cluster.AppendDirectory(nil, dir), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Commit("plant"); err != nil {
		t.Fatal(err)
	}
	sys.Cluster().Site(1).Crash()
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Cluster().StorageSite("v1/n"); !errors.Is(err, cluster.ErrNoSuchFile) {
		t.Fatalf("StorageSite of a path with no directory entry: %v, want ErrNoSuchFile", err)
	}
	placement := func(absent bool) []string {
		for _, c := range invariant.Audit(sys.Cluster(), nil, []string{"v1/n"}, func(string) bool { return absent }) {
			if c.Name == "single-primary" {
				return c.Violations
			}
		}
		t.Fatal("the audit ran no single-primary check")
		return nil
	}
	if v := placement(true); len(v) != 0 {
		t.Errorf("an undone create: single-primary %v, want clean", v)
	}
	if v := placement(false); len(v) == 0 || !strings.Contains(v[0], "primary copies at sites []") {
		t.Errorf("a lost confirmed create: single-primary %v, want a violation", v)
	}
	lost := invariant.Images{Steps: [][]byte{nil, []byte("created")}, Confirmed: 1}
	if _, c := invariant.Atomic(sys, []string{"v1/n"}, []invariant.Images{lost}); len(c.Violations) == 0 {
		t.Error("a lost confirmed create: expect atomic is clean, want a violation")
	}
}
