package invariant_test

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/invariant"
	"repro/internal/lockmgr"
	"repro/internal/scenario"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/tpc"
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
			spec: scenario.Spec{Virtual: true, Layers: scenario.Layers{Placement: scenario.Eager}},
			plant: func(t *testing.T, sys *core.System) {
				for i := 0; i < 3; i++ {
					commit(t, sys, 2, "v1/b", "from site two")
				}
				if home, _ := sys.Cluster().StorageSite("v1/b"); home != 2 {
					t.Fatalf("v1/b did not move to site 2 (home %v)", home)
				}
				f, err := shadow.Open(vol1(sys), 0)
				if err != nil {
					t.Fatal(err)
				}
				buf, dir := make([]byte, f.CommittedSize()), map[string]int{}
				if _, err := f.ReadAt(buf, 0); err != nil {
					t.Fatal(err)
				}
				if err := gob.NewDecoder(bytes.NewReader(buf)).Decode(&dir); err != nil {
					t.Fatal(err)
				}
				dir["b"] = dir["a"]
				var out bytes.Buffer
				if err := gob.NewEncoder(&out).Encode(dir); err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteAt("plant", out.Bytes(), 0); err != nil {
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

			report := invariant.Audit(sys.Cluster(), scenario.Collector(sys), files)
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
	sys, err := scenario.Spec{Volumes: scenario.PerSite(1), Virtual: true}.Build()
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
