package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/placement"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// A transaction that only read returns from EndTrans at its lock point
// when the commit fast paths are on (DESIGN.md section 10): its commit
// runs in the background and releases its Shared locks later.  These
// tests call the public API back to back, with no settle in between.

// readOnlySystem builds three sites on the virtual clock at VAX-750
// latencies, each volume holding a file f of 16 committed bytes.  routed
// turns adaptive placement on (EndTrans routes the commit to the one site
// storing every file) with a policy that never moves a file.
func readOnlySystem(t *testing.T, fastPaths, routed bool) (*core.System, *vtime.Virtual) {
	t.Helper()
	spec := scenario.Spec{Volumes: scenario.PerSite(3)}.At(costmodel.Vax750())
	spec.FastPaths = fastPaths
	if routed {
		spec.AdaptivePlacement, spec.Placement = true, placement.Config{MinAccesses: 1e9}
	}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Shutdown)
	p, _ := client(t, sys, 1)
	for _, path := range []string{"v1/f", "v2/f", "v3/f"} {
		f, err := p.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{'a'}, 16), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return sys, sys.Cluster().Clock().(*vtime.Virtual)
}

// must fails the test on err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// ended is what one EndTrans left: its simulated latency, and the
// counters it moved by the time it returned and once the clock ran dry.
type ended struct {
	lat         time.Duration
	atReturn    stats.Snapshot
	afterwards  stats.Snapshot
	errAtReturn error
}

// endTrans ends p's transaction and drains the clock.
func endTrans(sys *core.System, clk *vtime.Virtual, p *core.Process) ended {
	before, t0 := sys.Stats().Snapshot(), clk.Now()
	err := p.EndTrans()
	e := ended{lat: clk.Now().Sub(t0), atReturn: sys.Stats().Snapshot().Sub(before), errAtReturn: err}
	clk.WaitIdle()
	e.afterwards = sys.Stats().Snapshot().Sub(before)
	return e
}

// readV2 begins a transaction at p and reads v2/f's first record.
func readV2(t *testing.T, p *core.Process, f *core.File) {
	t.Helper()
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyEndTransReturnsAtLockPoint: a transaction that only read a
// remote record commits in no simulated time, and the same process's next
// request - a NoWait Exclusive lock on that record - finds its Shared
// lock already released, since the release left first.  The commit
// itself still happens: counted, voted read-only, routed when placement
// routes it.
func TestReadOnlyEndTransReturnsAtLockPoint(t *testing.T) {
	for _, routed := range []bool{false, true} {
		sys, clk := readOnlySystem(t, true, routed)
		p, files := client(t, sys, 1, "v2/f")
		f := files[0]
		readV2(t, p, f)
		before, t0 := sys.Stats().Snapshot(), clk.Now()
		must(t, p.EndTrans())
		if lat := clk.Now().Sub(t0); lat != 0 {
			t.Errorf("routed=%v: read-only EndTrans took %v, want 0", routed, lat)
		}
		if n := sys.Stats().Snapshot().Sub(before).Get(stats.TxnCommits); n != 0 {
			t.Errorf("routed=%v: the commit was decided before EndTrans returned (%d commits)", routed, n)
		}
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		if err := f.LockRange(0, 8, core.Exclusive, core.LockOpts{NoWait: true}); err != nil {
			t.Fatalf("routed=%v: NoWait Exclusive lock right after the read-only commit: %v", routed, err)
		}
		if _, err := f.WriteAt([]byte("bbbbbbbb"), 0); err != nil {
			t.Fatal(err)
		}
		e := endTrans(sys, clk, p)
		must(t, e.errAtReturn)
		d := sys.Stats().Snapshot().Sub(before)
		if got := d.Get(stats.TxnCommits); got != 2 {
			t.Errorf("routed=%v: %d commits, want 2", routed, got)
		}
		if got := d.Get(stats.ReadOnlyVotes); got != 1 {
			t.Errorf("routed=%v: %d read-only votes, want 1", routed, got)
		}
		if got, want := d.Get(stats.RoutedCommits), map[bool]int64{false: 0, true: 2}[routed]; got != want {
			t.Errorf("routed=%v: %d routed commits, want %d", routed, got, want)
		}
		got, err := invariant.ReadCommitted(sys, 3, "v2/f")
		must(t, err)
		if string(got[:8]) != "bbbbbbbb" {
			t.Errorf("routed=%v: v2/f reads %q after the write", routed, got)
		}
	}
}

// TestEndTransWaitsUnlessOnlyRead: a transaction that read v2/f and then
// did any of these waits in EndTrans for its commit: the commit is
// decided, and every force it takes done, by the time EndTrans returns.
// So does a read-only transaction over two storage sites, and one with
// the fast paths off.
func TestEndTransWaitsUnlessOnlyRead(t *testing.T) {
	cases := []struct {
		name      string
		fastPaths bool
		then      func(t *testing.T, p *core.Process, f *core.File)
		forces    bool // the transaction changed a file
	}{
		{name: "write", fastPaths: true, forces: true, then: func(t *testing.T, _ *core.Process, f *core.File) {
			_, err := f.WriteAt([]byte("bbbbbbbb"), 8)
			must(t, err)
		}},
		{name: "write failing at its storage site", fastPaths: true, then: func(t *testing.T, _ *core.Process, f *core.File) {
			// The Exclusive lock is granted; the write itself is refused.
			if _, err := f.WriteAt([]byte("bbbbbbbb"), 1<<40); err == nil {
				t.Fatal("a write beyond the largest file succeeded")
			}
		}},
		{name: "exclusive lock", fastPaths: true, then: func(t *testing.T, _ *core.Process, f *core.File) {
			must(t, f.LockRange(8, 8, core.Exclusive))
		}},
		{name: "child writes at another site", fastPaths: true, forces: true, then: func(t *testing.T, p *core.Process, _ *core.File) {
			c, err := p.Fork(3)
			must(t, err)
			g, err := c.Open("v2/f")
			must(t, err)
			_, err = g.WriteAt([]byte("cccccccc"), 8)
			must(t, err)
			must(t, c.Exit())
		}},
		{name: "write after migration", fastPaths: true, forces: true, then: func(t *testing.T, p *core.Process, f *core.File) {
			must(t, p.Migrate(3))
			_, err := f.WriteAt([]byte("mmmmmmmm"), 8)
			must(t, err)
		}},
		{name: "reads at two sites", fastPaths: true, then: func(t *testing.T, p *core.Process, _ *core.File) {
			// The coordinator forces its record before the prepares
			// leave, so the release could trail the next request.
			g, err := p.Open("v3/f")
			must(t, err)
			_, err = g.ReadAt(make([]byte, 8), 0)
			must(t, err)
		}},
		{name: "fast paths off", then: func(*testing.T, *core.Process, *core.File) {}},
	}
	for _, tc := range cases {
		for _, routed := range []bool{false, true} {
			sys, clk := readOnlySystem(t, tc.fastPaths, routed)
			p, files := client(t, sys, 1, "v2/f")
			readV2(t, p, files[0])
			tc.then(t, p, files[0])
			e := endTrans(sys, clk, p)
			must(t, e.errAtReturn)
			if n := e.atReturn.Get(stats.TxnCommits); n != 1 {
				t.Errorf("%s, routed=%v: EndTrans returned before its commit was decided (%d commits)", tc.name, routed, n)
			}
			forced, after := e.atReturn.Get(stats.ForcedIOs), e.afterwards.Get(stats.ForcedIOs)
			if forced != after || tc.forces && (forced == 0 || e.lat < costmodel.Vax750().DiskWriteTime) {
				t.Errorf("%s, routed=%v: EndTrans took %v and returned after %d of %d forces", tc.name, routed, e.lat, forced, after)
			}
		}
	}
}

// TestReadOnlyReleaseLostToAFault: the storage site crashes, or the
// network partitions it away, between a read-only EndTrans returning and
// its release landing.  Recovery leaves no lock behind and the section 5
// audit is clean.
func TestReadOnlyReleaseLostToAFault(t *testing.T) {
	for _, fault := range []string{"crash", "partition"} {
		for _, routed := range []bool{false, true} {
			sys, clk := readOnlySystem(t, true, routed)
			cl := sys.Cluster()
			p, files := client(t, sys, 1, "v2/f")
			readV2(t, p, files[0])
			must(t, p.EndTrans())
			if fault == "crash" {
				cl.Site(2).Crash()
				clk.WaitIdle()
				must(t, cl.Site(2).Restart())
			} else {
				cl.Net().Partition(2)
				clk.WaitIdle()
				cl.Net().Heal()
			}
			must(t, invariant.Quiesce(cl, clk, false))
			if v := invariant.Audit(cl, nil, []string{"v2/f"}, nil).Violations(); len(v) > 0 {
				t.Errorf("%s, routed=%v: %v", fault, routed, v)
			}
			if fl := cl.Site(2).Locks().Lookup("v2/f"); fl != nil && len(fl.Entries()) > 0 {
				t.Errorf("%s, routed=%v: residual lock %+v", fault, routed, fl.Entries())
			}
			// The record is free to write.
			q, g := client(t, sys, 1, "v2/f")
			_, err := q.BeginTrans()
			must(t, err)
			must(t, g[0].LockRange(0, 8, core.Exclusive, core.LockOpts{NoWait: true}))
			must(t, q.AbortTrans())
		}
	}
}
