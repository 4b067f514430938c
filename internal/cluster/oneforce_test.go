package cluster_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The one-force rule (DESIGN.md section 10): under FastPaths the pages a
// commit point refers to are written in the same forced batch as the
// commit point, ahead of it.  readOnlySystem's three sites run at
// VAX-750 latencies: 8 ms a message, 26 ms a force.

// writeV2 begins a transaction at p and writes v2/f's second record.
func writeV2(t *testing.T, p *core.Process, f *core.File) {
	t.Helper()
	_, err := p.BeginTrans()
	must(t, err)
	_, err = f.WriteAt([]byte("bbbbbbbb"), 8)
	must(t, err)
}

// forcesSince returns the forced I/Os charged since base.
func forcesSince(sys *core.System, base stats.Snapshot) int64 {
	return sys.Stats().Snapshot().Sub(base).Get(stats.ForcedIOs)
}

// A remote one-file write transaction's EndTrans is the commit request,
// one force carrying the data page and the inode, and the reply: 42 ms
// (8 + 26 + 8), where forcing the page and then the inode takes two
// forces in a row.
func TestOneForceShortensOneFileCommit(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f")
	before := sys.Stats().Snapshot()
	writeV2(t, p, files[0])
	e := endTrans(sys, clk, p)
	must(t, e.errAtReturn)
	vax := costmodel.Vax750()
	if want := 2*vax.MsgTime + vax.DiskWriteTime; e.lat != want {
		t.Errorf("EndTrans took %v, want %v", e.lat, want)
	}
	d := sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.ForcedIOs) != 1 || d.Get(stats.DataPageWrites) != 1 || d.Get(stats.InodeWrites) != 1 {
		t.Errorf("the transaction forced %d times with %d data and %d inode writes, want 1, 1 and 1",
			d.Get(stats.ForcedIOs), d.Get(stats.DataPageWrites), d.Get(stats.InodeWrites))
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got[8:16]) != "bbbbbbbb" {
		t.Errorf("v2/f reads %q after the commit", got)
	}
}

// A page written three times, 30 ms apart, is forced once, at the commit,
// and EndTrans still takes 42 ms.
func TestRewrittenPageForcedOnce(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f")
	before := sys.Stats().Snapshot()
	writeV2(t, p, files[0])
	for _, rec := range []string{"cccccccc", "dddddddd"} {
		clk.Sleep(30 * time.Millisecond)
		_, err := files[0].WriteAt([]byte(rec), 8)
		must(t, err)
	}
	e := endTrans(sys, clk, p)
	must(t, e.errAtReturn)
	if got := forcesSince(sys, before); got != 1 {
		t.Errorf("the transaction forced %d times, want 1", got)
	}
	vax := costmodel.Vax750()
	if want := 2*vax.MsgTime + vax.DiskWriteTime; e.lat != want {
		t.Errorf("EndTrans took %v, want %v", e.lat, want)
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got[8:16]) != "dddddddd" {
		t.Errorf("v2/f reads %q after the commit", got)
	}
}

// An aborted transaction forces nothing: its pages were never forced.
func TestAbortForcesNothing(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f")
	before := sys.Stats().Snapshot()
	writeV2(t, p, files[0])
	must(t, p.AbortTrans())
	clk.WaitIdle()
	if got := forcesSince(sys, before); got != 0 {
		t.Errorf("the aborted transaction forced %d times, want 0", got)
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 16)) {
		t.Errorf("v2/f reads %q after the abort, want its 16 committed a's", got)
	}
}

// A page another owner has modified too commits by differencing onto a
// fresh page: the merged page and the inode go in one force.
func TestSharedPageMergedInTheInodeForce(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, pf := client(t, sys, 1, "v2/f")
	q, qf := client(t, sys, 3, "v2/f")
	writeV2(t, p, pf[0])
	_, err := q.BeginTrans()
	must(t, err)
	_, err = qf[0].WriteAt([]byte("qqqqqqqq"), 0)
	must(t, err)
	before := sys.Stats().Snapshot()
	must(t, endTrans(sys, clk, q).errAtReturn)
	d := sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.PageDiffs) != 1 || d.Get(stats.ForcedIOs) != 1 || d.Get(stats.DataPageWrites) != 1 || d.Get(stats.InodeWrites) != 1 {
		t.Errorf("the shared page's commit made %d diffs and %d forces with %d data and %d inode writes, want 1, 1, 1 and 1",
			d.Get(stats.PageDiffs), d.Get(stats.ForcedIOs), d.Get(stats.DataPageWrites), d.Get(stats.InodeWrites))
	}
	before = sys.Stats().Snapshot()
	must(t, endTrans(sys, clk, p).errAtReturn)
	if got := forcesSince(sys, before); got != 1 {
		t.Errorf("the page's remaining owner committed in %d forces, want 1", got)
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got) != "qqqqqqqqbbbbbbbb" {
		t.Errorf("v2/f reads %q after both commits", got)
	}
}

// A transaction that writes at two storage sites commits in two phases.
// Each participant's prepare record carries its data page in one force,
// so the transaction forces nine times: at the coordinator its record,
// the commit flip and the deletion, and at each participant the prepare,
// the inode and the prepare record's deletion.  Forcing each page before
// its record cost two more.  EndTrans takes 188 ms either way: the writes
// landed 30 ms before it, long enough for a page forced on its own to be
// durable by the prepare.
func TestTwoSitePrepareCarriesItsPages(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f", "v3/f")
	before := sys.Stats().Snapshot()
	_, err := p.BeginTrans()
	must(t, err)
	for _, f := range files {
		_, err := f.WriteAt([]byte("bbbbbbbb"), 8)
		must(t, err)
	}
	clk.Sleep(30 * time.Millisecond)
	e := endTrans(sys, clk, p)
	must(t, e.errAtReturn)
	d := sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.ForcedIOs) != 9 || d.Get(stats.PrepareLogWrites) != 2 || d.Get(stats.DataPageWrites) != 2 {
		t.Errorf("the transaction forced %d times with %d prepare and %d data writes, want 9, 2 and 2",
			d.Get(stats.ForcedIOs), d.Get(stats.PrepareLogWrites), d.Get(stats.DataPageWrites))
	}
	if want := 188 * time.Millisecond; e.lat != want {
		t.Errorf("EndTrans took %v, want %v", e.lat, want)
	}
	for _, path := range []string{"v2/f", "v3/f"} {
		got, err := invariant.ReadCommitted(sys, 1, path)
		must(t, err)
		if string(got[8:16]) != "bbbbbbbb" {
			t.Errorf("%s reads %q after the commit", path, got)
		}
	}
}

// The storage site crashes while the commit's one force is under way: the
// transaction aborts, the committed bytes stay as they were, and the
// section 5 audit is clean.
func TestCrashInsideOneForceAborts(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	cl := sys.Cluster()
	p, files := client(t, sys, 1, "v2/f")
	writeV2(t, p, files[0])
	// The commit request reaches site 2 8 ms after EndTrans starts, and
	// its force runs until 34 ms.
	g := vtime.NewGroup(clk)
	var endErr error
	g.Go(func() { endErr = p.EndTrans() })
	g.Go(func() {
		clk.Sleep(20 * time.Millisecond)
		cl.Site(2).Crash()
	})
	g.Wait()
	if endErr == nil {
		t.Fatal("EndTrans committed across its storage site's crash")
	}
	must(t, cl.Site(2).Restart())
	must(t, invariant.Quiesce(cl, clk, false))
	if v := invariant.Audit(cl, nil, []string{"v2/f"}, nil).Violations(); len(v) > 0 {
		t.Errorf("audit: %v", v)
	}
	got, err := invariant.ReadCommitted(sys, 3, "v2/f")
	must(t, err)
	if !bytes.Equal(got, bytes.Repeat([]byte{'a'}, 16)) {
		t.Errorf("v2/f reads %q after the aborted commit, want its 16 committed a's", got)
	}
}
