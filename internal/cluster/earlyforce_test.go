package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The early force (DESIGN.md section 10): under FastPaths a transaction's
// write starts forcing the shadow pages it alone has modified, so its
// commit waits only for what is left of the force.  readOnlySystem's
// three sites run at VAX-750 latencies: 8 ms a message, 26 ms a force.

// writeV2 begins a transaction at p and writes v2/f's second record.
func writeV2(t *testing.T, p *core.Process, f *core.File) {
	t.Helper()
	_, err := p.BeginTrans()
	must(t, err)
	_, err = f.WriteAt([]byte("bbbbbbbb"), 8)
	must(t, err)
}

// A remote one-file write transaction's EndTrans: the commit request
// reaches the storage site 16 ms after the write landed, waits the 10 ms
// left of the data page's force, forces the inode and replies - 52 ms,
// where a commit forcing the page only when it arrives takes 68 (8 + 26 +
// 26 + 8).  The force count is the same either way.
func TestEarlyForceShortensOneFileCommit(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f")
	writeV2(t, p, files[0])
	e := endTrans(sys, clk, p)
	must(t, e.errAtReturn)
	disk := costmodel.Vax750().DiskWriteTime
	if want := 2*costmodel.Vax750().MsgTime + 2*disk - 16*1e6; e.lat != want {
		t.Errorf("EndTrans took %v, want %v", e.lat, want)
	}
	if got := e.afterwards.Get(stats.ForcedIOs); got != 1 {
		t.Errorf("EndTrans forced %d times, want 1 (the inode; the page's force was charged at the write)", got)
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got[8:16]) != "bbbbbbbb" {
		t.Errorf("v2/f reads %q after the commit", got)
	}
}

// The storage site crashes while the commit waits out the early force:
// the transaction aborts, the committed bytes stay as they were, and the
// section 5 audit is clean.
func TestCrashInsideEarlyForceAborts(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	cl := sys.Cluster()
	p, files := client(t, sys, 1, "v2/f")
	writeV2(t, p, files[0])
	// The write landed 8 ms ago; the commit's flush parks from 8 ms
	// after EndTrans starts until the slot's end, 18 ms after it.
	g := vtime.NewGroup(clk)
	var endErr error
	g.Go(func() { endErr = p.EndTrans() })
	g.Go(func() {
		clk.Sleep(12 * 1e6)
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

// A page another owner has modified too commits by differencing onto a
// fresh page, so a write to it starts no force: only the first writer's
// write, while the page was its alone, forced.
func TestSharedPageNotForcedEarly(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, pf := client(t, sys, 1, "v2/f")
	q, qf := client(t, sys, 3, "v2/f")
	before := sys.Stats().Snapshot()
	writeV2(t, p, pf[0])
	if got := sys.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("the sole owner's write started %d forces, want 1", got)
	}
	before = sys.Stats().Snapshot()
	_, err := q.BeginTrans()
	must(t, err)
	_, err = qf[0].WriteAt([]byte("qqqqqqqq"), 0)
	must(t, err)
	if got := sys.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); got != 0 {
		t.Errorf("a write to a page shared with another owner started %d forces, want 0", got)
	}
	must(t, endTrans(sys, clk, q).errAtReturn)
	must(t, endTrans(sys, clk, p).errAtReturn)
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got) != "qqqqqqqqbbbbbbbb" {
		t.Errorf("v2/f reads %q after both commits", got)
	}
}

// The early force is a guess that the page is final.  A transaction that
// writes its page again after the force's slot has ended pays one more
// force at its commit, which waits a whole force as it would with no
// early force; its later writes start no force of their own, so the guess
// costs at most one force a page.
func TestRewrittenPageForcedEarlyOnce(t *testing.T) {
	sys, clk := readOnlySystem(t, true, false)
	p, files := client(t, sys, 1, "v2/f")
	before := sys.Stats().Snapshot()
	writeV2(t, p, files[0])
	for _, rec := range []string{"cccccccc", "dddddddd"} {
		clk.Sleep(30 * 1e6) // past the end of the first write's slot
		_, err := files[0].WriteAt([]byte(rec), 8)
		must(t, err)
	}
	e := endTrans(sys, clk, p)
	must(t, e.errAtReturn)
	if got := sys.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); got != 3 {
		t.Errorf("the transaction forced %d times, want 3 (the early force, the commit's second force of the page, the inode)", got)
	}
	disk := costmodel.Vax750().DiskWriteTime
	if want := 2*costmodel.Vax750().MsgTime + 2*disk; e.lat != want {
		t.Errorf("EndTrans took %v, want %v (the page and the inode forced in turn)", e.lat, want)
	}
	got, err := invariant.ReadCommitted(sys, 2, "v2/f")
	must(t, err)
	if string(got[8:16]) != "dddddddd" {
		t.Errorf("v2/f reads %q after the commit", got)
	}
}
