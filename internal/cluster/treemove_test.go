package cluster_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// The section 4.1 process tree on the virtual clock: a migration is one
// exchange with the destination, and a child's file-list merge finds the
// top-level process wherever it has moved.

// treeTxn starts a transaction at site 1 that writes v1/f and forks a
// child at site 2 that writes v2/f.
func treeTxn(t *testing.T, sys *core.System) (top, child *core.Process) {
	t.Helper()
	top, files := client(t, sys, 1, "v1/f")
	_, err := top.BeginTrans()
	must(t, err)
	_, err = files[0].WriteAt([]byte("TOP"), 0)
	must(t, err)
	child, err = top.Fork(2)
	must(t, err)
	g, err := child.Open("v2/f")
	must(t, err)
	_, err = g.WriteAt([]byte("KID"), 0)
	must(t, err)
	return top, child
}

// TestChildMigrationIsOneExchange: moving a child sends its process to
// the destination and tells no one else - nothing reads where a child
// lives (the abort cascade scans every site's table).
func TestChildMigrationIsOneExchange(t *testing.T) {
	sys, clk := readOnlySystem(t, false, false)
	_, child := treeTxn(t, sys)
	clk.WaitIdle()
	before := sys.Stats().Snapshot()
	must(t, child.Migrate(3))
	d := sys.Stats().Snapshot().Sub(before)
	if rpcs, msgs := d.Get(stats.RPCs), d.Get(stats.MsgsSent); rpcs != 1 || msgs != 2 {
		t.Fatalf("child migration: %d exchanges, %d messages; want 1 and 2 (adoptproc only)", rpcs, msgs)
	}
}

// TestChildExitFindsMovedTop: the child's TopSite hint is stale when it
// exits (the top-level process moved to site 3), yet its file-list
// merges there and EndTrans commits both files.
func TestChildExitFindsMovedTop(t *testing.T) {
	sys, clk := readOnlySystem(t, false, false)
	top, child := treeTxn(t, sys)
	must(t, child.Migrate(3))
	must(t, top.Migrate(3))
	must(t, child.Exit())
	must(t, top.EndTrans())
	clk.WaitIdle()
	r, files := client(t, sys, 2, "v1/f", "v2/f")
	defer r.Exit()
	for i, want := range []string{"TOP", "KID"} {
		got := make([]byte, 3)
		_, err := files[i].ReadAt(got, 0)
		must(t, err)
		if !bytes.Equal(got, []byte(want)) {
			t.Fatalf("file %d after commit = %q, want %q", i, got, want)
		}
	}
}
