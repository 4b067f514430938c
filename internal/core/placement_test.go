package core

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/placement"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// placementSystem builds the 3-site system with adaptive placement on.
// MinAccesses is left high enough that file moves stay out of the way
// unless a test lowers it.
func placementSystem(t *testing.T, cfg cluster.Config) *System {
	t.Helper()
	cfg.AdaptivePlacement = true
	cfg.SyncPhase2 = true
	cfg.LockWaitTimeout = 500 * time.Millisecond
	sys := NewSystem(cfg)
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.AddSite(id)
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := sys.AddVolume(site, vol); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

func TestRoutedCommitFromEndTrans(t *testing.T) {
	// All files at site 1, process at site 2: EndTrans should hand the
	// coordinator role to site 1 and the commit should still be durable.
	sys := placementSystem(t, cluster.Config{Placement: placement.Config{MinAccesses: 1e9}})
	p := mustProcess(t, sys, 2)
	f := mustCreate(t, p, "va/routed")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("routed"), 0); err != nil {
		t.Fatal(err)
	}
	before := sys.Stats().Snapshot()
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	d := sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.RoutedCommits) != 1 {
		t.Fatalf("routed commits = %d, want 1", d.Get(stats.RoutedCommits))
	}
	if got := readString(t, f, 0, 6); got != "routed" {
		t.Fatalf("read after routed commit = %q", got)
	}

	// A transaction spanning two sites must NOT route (no single target)
	// and must still commit through the local coordinator.
	g := mustCreate(t, p, "vc/other")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("two"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("site"), 0); err != nil {
		t.Fatal(err)
	}
	before = sys.Stats().Snapshot()
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	d = sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.RoutedCommits) != 0 {
		t.Fatalf("split transaction routed (%d routed commits)", d.Get(stats.RoutedCommits))
	}
}
