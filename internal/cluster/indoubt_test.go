package cluster_test

import (
	"testing"
	"time"

	"repro/internal/invariant"
	"repro/internal/vtime"
)

// TestPreparedParticipantNeverAbortsOnItsOwn is the unilateral abort that
// created money in the chaos sweeps (EXPERIMENTS.md E25): site 2 votes
// yes, crashes and restarts while the coordinator at site 1 is still
// waiting for site 3's vote.  Site 2's recovery query finds the
// transaction live but undecided; that must leave it in doubt with its
// locks and prepare record intact, so that the commit the coordinator
// reaches a moment later lands at both sites.  Reading "undecided" as
// abort discards site 2's intentions, acknowledges the later commit as a
// duplicate, and ends with EndTrans reporting success over one new and
// one old file.
func TestPreparedParticipantNeverAbortsOnItsOwn(t *testing.T) {
	sys := threeSites(t)
	cl, clk := sys.Cluster(), sys.Cluster().Clock()
	setup, files := client(t, sys, 1, "v2/f", "v3/f")
	for _, f := range files {
		if _, err := f.WriteAt([]byte("OLDOLDOL"), 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := setup.Exit(); err != nil {
		t.Fatal(err)
	}

	// Site 3 sits on its prepare for a simulated second; site 2 has long
	// voted by the time it is crashed, half way through.
	const stall = time.Second
	cl.Site(3).Stall("prepare", func() { clk.Sleep(stall) })
	p, files := client(t, sys, 1, "v2/f", "v3/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := f.WriteAt([]byte("NEWNEWNE"), 0); err != nil {
			t.Fatal(err)
		}
	}
	var endErr error
	g := vtime.NewGroup(clk)
	g.Go(func() { endErr = p.EndTrans() })

	clk.Sleep(stall / 2)
	s2 := cl.Site(2)
	s2.Crash()
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	if n := s2.InDoubtCount(); n != 1 {
		t.Errorf("site 2 holds %d transactions in doubt after restarting inside the prepare phase, want 1", n)
	}
	g.Wait()

	if endErr != nil {
		t.Fatalf("EndTrans: %v (site 2 had voted; the commit should have gone through)", endErr)
	}
	if n := s2.InDoubtCount(); n != 0 {
		t.Errorf("site 2 still holds %d transactions in doubt after the commit was delivered", n)
	}
	for site, path := range map[int]string{2: "v2/f", 3: "v3/f"} {
		got, err := invariant.ReadCommitted(sys, 1, path)
		if err != nil || string(got) != "NEWNEWNE" {
			t.Errorf("confirmed commit: %s at site %d reads %q, %v; want NEWNEWNE", path, site, got, err)
		}
	}
	if rep := invariant.Audit(cl, nil, []string{"v2/f", "v3/f"}); !rep.OK() {
		t.Errorf("audit: %v", rep.Violations())
	}
}
