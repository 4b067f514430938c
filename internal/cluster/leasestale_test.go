package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// TestLeaseStaleHitIsSafe: a lease has no expiry at its holder, so a
// holder that never heard the revoke keeps hitting a lease the storage
// site has reclaimed.  Materialization makes that safe.  Site 2 earns an
// exclusive lease on v1/f and is partitioned away; site 3's exclusive
// request fires a callback that cannot be delivered, so the lease is
// reclaimed at once and the request is granted inside its lock-wait
// timeout.  After the heal, site 2's stale hit sends no lock message: its
// write materializes an ordinary lock at site 1, which waits until site
// 3's transaction commits, and its read sees what that transaction
// committed.
func TestLeaseStaleHitIsSafe(t *testing.T) {
	sys, err := scenario.Spec{Config: cluster.Config{LockLeases: true}, Volumes: scenario.PerSite(3)}.At(costmodel.Vax750()).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Shutdown)
	cl, clk := sys.Cluster(), sys.Cluster().Clock()
	setup, _ := client(t, sys, 1)
	if f, err := setup.Create("v1/f"); err != nil || f.Close() != nil {
		t.Fatalf("create v1/f: %v", err)
	}
	txn := func(p *core.Process, body func() error) error {
		if _, err := p.BeginTrans(); err != nil {
			return err
		}
		if err := body(); err != nil {
			return err
		}
		return p.EndTrans()
	}

	holder, hf := client(t, sys, 2, "v1/f")
	if err := txn(holder, func() error { _, err := hf[0].WriteAt([]byte("AAAAAAAA"), 0); return err }); err != nil {
		t.Fatal(err)
	}
	if sites := cl.Site(1).Locks().Lookup("v1/f").LeaseSites(); len(sites) != 1 || sites[0] != 2 {
		t.Fatalf("lease sites after the holder's commit = %v, want [2]", sites)
	}

	cl.Net().Partition(2)
	other, of := client(t, sys, 3, "v1/f")
	if _, err := other.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	if err := of[0].LockRange(0, 8, core.Exclusive); err != nil {
		t.Fatalf("exclusive request against an unreachable leaseholder: %v", err)
	}
	if waited := clk.Now().Sub(start); waited >= cl.Config().LockWaitTimeout {
		t.Fatalf("granted after %v, not inside the lock-wait timeout %v", waited, cl.Config().LockWaitTimeout)
	}
	if n := cl.Stats().Snapshot().Get(stats.LeaseRevokes); n != 1 {
		t.Fatalf("%d lease revokes, want 1", n)
	}
	if _, err := of[0].WriteAt([]byte("XXXXXXXX"), 0); err != nil {
		t.Fatal(err)
	}
	cl.Net().Heal()

	// The holder's transaction runs beside the one that holds the lock.
	var wrote time.Time
	read := make([]byte, 4)
	var holderErr error
	before := cl.Stats().Snapshot()
	g := vtime.NewGroup(clk)
	g.Go(func() {
		holderErr = txn(holder, func() error {
			if _, err := hf[0].WriteAt([]byte("HOLD"), 0); err != nil {
				return err
			}
			wrote = clk.Now()
			_, err := hf[0].ReadAt(read, 4)
			return err
		})
	})
	clk.Sleep(100 * time.Millisecond)
	committing := clk.Now()
	if err := other.EndTrans(); err != nil {
		t.Fatal(err)
	}
	g.Wait()
	if holderErr != nil {
		t.Fatalf("holder's transaction: %v", holderErr)
	}
	if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.LeaseHits) == 0 || d.Get(stats.LockMsgs) != 0 {
		t.Fatalf("stale hits: lease_hits=%d lock_msgs=%d, want >0/0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	if wrote.Before(committing) {
		t.Fatalf("the stale hit's write landed at %v, before the lock holder began its commit at %v", wrote, committing)
	}
	if string(read) != "XXXX" {
		t.Fatalf("holder read %q, want the committed XXXX", read)
	}
	got, err := invariant.ReadCommitted(sys, 1, "v1/f")
	if err != nil || string(got) != "HOLDXXXX" {
		t.Fatalf("committed v1/f = %q, %v; want HOLDXXXX", got, err)
	}
	if rep := invariant.Audit(cl, nil, []string{"v1/f"}, nil); !rep.OK() {
		t.Errorf("audit: %v", rep.Violations())
	}
}
