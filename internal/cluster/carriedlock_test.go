package cluster_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/invariant"
	"repro/internal/lockmgr"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// The carried lock (DESIGN.md section 10): under FastPaths a transaction's
// implicit lock that misses the requester's lock cache and lease cache
// rides in its read or write, and the storage site takes it at the
// access.  carriedSystem's two sites run at VAX-750 latencies (8 ms a
// message, 26 ms a force); v1/f, at site 1, holds 16 committed bytes.

func carriedSystem(t *testing.T, cfg cluster.Config) (*core.System, *vtime.Virtual) {
	t.Helper()
	sys, err := scenario.Spec{Config: cfg, Volumes: scenario.PerSite(2)}.At(costmodel.Vax750()).Build()
	must(t, err)
	t.Cleanup(sys.Cluster().Shutdown)
	p, _ := client(t, sys, 1)
	f, err := p.Create("v1/f")
	must(t, err)
	_, err = f.WriteAt(bytes.Repeat([]byte{'a'}, 16), 0)
	must(t, err)
	must(t, f.Close())
	return sys, sys.Cluster().Clock().(*vtime.Virtual)
}

// access is one read or write of v1/f's first record by f's process.
type access struct {
	name string
	do   func(f *core.File) error
}

var accesses = []access{
	{"read", func(f *core.File) error { _, err := f.ReadAt(make([]byte, 8), 0); return err }},
	{"write", func(f *core.File) error { _, err := f.WriteAt([]byte("bbbbbbbb"), 0); return err }},
}

// A remote transaction's first access to a record is one exchange under
// FastPaths, where the paper's kernel sends the lock first: 2 messages
// and 16 ms against 4 and 32 ms.  The second access in the transaction
// hits the lock cache the data reply filled.
func TestCarriedLockFirstAccessIsOneExchange(t *testing.T) {
	for _, fast := range []bool{false, true} {
		for _, a := range accesses {
			sys, clk := carriedSystem(t, cluster.Config{FastPaths: fast})
			p, files := client(t, sys, 2, "v1/f")
			_, err := p.BeginTrans()
			must(t, err)
			msgs, lockMsgs, lat := int64(4), int64(1), 32*time.Millisecond
			if fast {
				msgs, lockMsgs, lat = 2, 0, 16*time.Millisecond
			}
			before, t0 := sys.Stats().Snapshot(), clk.Now()
			must(t, a.do(files[0]))
			d := sys.Stats().Snapshot().Sub(before)
			if d.Get(stats.MsgsSent) != msgs || d.Get(stats.LockMsgs) != lockMsgs || clk.Now().Sub(t0) != lat {
				t.Errorf("fastpaths=%v: the first %s sent %d messages (%d lock) in %v, want %d (%d) in %v",
					fast, a.name, d.Get(stats.MsgsSent), d.Get(stats.LockMsgs), clk.Now().Sub(t0), msgs, lockMsgs, lat)
			}
			before = sys.Stats().Snapshot()
			must(t, a.do(files[0]))
			d = sys.Stats().Snapshot().Sub(before)
			if d.Get(stats.LockCacheHits) != 1 || d.Get(stats.LockCacheMisses) != 0 || d.Get(stats.MsgsSent) != 2 {
				t.Errorf("fastpaths=%v: the second %s: %d cache hits, %d misses, %d messages; want 1, 0, 2",
					fast, a.name, d.Get(stats.LockCacheHits), d.Get(stats.LockCacheMisses), d.Get(stats.MsgsSent))
			}
			must(t, p.EndTrans())
		}
	}
}

// A carried lock that conflicts waits at the storage site behind the
// holder, as the lock message's request would, and the access proceeds
// once the holder commits.
func TestCarriedLockWaitsBehindHolder(t *testing.T) {
	sys, clk := carriedSystem(t, cluster.Config{FastPaths: true})
	holder, hf := client(t, sys, 1, "v1/f")
	_, err := holder.BeginTrans()
	must(t, err)
	_, err = hf[0].WriteAt([]byte("HOLDHOLD"), 0)
	must(t, err)

	p, files := client(t, sys, 2, "v1/f")
	_, err = p.BeginTrans()
	must(t, err)
	before := sys.Stats().Snapshot()
	var wrote time.Time
	var writeErr error
	g := vtime.NewGroup(clk)
	g.Go(func() {
		_, writeErr = files[0].WriteAt([]byte("bbbbbbbb"), 0)
		wrote = clk.Now()
	})
	clk.Sleep(100 * time.Millisecond)
	committing := clk.Now()
	must(t, holder.EndTrans())
	g.Wait()
	must(t, writeErr)
	if wrote.Before(committing) {
		t.Fatalf("the carried write returned at %v, before the holder began its commit at %v", wrote, committing)
	}
	d := sys.Stats().Snapshot().Sub(before)
	if d.Get(stats.LockMsgs) != 0 || d.Get(stats.LockWaits) == 0 {
		t.Errorf("lock_msgs=%d lock_waits=%d, want 0 and >0", d.Get(stats.LockMsgs), d.Get(stats.LockWaits))
	}
	must(t, p.EndTrans())
	got, err := invariant.ReadCommitted(sys, 1, "v1/f")
	must(t, err)
	if string(got[:8]) != "bbbbbbbb" {
		t.Errorf("v1/f reads %q, want the waiter's bbbbbbbb", got)
	}
}

// A carried lock that times out fails the access, which cost one
// exchange, and leaves nothing behind: no lock and no lease at the
// storage site, and nothing cached at the requester.
func TestCarriedLockTimeoutLeavesNothing(t *testing.T) {
	sys, _ := carriedSystem(t, cluster.Config{FastPaths: true, LockLeases: true, LockWaitTimeout: 500 * time.Millisecond})
	cl := sys.Cluster()
	holder, hf := client(t, sys, 1, "v1/f")
	_, err := holder.BeginTrans()
	must(t, err)
	_, err = hf[0].WriteAt([]byte("HOLDHOLD"), 0)
	must(t, err)

	p, files := client(t, sys, 2, "v1/f")
	_, err = p.BeginTrans()
	must(t, err)
	before := sys.Stats().Snapshot()
	if _, err := files[0].WriteAt([]byte("bbbbbbbb"), 0); !errors.Is(err, lockmgr.ErrTimeout) {
		t.Fatalf("a write behind a lock held past the wait timeout: %v, want %v", err, lockmgr.ErrTimeout)
	}
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.MsgsSent) != 2 || d.Get(stats.LockMsgs) != 0 {
		t.Errorf("the failed write sent %d messages (%d lock), want 2 (0)", d.Get(stats.MsgsSent), d.Get(stats.LockMsgs))
	}
	fl := cl.Site(1).Locks().Lookup("v1/f")
	for _, e := range fl.Entries() {
		if e.Holder.Txn == p.Txn() {
			t.Errorf("the timed-out transaction holds %v [%d,%d) at site 1", e.Mode, e.Off, e.Off+e.Len)
		}
	}
	if sites := fl.LeaseSites(); len(sites) != 0 {
		t.Errorf("lease sites = %v, want none", sites)
	}
	if n, leased := cl.Site(2).LockCacheGroups(), cl.Site(2).LeaseCached("v1/f"); n != 0 || leased {
		t.Errorf("site 2 caches %d lock groups and a lease: %v; want none", n, leased)
	}
	must(t, p.AbortTrans())
	must(t, holder.EndTrans())
}

// A lease granted on a carried lock's data reply is hit by the next
// transaction, which sends no lock message.
func TestCarriedLockEarnsLease(t *testing.T) {
	sys, _ := carriedSystem(t, cluster.Config{FastPaths: true, LockLeases: true})
	p, files := client(t, sys, 2, "v1/f")
	for i, want := range []stats.Counter{stats.LockCacheMisses, stats.LeaseHits} {
		_, err := p.BeginTrans()
		must(t, err)
		before := sys.Stats().Snapshot()
		_, err = files[0].WriteAt([]byte("bbbbbbbb"), 0)
		must(t, err)
		d := sys.Stats().Snapshot().Sub(before)
		if d.Get(want) != 1 || d.Get(stats.LockMsgs) != 0 || d.Get(stats.MsgsSent) != 2 {
			t.Errorf("transaction %d's write: %s=%d lock_msgs=%d msgs=%d, want 1, 0, 2",
				i+1, want, d.Get(want), d.Get(stats.LockMsgs), d.Get(stats.MsgsSent))
		}
		must(t, p.EndTrans())
		if sites := sys.Cluster().Site(1).Locks().Lookup("v1/f").LeaseSites(); len(sites) != 1 || sites[0] != 2 {
			t.Fatalf("lease sites after transaction %d = %v, want [2]", i+1, sites)
		}
	}
}

// Under FastPaths a pre-transaction lock and a stale lease hit take the
// paths they take without the carried lock: the first is a lock-cache hit
// with no lock sent or carried, and the second materializes an ordinary
// lock at the access, earning no new lease.
func TestCarriedLockLeavesOtherPaths(t *testing.T) {
	sys, _ := carriedSystem(t, cluster.Config{FastPaths: true, LockLeases: true})
	p, files := client(t, sys, 2, "v1/f")
	must(t, files[0].LockRange(0, 8, core.Exclusive))
	_, err := p.BeginTrans()
	must(t, err)
	before := sys.Stats().Snapshot()
	_, err = files[0].WriteAt([]byte("prelock!"), 0)
	must(t, err)
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.LockCacheHits) != 1 || d.Get(stats.LockCacheMisses) != 0 || d.Get(stats.MsgsSent) != 2 {
		t.Errorf("a write under the pre-transaction lock: %d cache hits, %d misses, %d messages; want 1, 0, 2",
			d.Get(stats.LockCacheHits), d.Get(stats.LockCacheMisses), d.Get(stats.MsgsSent))
	}
	must(t, p.EndTrans())
	_, err = files[0].Unlock(0, 8)
	must(t, err)

	// A transaction on the other record earns a lease; the storage site
	// then reclaims it without telling the holder, whose next hit is stale.
	_, err = p.BeginTrans()
	must(t, err)
	_, err = files[0].WriteAt([]byte("bbbbbbbb"), 8)
	must(t, err)
	must(t, p.EndTrans())
	fl := sys.Cluster().Site(1).Locks()
	if n := fl.RevokeSiteLeases(2); n != 1 {
		t.Fatalf("reclaimed %d leases, want 1", n)
	}
	_, err = p.BeginTrans()
	must(t, err)
	before = sys.Stats().Snapshot()
	_, err = files[0].WriteAt([]byte("stalehit"), 8)
	must(t, err)
	if d := sys.Stats().Snapshot().Sub(before); d.Get(stats.LeaseHits) != 1 || d.Get(stats.LockMsgs) != 0 {
		t.Errorf("the stale hit: lease_hits=%d lock_msgs=%d, want 1 and 0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	if sites := fl.Lookup("v1/f").LeaseSites(); len(sites) != 0 {
		t.Errorf("lease sites after a stale hit = %v, want none", sites)
	}
	must(t, p.EndTrans())
	got, err := invariant.ReadCommitted(sys, 1, "v1/f")
	must(t, err)
	if string(got[8:16]) != "stalehit" {
		t.Errorf("v1/f reads %q, want stalehit in its second record", got)
	}
}
