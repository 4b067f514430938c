package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// leaseCluster builds the standard two-site cluster with leases on.
func leaseCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cfg.LockLeases = true
	return twoSiteCluster(t, cfg)
}

// commitAtStorage drives the participant machinery directly: prepare and
// phase-two commit the transaction at the storage site, releasing its
// lock group (the lease entry survives the release).
func commitAtStorage(t *testing.T, s *Site, txid string, fileIDs ...string) {
	t.Helper()
	if _, err := s.kernel().prepare(prepareReq{Txid: txid, FileIDs: fileIDs, Coord: s.id}); err != nil {
		t.Fatalf("prepare %s: %v", txid, err)
	}
	if err := s.kernel().handleCommit2(txnReq{Txid: txid}); err != nil {
		t.Fatalf("commit %s: %v", txid, err)
	}
}

func TestLeaseHitSkipsLockMessage(t *testing.T) {
	cl := leaseCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")

	// T1: remote write pays the lock round trip and earns a lease.
	before := cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LockMsgs) != 1 || d.Get(stats.LockCacheMisses) != 1 {
		t.Fatalf("first txn: lock_msgs=%d misses=%d, want 1/1", d.Get(stats.LockMsgs), d.Get(stats.LockCacheMisses))
	}
	commitAtStorage(t, s1, "T1", id.ID())

	// T2, same range: the cached lease answers locally — zero lock
	// messages, the descriptor materializes with the write itself.
	before = cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T2", 0, []byte("efgh")); err != nil {
		t.Fatal(err)
	}
	d = cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LockMsgs) != 0 {
		t.Fatalf("lease-hit txn sent %d lock messages", d.Get(stats.LockMsgs))
	}
	if d.Get(stats.LeaseHits) != 1 {
		t.Fatalf("lease hits = %d, want 1", d.Get(stats.LeaseHits))
	}
	if d.Get(stats.MsgsSent) != 2 {
		t.Fatalf("lease-hit write sent %d messages, want 2 (data RPC only)", d.Get(stats.MsgsSent))
	}
	// The materialized lock is a perfectly ordinary transaction lock.
	commitAtStorage(t, s1, "T2", id.ID())
	_, committed, _ := s2.Stat(id)
	if committed != 4 {
		t.Fatalf("committed size = %d, want 4", committed)
	}
}

func TestLeaseOffMatchesLegacyByteForByte(t *testing.T) {
	// Leases off must reproduce the exact legacy counters — the
	// acceptance gate for "off by default means off".
	run := func(leases bool) stats.Snapshot {
		cfg := Config{LockLeases: leases}
		cfg.SyncPhase2 = true
		cl := New(cfg)
		cl.AddSite(1)
		cl.AddSite(2)
		if err := cl.AddVolume(1, "va"); err != nil {
			t.Fatal(err)
		}
		if err := cl.AddVolume(2, "vb"); err != nil {
			t.Fatal(err)
		}
		s2 := cl.Site(2)
		pid := cl.NewPID()
		s2.Procs().NewProcess(pid, 0)
		if err := s2.Create("va/f"); err != nil {
			t.Fatal(err)
		}
		id, _, _ := s2.Open("va/f")
		for i, txid := range []string{"T1", "T2", "T3"} {
			if _, err := s2.Write(id, pid, txid, int64(8*i), []byte("12345678")); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, cl.Site(1), txid, id.ID())
		}
		return cl.Stats().Snapshot()
	}
	off := run(false)
	legacy := run(false)
	if off.Get(stats.MsgsSent) != legacy.Get(stats.MsgsSent) || off.Get(stats.LockMsgs) != legacy.Get(stats.LockMsgs) {
		t.Fatalf("leases-off runs disagree with themselves: %v vs %v", off, legacy)
	}
	if off.Get(stats.LeaseHits) != 0 || off.Get(stats.LeaseRevokes) != 0 {
		t.Fatalf("leases-off run recorded lease traffic: %v", off)
	}
}

func TestLeaseRevokeOnConflict(t *testing.T) {
	cl := leaseCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid2 := cl.NewPID()
	s2.Procs().NewProcess(pid2, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid2, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())
	if got := s1.Locks().Lookup(id.ID()).LeaseSites(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("lease sites after commit = %v, want [2]", got)
	}

	// A conflicting local request triggers the callback/revoke and is
	// granted once the callback lands — well inside LockWaitTimeout.
	pid1 := cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	before := cl.Stats().Snapshot()
	if _, err := s1.Lock(id, pid1, "T9", lockmgr.ModeExclusive, 0, 4, false, false, true); err != nil {
		t.Fatalf("conflicting lock vs lease: %v", err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LeaseRevokes) != 1 {
		t.Fatalf("lease revokes = %d, want 1", d.Get(stats.LeaseRevokes))
	}
	// Both halves of the lease are gone: the holder's cache and the
	// storage site's entry.
	s2.kernel().leaseMu.Lock()
	cached := len(s2.kernel().leases)
	s2.kernel().leaseMu.Unlock()
	if cached != 0 {
		t.Fatalf("leaseholder cache still has %d files after revoke", cached)
	}
	if got := s1.Locks().Lookup(id.ID()).LeaseSites(); len(got) != 0 {
		t.Fatalf("lease sites after revoke = %v", got)
	}
}

func TestLeaseEscalationToWholeFile(t *testing.T) {
	cl := leaseCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")

	// Grants at distinct offsets: the one that reaches the threshold
	// carries a whole-file lease in its reply, none before it does.
	before := cl.Stats().Snapshot()
	for i := 1; i <= leaseEscalateThreshold; i++ {
		txid := fmt.Sprintf("T%d", i)
		if _, err := s2.Write(id, pid, txid, int64(100*i), []byte("aaaa")); err != nil {
			t.Fatal(err)
		}
		commitAtStorage(t, s1, txid, id.ID())
		want := int64(0)
		if i == leaseEscalateThreshold {
			want = 1
		}
		if got := cl.Stats().Snapshot().Sub(before).Get(stats.LeaseEscalations); got != want {
			t.Fatalf("escalations after %d grants = %d, want %d", i, got, want)
		}
	}

	// A brand-new offset — never locked before — now hits the whole-file
	// lease with zero lock messages.
	before = cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "TN", 5000, []byte("cccc")); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LockMsgs) != 0 || d.Get(stats.LeaseHits) != 1 {
		t.Fatalf("post-escalation access: lock_msgs=%d lease_hits=%d, want 0/1",
			d.Get(stats.LockMsgs), d.Get(stats.LeaseHits))
	}
	commitAtStorage(t, s1, "TN", id.ID())
}

// TestLeaseIdleLeaseStillHits: a lease has no clock.  An hour after the
// grant, with nothing revoked in between, the holder's next write still
// sends no lock message.
func TestLeaseIdleLeaseStillHits(t *testing.T) {
	clk := vtime.NewVirtual()
	cl := leaseCluster(t, Config{Clock: clk})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())

	clk.Sleep(time.Hour)
	before := cl.Stats().Snapshot()
	if _, err := s2.Write(id, pid, "T2", 0, []byte("efgh")); err != nil {
		t.Fatal(err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LeaseHits) != 1 || d.Get(stats.LockMsgs) != 0 {
		t.Fatalf("an hour after the grant: lease_hits=%d lock_msgs=%d, want 1/0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	commitAtStorage(t, s1, "T2", id.ID())
}

// TestLeaseHullBesideAnotherSite: two sites write their own records of
// one file.  Site 3's lease keeps site 2's escalation off the whole file,
// so site 2's lease covers the hull of its records: a record of its own
// it never locked costs no lock message, and neither site's lease is
// revoked.
func TestLeaseHullBesideAnotherSite(t *testing.T) {
	cl := leaseCluster(t, Config{})
	cl.AddSite(3)
	s1, s2, s3 := cl.Site(1), cl.Site(2), cl.Site(3)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	writer := func(s *Site) func(txid string, off int64) stats.Snapshot {
		pid := cl.NewPID()
		s.Procs().NewProcess(pid, 0)
		b, _, err := s.Open("va/f")
		if err != nil {
			t.Fatal(err)
		}
		return func(txid string, off int64) stats.Snapshot {
			t.Helper()
			before := cl.Stats().Snapshot()
			if _, err := s.Write(b, pid, txid, off, []byte("abcd")); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, s1, txid, b.ID())
			return cl.Stats().Snapshot().Sub(before)
		}
	}
	w2, w3 := writer(s2), writer(s3)
	w3("T0", 2048)
	for i := 1; i <= leaseEscalateThreshold; i++ {
		w2(fmt.Sprintf("T%d", i), int64(16*i))
	}
	if n := cl.Stats().Snapshot().Get(stats.LeaseEscalations); n != 1 {
		t.Fatalf("%d escalations, want site 2's one", n)
	}
	if d := w2("T5", 40); d.Get(stats.LeaseHits) != 1 || d.Get(stats.LockMsgs) != 0 {
		t.Fatalf("a record inside site 2's hull: lease_hits=%d lock_msgs=%d, want 1/0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	if d := w3("T6", 2048); d.Get(stats.LeaseHits) != 1 {
		t.Fatalf("site 3's own record: lease_hits=%d, want 1", d.Get(stats.LeaseHits))
	}
	if d := w2("T7", 1024); d.Get(stats.LeaseHits) != 0 || d.Get(stats.LockMsgs) != 1 {
		t.Fatalf("a record past site 2's hull: lease_hits=%d lock_msgs=%d, want 0/1", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
	}
	if n := cl.Stats().Snapshot().Get(stats.LeaseRevokes); n != 0 {
		t.Fatalf("%d lease revokes between two sites on their own records", n)
	}
}

func TestLeaseReclaimOnLeaseholderCrash(t *testing.T) {
	cl := leaseCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid := cl.NewPID()
	s2.Procs().NewProcess(pid, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())

	// The leaseholder crashes: the failure detector's SiteDown reclaims
	// its leases at the storage site without any callback.
	s2.Crash()
	deadline := time.Now().Add(2 * time.Second)
	for len(s1.Locks().Lookup(id.ID()).LeaseSites()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("crashed leaseholder's lease never reclaimed: %v", s1.Locks().Lookup(id.ID()).LeaseSites())
		}
		time.Sleep(time.Millisecond)
	}
	// A conflicting lock is grantable immediately — no revoke round trip
	// toward a dead site.
	pid1 := cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	if _, err := s1.Lock(id, pid1, "T9", lockmgr.ModeExclusive, 0, 4, false, false, false); err != nil {
		t.Fatalf("lock after leaseholder crash: %v", err)
	}

	// The restarted leaseholder comes back with an empty cache: no stale
	// hit can bypass the new lock.
	if err := s2.Restart(); err != nil {
		t.Fatal(err)
	}
	s2.kernel().leaseMu.Lock()
	cached := len(s2.kernel().leases)
	s2.kernel().leaseMu.Unlock()
	if cached != 0 {
		t.Fatalf("restarted site kept %d cached leases", cached)
	}
}

func TestLeaseRevokeDuringPartitionReclaimsWhenCallbackFails(t *testing.T) {
	// Figure 1 semantics under partition: the callback cannot reach the
	// leaseholder, so the storage site reclaims the lease as soon as the
	// callback fails - a lease delays, never defeats, a conflicting lock.
	cl := leaseCluster(t, Config{})
	s1, s2 := cl.Site(1), cl.Site(2)
	pid2 := cl.NewPID()
	s2.Procs().NewProcess(pid2, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid2, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())

	cl.Net().Partition(2)
	defer cl.Net().Heal()

	pid1 := cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	before := cl.Stats().Snapshot()
	if _, err := s1.Lock(id, pid1, "T9", lockmgr.ModeExclusive, 0, 4, false, false, true); err != nil {
		t.Fatalf("lock during partition never granted: %v", err)
	}
	d := cl.Stats().Snapshot().Sub(before)
	if d.Get(stats.LeaseRevokes) != 1 {
		t.Fatalf("lease revokes = %d, want 1 (reclaimed after the failed callback)", d.Get(stats.LeaseRevokes))
	}
	if got := s1.Locks().Lookup(id.ID()).LeaseSites(); len(got) != 0 {
		t.Fatalf("lease survived the reclaim: %v", got)
	}
}

func TestLeaseRevokeFIFOFairnessMatrix(t *testing.T) {
	// Satellite 4: while the leaseholder keeps re-hitting its cache, a
	// conflicting waiter must still be granted within its timeout, for
	// every conflicting (lease mode, waiter mode) pairing of Figure 1.
	cases := []struct {
		name       string
		waiterMode lockmgr.Mode
	}{
		{"exclusive-waiter", lockmgr.ModeExclusive},
		{"shared-waiter", lockmgr.ModeShared},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := leaseCluster(t, Config{})
			s1, s2 := cl.Site(1), cl.Site(2)
			pid2 := cl.NewPID()
			s2.Procs().NewProcess(pid2, 0)
			if err := s2.Create("va/f"); err != nil {
				t.Fatal(err)
			}
			id, _, _ := s2.Open("va/f")
			// Exclusive lease for site 2 — conflicts with both waiter modes.
			if _, err := s2.Write(id, pid2, "T1", 0, []byte("abcd")); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, s1, "T1", id.ID())

			// The leaseholder keeps re-hitting its cache in the background.
			stopHits := make(chan struct{})
			hitsDone := make(chan struct{})
			go func() {
				defer close(hitsDone)
				for i := 0; ; i++ {
					select {
					case <-stopHits:
						return
					default:
					}
					txid := "H" + string(rune('0'+i%10))
					if _, err := s2.Write(id, pid2, txid, 0, []byte("hhhh")); err == nil {
						commitAtStorage(t, s1, txid, id.ID())
					}
					time.Sleep(time.Millisecond)
				}
			}()

			pid1 := cl.NewPID()
			s1.Procs().NewProcess(pid1, 0)
			start := time.Now()
			_, err := s1.Lock(id, pid1, "TW", tc.waiterMode, 0, 4, false, false, true)
			// Release the waiter's lock at the storage site (site 1) before
			// joining the re-hitter: a write it queued behind TW then ends
			// at once, where it would sit out the lock-wait timeout.
			s1.Locks().ReleaseGroup(lockmgr.TxnGroup("TW"))
			close(stopHits)
			<-hitsDone
			if err != nil {
				t.Fatalf("waiter starved behind lease re-hits: %v (after %v)", err, time.Since(start))
			}
		})
	}
}

// TestLeaseDoesNotBlockReplicaSync pins that a sticky lease is not a live
// lock as far as replication is concerned: a replicated file written once
// by a remote leaseholder must leave open-for-update when the transaction
// commits, be pushed, and be readable at a replica without a message.
func TestLeaseDoesNotBlockReplicaSync(t *testing.T) {
	cl := New(Config{SyncPhase2: true, LockLeases: true})
	defer cl.Shutdown()
	for i := 1; i <= 3; i++ {
		cl.AddSite(simnet.SiteID(i))
	}
	if err := cl.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	s1, s2, s3 := cl.Site(1), cl.Site(2), cl.Site(3)
	if err := s1.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	if err := cl.AddReplica("va", 3); err != nil {
		t.Fatal(err)
	}
	writer, reader := cl.NewPID(), cl.NewPID()
	s2.Procs().NewProcess(writer, 0)
	s3.Procs().NewProcess(reader, 0)

	id, _, err := s2.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write(id, writer, "T1", 0, []byte("leased!")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())
	if sites := s1.Locks().Lookup(id.ID()).LeaseSites(); len(sites) != 1 || sites[0] != 2 {
		t.Fatalf("lease sites after commit = %v, want [2]", sites)
	}

	rid, _, err := s3.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	before := cl.Stats().Snapshot()
	got, err := s3.Read(rid, reader, "", 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "leased!" {
		t.Fatalf("replica read = %q, want the committed bytes", got)
	}
	if n := cl.Stats().Snapshot().Sub(before).Get(stats.MsgsSent); n != 0 {
		t.Fatalf("replica read sent %d messages: the lease kept the file open-for-update", n)
	}
}

// TestLeaseRevokeActorOutlivesItsIncarnation: a revoke actor whose
// callback is still retrying toward the leaseholder while its storage
// site crashes and restarts finishes in the kernel that started it.  It
// must not retire the (file, holder) meta of whichever incarnation is
// current when its callback gives up: that would reset the grant count
// of the lease the successor has granted since.
func TestLeaseRevokeActorOutlivesItsIncarnation(t *testing.T) {
	clk := vtime.NewVirtual()
	cl := leaseCluster(t, Config{Clock: clk})
	defer cl.Shutdown()
	s1, s2 := cl.Site(1), cl.Site(2)
	pid2 := cl.NewPID()
	s2.Procs().NewProcess(pid2, 0)
	if err := s2.Create("va/f"); err != nil {
		t.Fatal(err)
	}
	id, _, _ := s2.Open("va/f")
	if _, err := s2.Write(id, pid2, "T1", 0, []byte("abcd")); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T1", id.ID())

	// Every callback is lost in flight, so the revoke a conflicting
	// request fires spends each attempt's full call timeout and is still
	// retrying at the crash.  The request itself waits on the dead
	// kernel's lock list.
	cl.Net().SetFaultFilter(func(_, _ simnet.SiteID, op string) bool { return op == "leaseRevoke" })
	pid1 := cl.NewPID()
	s1.Procs().NewProcess(pid1, 0)
	g := vtime.NewGroup(clk)
	g.Go(func() {
		s1.Lock(id, pid1, "T9", lockmgr.ModeExclusive, 0, 4, false, false, true) //nolint:errcheck // answered by a dead kernel
	})
	clk.Sleep(100 * time.Millisecond)
	s1.Crash()
	if err := s1.Restart(); err != nil {
		t.Fatal(err)
	}

	// The new incarnation grants site 2 a lease on the same file.
	if _, _, err := s2.Open("va/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Lock(id, pid2, "T2", lockmgr.ModeExclusive, 0, 4, false, false, true); err != nil {
		t.Fatal(err)
	}
	commitAtStorage(t, s1, "T2", id.ID())
	meta := func() (leaseMeta, bool) {
		k := s1.kernel()
		k.leaseMu.Lock()
		defer k.leaseMu.Unlock()
		lm := k.leaseMeta[leaseKey{id.ID(), 2}]
		if lm == nil {
			return leaseMeta{}, false
		}
		return *lm, true
	}
	want, ok := meta()
	if !ok || want.grants != 1 || want.revoking {
		t.Fatalf("re-granted lease meta = %+v, %v", want, ok)
	}

	// Let the old actor's callback give up.
	clk.Sleep(10 * time.Second)
	g.Wait()
	if got, ok := meta(); !ok || got != want {
		t.Errorf("a revoke actor of the dead incarnation changed its successor's lease meta: %+v, %v; want %+v", got, ok, want)
	}
	if got := s1.Locks().Lookup(id.ID()).LeaseSites(); len(got) != 1 || got[0] != 2 {
		t.Errorf("lease sites in the new incarnation = %v, want [2]", got)
	}
}

// TestLeaseRevokeRetryEndsWithItsIncarnation is the same revoke, but its
// callback would get through once the storage site has restarted.  A
// retry ends with its sender: the dead incarnation's actor makes no
// attempt after the crash, so it cannot drop the lease the new
// incarnation has granted site 2 since and leave site 1 listing a holder
// that holds nothing.  With no pause between the restart and the
// re-grant, site 2's reaction to the crash (dropping the leases site 1
// stored) must also have run before site 1 came back up, or it drops the
// fresh lease the same way.
func TestLeaseRevokeRetryEndsWithItsIncarnation(t *testing.T) {
	for _, pause := range []time.Duration{time.Millisecond, 0} {
		t.Run(fmt.Sprintf("pause=%v", pause), func(t *testing.T) {
			clk := vtime.NewVirtual()
			cl := leaseCluster(t, Config{Clock: clk})
			defer cl.Shutdown()
			s1, s2 := cl.Site(1), cl.Site(2)
			pid2 := cl.NewPID()
			s2.Procs().NewProcess(pid2, 0)
			if err := s2.Create("va/f"); err != nil {
				t.Fatal(err)
			}
			id, _, _ := s2.Open("va/f")
			if _, err := s2.Write(id, pid2, "T1", 0, []byte("abcd")); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, s1, "T1", id.ID())

			cl.Net().SetFaultFilter(func(_, _ simnet.SiteID, op string) bool { return op == "leaseRevoke" })
			pid1 := cl.NewPID()
			s1.Procs().NewProcess(pid1, 0)
			g := vtime.NewGroup(clk)
			g.Go(func() {
				s1.Lock(id, pid1, "T9", lockmgr.ModeExclusive, 0, 4, false, false, true) //nolint:errcheck // answered by a dead kernel
			})
			clk.Sleep(100 * time.Millisecond)
			s1.Crash()
			if err := s1.Restart(); err != nil {
				t.Fatal(err)
			}
			cl.Net().SetFaultFilter(nil)
			clk.Sleep(pause)

			// The new incarnation grants site 2 a lease on the same file.
			if _, _, err := s2.Open("va/f"); err != nil {
				t.Fatal(err)
			}
			if _, err := s2.Lock(id, pid2, "T2", lockmgr.ModeExclusive, 0, 4, false, false, true); err != nil {
				t.Fatal(err)
			}
			commitAtStorage(t, s1, "T2", id.ID())

			// Let the old actor's retries run out.
			clk.Sleep(10 * time.Second)
			g.Wait()
			if got := s1.Locks().Lookup(id.ID()).LeaseSites(); len(got) != 1 || got[0] != 2 {
				t.Errorf("lease sites in the new incarnation = %v, want [2]", got)
			}
			before := cl.Stats().Snapshot()
			if _, err := s2.Write(id, pid2, "T3", 0, []byte("efgh")); err != nil {
				t.Fatal(err)
			}
			if d := cl.Stats().Snapshot().Sub(before); d.Get(stats.LeaseHits) != 1 || d.Get(stats.LockMsgs) != 0 {
				t.Errorf("site 2 after the old revoke's retries: lease_hits=%d lock_msgs=%d, want 1/0", d.Get(stats.LeaseHits), d.Get(stats.LockMsgs))
			}
		})
	}
}
