package cluster

import (
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// TestPartitionDuringPhaseTwo closes the gap between the crash matrix
// (E9) and the section 4.3 partition rule: a participant partitioned
// away AFTER the commit point must not lose the commit.  The outcome is
// decided; the coordinating site's recovery loop drives the lagging
// participant to completion once the partition heals, and duplicate commit messages
// along the way are idempotent (section 4.4).
func TestPartitionDuringPhaseTwo(t *testing.T) {
	const txid = "PHASE2"
	files := []proc.FileRef{
		{FileID: "va/f", StorageSite: 1},
		{FileID: "vb/f", StorageSite: 2},
	}

	clk := vtime.NewVirtual()
	cl := New(Config{
		SyncPhase2: true,
		Clock:      clk,
		Net:        simnet.Config{CallTimeout: 40 * time.Millisecond},
	})
	defer cl.Shutdown()
	for i := 1; i <= 3; i++ {
		cl.AddSite(simnet.SiteID(i))
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := cl.AddVolume(site, vol); err != nil {
			t.Fatal(err)
		}
	}
	s1, s2, s3 := cl.Site(1), cl.Site(2), cl.Site(3)
	for _, st := range []struct {
		s    *Site
		path string
	}{{s1, "va/f"}, {s2, "vb/f"}} {
		pid := cl.NewPID()
		st.s.Procs().NewProcess(pid, 0)
		if err := st.s.Create(st.path); err != nil {
			t.Fatal(err)
		}
		id, _, err := st.s.Open(st.path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.s.Lock(id, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
			t.Fatal(err)
		}
		if _, err := st.s.Write(id, pid, txid, 0, []byte("COMMITME")); err != nil {
			t.Fatal(err)
		}
	}

	committedSize := func(s *Site, path string) int64 {
		t.Helper()
		id, _, err := s.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, committed, err := s.Stat(id)
		if err != nil {
			t.Fatal(err)
		}
		return committed
	}

	// Drop every phase-two commit message to site 1: the commit point is
	// reached and site 2 completes, but site 1 stays unacknowledged.
	cl.Net().SetFaultFilter(func(from, to simnet.SiteID, op string) bool {
		return op == "commit2" && to == 1
	})
	coord, err := s3.Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.CommitTransaction(txid, files); err != nil {
		t.Fatalf("commit failed before phase two: %v", err)
	}
	if got := committedSize(s2, "vb/f"); got != 8 {
		t.Fatalf("site 2 committed = %d, want 8", got)
	}
	if got := committedSize(s1, "va/f"); got != 0 {
		t.Fatalf("site 1 committed = %d before its commit message, want 0", got)
	}
	if coord.PendingCount() != 1 {
		t.Fatalf("pending = %d, want 1", coord.PendingCount())
	}

	// Now a real partition isolates the lagging participant.  The
	// outcome is already decided, so nothing may tear it: site 1 stays
	// prepared (in doubt), the coordinator keeps retrying into the void.
	cl.Net().Partition(1)
	cl.Net().SetFaultFilter(nil)
	clk.Sleep(3 * recoveryInterval) // let recovery passes fire into the partition
	if coord.PendingCount() != 1 {
		t.Fatalf("pending across partition = %d, want 1", coord.PendingCount())
	}
	if got := committedSize(s2, "vb/f"); got != 8 {
		t.Fatalf("site 2 tore a committed transaction during the partition: %d", got)
	}

	// Heal: the recovery loop alone must drive phase two to completion.
	cl.Net().Heal()
	deadline := clk.Now().Add(3 * time.Second)
	for coord.PendingCount() != 0 {
		if clk.Now().After(deadline) {
			t.Fatalf("recovery loop never completed phase two (pending = %d)", coord.PendingCount())
		}
		clk.Sleep(5 * time.Millisecond)
	}
	if got := committedSize(s1, "va/f"); got != 8 {
		t.Fatalf("site 1 committed = %d after heal, want 8", got)
	}

	// Duplicate commit messages are harmless (section 4.4): replay the
	// phase-two message by hand and re-audit.
	if _, err := s3.ep.Call(1, "commit2", txnReq{Txid: txid}); err != nil {
		t.Fatalf("duplicate commit2 rejected: %v", err)
	}
	for s, path := range map[*Site]string{s1: "va/f", s2: "vb/f"} {
		if got := committedSize(s, path); got != 8 {
			t.Fatalf("%s committed = %d after duplicate commit, want 8", path, got)
		}
		id, _, err := s.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := s.Read(id, 0, "", 0, 8)
		if err != nil || string(buf) != "COMMITME" {
			t.Fatalf("%s content = %q, %v", path, buf, err)
		}
		vol := path[:2]
		if recs, _ := tpc.ReadPrepareRecords(s.Volume(vol)); len(recs) != 0 {
			t.Fatalf("%s has residual prepare records after phase two", path)
		}
	}
	if keys := s3.Volume("vc").Log().Keys(); len(keys) != 0 {
		t.Fatalf("coordinator log not reclaimed: %v", keys)
	}
}
