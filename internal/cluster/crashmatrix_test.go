package cluster

import (
	"testing"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/tpc"
)

// TestCrashMatrix drives the two-phase commit protocol step by step and
// injects a crash at every interesting point, verifying the section
// 4.3/4.4 guarantee: after recovery, the transaction is all-or-nothing
// across both participant sites, locks are released (or still protecting
// in-doubt data), and logs are reclaimed.
//
// Topology: coordinator log at site 3 (vc); participants site 1 (va/f)
// and site 2 (vb/f).
func TestCrashMatrix(t *testing.T) {
	const txid = "MATRIX"
	files := []proc.FileRef{
		{FileID: "va/f", StorageSite: 1},
		{FileID: "vb/f", StorageSite: 2},
	}

	type env struct {
		cl         *Cluster
		s1, s2, s3 *Site
	}
	setup := func(t *testing.T) env {
		cl := New(Config{SyncPhase2: true})
		for i := 1; i <= 3; i++ {
			cl.AddSite(simnet.SiteID(i))
		}
		for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
			if err := cl.AddVolume(site, vol); err != nil {
				t.Fatal(err)
			}
		}
		e := env{cl: cl, s1: cl.Site(1), s2: cl.Site(2), s3: cl.Site(3)}
		// The transaction's writes at both participants.
		for _, site := range []*Site{e.s1, e.s2} {
			pid := cl.NewPID()
			site.Procs().NewProcess(pid, 0)
			path := "va/f"
			if site == e.s2 {
				path = "vb/f"
			}
			if err := site.Create(path); err != nil {
				t.Fatal(err)
			}
			id, _, err := site.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := site.Lock(id, pid, txid, lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
				t.Fatal(err)
			}
			if _, err := site.Write(id, pid, txid, 0, []byte("COMMITME")); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}

	coordRec := func(e env, status tpc.Status) {
		if err := tpc.WriteCoordRecord(e.s3.Volume("vc"), tpc.CoordRecord{
			Txid: txid, Files: files, Status: status,
		}); err != nil {
			t.Fatal(err)
		}
	}
	prepare := func(e env, s *Site, fileID string) {
		if err := s.kernel().handlePrepare(prepareReq{Txid: txid, FileIDs: []string{fileID}, Coord: 3}); err != nil {
			t.Fatal(err)
		}
	}
	// check verifies the all-or-nothing outcome after recovery.
	check := func(t *testing.T, e env, wantCommitted bool) {
		t.Helper()
		want := int64(0)
		if wantCommitted {
			want = 8
		}
		for site, path := range map[*Site]string{e.s1: "va/f", e.s2: "vb/f"} {
			pid := e.cl.NewPID()
			site.Procs().NewProcess(pid, 0)
			id, _, err := site.Open(path)
			if err != nil {
				t.Fatalf("open %s: %v", path, err)
			}
			_, committed, err := site.Stat(id)
			if err != nil {
				t.Fatal(err)
			}
			if committed != want {
				t.Fatalf("%s committed = %d, want %d", path, committed, want)
			}
			// Locks must be free after resolution.
			if _, err := site.Lock(id, pid, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err != nil {
				t.Fatalf("%s still locked after recovery: %v", path, err)
			}
			// No residual prepare records.
			vol := path[:2]
			if recs, _ := tpc.ReadPrepareRecords(site.Volume(vol)); len(recs) != 0 {
				t.Fatalf("%s has residual prepare records: %+v", path, recs)
			}
		}
	}

	t.Run("participant crash before prepare", func(t *testing.T) {
		e := setup(t)
		e.s1.Crash()
		if err := e.s1.Restart(); err != nil {
			t.Fatal(err)
		}
		// The crash aborts the transaction (topology change, section
		// 4.3): the abort cascade reaches the surviving participant.
		e.s3.AbortEverywhere(txid)
		check(t, e, false)
	})

	t.Run("one participant prepared, crash before commit point", func(t *testing.T) {
		e := setup(t)
		coordRec(e, tpc.StatusUnknown)
		prepare(e, e.s1, "va/f")
		e.s1.Crash()
		// The coordinator treats the failure before the commit point as
		// an abort (section 4.3) and cleans its log.
		e.s3.AbortEverywhere(txid)
		if err := tpc.DeleteCoordRecord(e.s3.Volume("vc"), txid); err != nil {
			t.Fatal(err)
		}
		if err := e.s1.Restart(); err != nil {
			t.Fatal(err)
		}
		// Restart finds the prepare record; the coordinator has no log,
		// so presumed abort rolls it back during participant recovery.
		if e.s1.InDoubtCount() != 0 {
			t.Fatalf("in doubt = %d, want 0 (presumed abort)", e.s1.InDoubtCount())
		}
		check(t, e, false)
	})

	t.Run("coordinator crash after commit point", func(t *testing.T) {
		e := setup(t)
		coordRec(e, tpc.StatusUnknown)
		prepare(e, e.s1, "va/f")
		prepare(e, e.s2, "vb/f")
		coordRec(e, tpc.StatusCommitted) // the commit point
		e.s3.Crash()
		if err := e.s3.Restart(); err != nil {
			t.Fatal(err)
		}
		// Coordinator recovery re-drives phase two from the durable log.
		check(t, e, true)
		if keys := e.s3.Volume("vc").Log().Keys(); len(keys) != 0 {
			t.Fatalf("coordinator log not reclaimed: %v", keys)
		}
	})

	t.Run("participant crash after commit point", func(t *testing.T) {
		e := setup(t)
		coordRec(e, tpc.StatusUnknown)
		prepare(e, e.s1, "va/f")
		prepare(e, e.s2, "vb/f")
		coordRec(e, tpc.StatusCommitted)
		// Phase two reaches site 2 only; site 1 crashes first.
		e.s1.Crash()
		if err := e.s2.kernel().handleCommit2(commit2Req{Txid: txid}); err != nil {
			t.Fatal(err)
		}
		if err := e.s1.Restart(); err != nil {
			t.Fatal(err)
		}
		// Participant recovery queried the coordinator and applied the
		// logged intentions.
		check(t, e, true)
	})

	t.Run("total failure after commit point", func(t *testing.T) {
		e := setup(t)
		coordRec(e, tpc.StatusUnknown)
		prepare(e, e.s1, "va/f")
		prepare(e, e.s2, "vb/f")
		coordRec(e, tpc.StatusCommitted)
		e.s1.Crash()
		e.s2.Crash()
		e.s3.Crash()
		// Coordinator first, then participants: every restart order that
		// brings the coordinator up before in-doubt resolution works;
		// participants restarted before it stay in doubt until resolved.
		if err := e.s3.Restart(); err != nil {
			t.Fatal(err)
		}
		if err := e.s1.Restart(); err != nil {
			t.Fatal(err)
		}
		if err := e.s2.Restart(); err != nil {
			t.Fatal(err)
		}
		check(t, e, true)
	})

	t.Run("participants restart before coordinator", func(t *testing.T) {
		e := setup(t)
		coordRec(e, tpc.StatusUnknown)
		prepare(e, e.s1, "va/f")
		prepare(e, e.s2, "vb/f")
		coordRec(e, tpc.StatusCommitted)
		e.s1.Crash()
		e.s2.Crash()
		e.s3.Crash()
		if err := e.s1.Restart(); err != nil {
			t.Fatal(err)
		}
		if err := e.s2.Restart(); err != nil {
			t.Fatal(err)
		}
		// Both are in doubt: the coordinator is down, and the retained
		// locks are re-established to protect the prepared data.
		if e.s1.InDoubtCount() != 1 || e.s2.InDoubtCount() != 1 {
			t.Fatalf("in doubt = %d/%d, want 1/1", e.s1.InDoubtCount(), e.s2.InDoubtCount())
		}
		pid := e.cl.NewPID()
		e.s1.Procs().NewProcess(pid, 0)
		id, _, err := e.s1.Open("va/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.s1.Lock(id, pid, "", lockmgr.ModeExclusive, 0, 8, false, false, false); err == nil {
			t.Fatal("in-doubt data not protected by re-established locks")
		}
		// Coordinator returns; resolution completes the commit.
		if err := e.s3.Restart(); err != nil {
			t.Fatal(err)
		}
		if n := e.s1.ResolveInDoubt(); n != 0 {
			t.Fatalf("s1 resolve left %d in doubt", n)
		}
		if n := e.s2.ResolveInDoubt(); n != 0 {
			t.Fatalf("s2 resolve left %d in doubt", n)
		}
		check(t, e, true)
	})
}
