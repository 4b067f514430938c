package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/tpc"
	"repro/internal/vtime"
)

// recoveryCluster is n sites on clk, site i serving volume "v<i>", with
// asynchronous phase two.
func recoveryCluster(t *testing.T, clk vtime.Clock, n int, net simnet.Config) *Cluster {
	t.Helper()
	cl := New(Config{Clock: clk, Net: net})
	for i := 1; i <= n; i++ {
		id := simnet.SiteID(i)
		cl.AddSite(id)
		must(t, cl.AddVolume(id, fmt.Sprintf("v%d", i)))
	}
	return cl
}

// TestRestartDoesNotWaitOnBlockedCoordinator: a participant restarts while
// the link from its in-doubt transaction's coordinator is blocked, so the
// coordinator's answer cannot come back.  Restart returns at the simulated
// instant it was called (it used to wait out the call timeout inside), the
// transaction stays in doubt under its lock, and the site's recovery loop
// resolves it within one recovery interval of the unblock.
func TestRestartDoesNotWaitOnBlockedCoordinator(t *testing.T) {
	clk := vtime.NewVirtual()
	cl := twoSiteCluster(t, Config{Clock: clk, Net: simnet.Config{Latency: 8 * time.Millisecond, CallTimeout: time.Second}})
	defer cl.Shutdown()
	s1, s2 := cl.Site(1), cl.Site(2)
	prepareAt(t, s1, "va/f", "T", "decided", 2)
	must(t, tpc.WriteCoordRecord(s2.Volume("vb"), tpc.CoordRecord{Txid: "T", Status: tpc.StatusCommitted}))

	s1.Crash()
	cl.Net().BlockLink(2, 1)
	t0 := clk.Now()
	must(t, s1.Restart())
	if d := clk.Now().Sub(t0); d != 0 {
		t.Fatalf("Restart took %v of simulated time behind a blocked link, want 0", d)
	}
	// The first pass's query has timed out; the loop waits for its next.
	clk.Sleep(time.Second + recoveryInterval/2)
	if n := s1.InDoubtCount(); n != 1 {
		t.Fatalf("in doubt behind the blocked link = %d, want 1", n)
	}
	cl.Net().UnblockLink(2, 1)
	unblocked := clk.Now()
	for s1.InDoubtCount() != 0 {
		if d := clk.Now().Sub(unblocked); d > recoveryInterval {
			t.Fatalf("still in doubt %v after the unblock, want within %v", d, recoveryInterval)
		}
		clk.Sleep(time.Millisecond)
	}
	img, err := s1.kernel().committedImage("va/f")
	if err != nil || string(img) != "decided" {
		t.Fatalf("after resolution va/f = %q, %v; want the committed outcome", img, err)
	}
}

// TestRecoveryLoopCompletesFailedPhase2: a phase-two delivery that fails
// every try starts the coordinating site's recovery loop, which completes
// it once the participant can be reached - nobody calls RetryPending - and
// then ends.
func TestRecoveryLoopCompletesFailedPhase2(t *testing.T) {
	clk := vtime.NewVirtual()
	cl := recoveryCluster(t, clk, 2, simnet.Config{CallTimeout: 40 * time.Millisecond})
	defer cl.Shutdown()
	writeTxn(t, cl.Site(1), "v1/f", "P2", "phase two")
	cl.Net().SetFaultFilter(func(_, to simnet.SiteID, op string) bool { return op == "commit2" && to == 1 })
	coord, err := cl.Site(2).Coordinator()
	must(t, err)
	must(t, coord.CommitTransaction("P2", []proc.FileRef{{FileID: "v1/f", StorageSite: 1}}))
	clk.Sleep(time.Second) // every try of the first delivery, and some passes, are lost
	k := cl.Site(2).kernel()
	if coord.PendingCount() != 1 || !k.recovering.Load() {
		t.Fatalf("lost delivery: %d pending, loop running %v; want 1 and true", coord.PendingCount(), k.recovering.Load())
	}
	cl.Net().SetFaultFilter(nil)
	clk.Sleep(2 * recoveryInterval)
	if coord.PendingCount() != 0 || cl.Site(1).InDoubtCount() != 0 {
		t.Fatalf("after the loop's pass: %d pending, %d in doubt; want 0 and 0", coord.PendingCount(), cl.Site(1).InDoubtCount())
	}
	if img, err := cl.Site(1).kernel().committedImage("v1/f"); err != nil || string(img) != "phase two" {
		t.Fatalf("v1/f = %q, %v; want the commit delivered", img, err)
	}
	if k.recovering.Load() {
		t.Fatal("recovery loop still running with nothing left")
	}
}

// TestFaultFreeRunStartsNoRecoveryLoop: a fault-free run shaped like the
// ledger's remote_2pc workload - three sites, every transaction writing at
// both other sites, asynchronous phase two at VAX-750 latencies - never
// kicks a recovery loop, so it pays nothing for one.
func TestFaultFreeRunStartsNoRecoveryLoop(t *testing.T) {
	clk := vtime.NewVirtual()
	m := costmodel.Vax750()
	cl := recoveryCluster(t, clk, 3, simnet.Config{Latency: m.MsgTime})
	defer cl.Shutdown()
	for i := 0; i < 20; i++ {
		home, txid := simnet.SiteID(2+i%2), fmt.Sprintf("R%d", i)
		var refs []proc.FileRef
		for _, id := range []simnet.SiteID{1, 2, 3} {
			if id != home {
				path := fmt.Sprintf("v%d/r%d", id, home)
				writeTxn(t, cl.Site(id), path, txid, "record")
				refs = append(refs, proc.FileRef{FileID: path, StorageSite: id})
			}
		}
		coord, err := cl.Site(home).Coordinator()
		must(t, err)
		must(t, coord.CommitTransaction(txid, refs))
		clk.WaitIdle() // phase two releases the locks the next writer takes
	}
	for _, id := range cl.Sites() {
		k := cl.Site(id).kernel()
		if n := k.kicks.Load(); n != 0 || k.recovering.Load() {
			t.Errorf("site %v: %d recovery kicks, loop running %v; want none", id, n, k.recovering.Load())
		}
		if coord, err := cl.Site(id).Coordinator(); err != nil || coord.PendingCount() != 0 {
			t.Errorf("site %v: phase two not finished: %v", id, err)
		}
	}
}

// TestRecoveryLoopEndsAtShutdownAndCrash: on the real clock a recovery
// loop is a goroutine; Cluster.Shutdown ends it, and so does a crash of
// its site.
func TestRecoveryLoopEndsAtShutdownAndCrash(t *testing.T) {
	for _, end := range []string{"shutdown", "crash"} {
		t.Run(end, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cl := recoveryCluster(t, vtime.Real(), 2, simnet.Config{CallTimeout: 5 * time.Millisecond})
			defer cl.Shutdown()
			writeTxn(t, cl.Site(1), "v1/f", "L", "loop")
			cl.Net().SetFaultFilter(func(_, to simnet.SiteID, op string) bool { return op == "commit2" && to == 1 })
			coord, err := cl.Site(2).Coordinator()
			must(t, err)
			must(t, coord.CommitTransaction("L", []proc.FileRef{{FileID: "v1/f", StorageSite: 1}}))
			waitGoroutines(t, func(g int) bool { return g > base && cl.Site(2).kernel().recovering.Load() }, "no recovery loop started")
			if end == "shutdown" {
				cl.Shutdown()
			} else {
				cl.Site(2).Crash()
			}
			waitGoroutines(t, func(g int) bool { return g <= base }, "recovery loop outlived "+end)
		})
	}
}

// TestRecoveredCommitRacesStat: a recovered transaction's commit refreshes
// the open file's shadow descriptor while Stat calls at the same site read
// it; -race must see no unsynchronized access.
func TestRecoveredCommitRacesStat(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	defer cl.Shutdown()
	s1 := cl.Site(1)
	prepareAt(t, s1, "va/f", "T", "recovered", 9) // site 9 never answers
	s1.Crash()
	must(t, s1.Restart())
	id, _, err := s1.Open("va/f")
	must(t, err)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s1.Stat(id) //nolint:errcheck // only the accesses matter
			}
		}
	}()
	time.Sleep(time.Millisecond)
	err = s1.kernel().handleCommit2(txnReq{Txid: "T"})
	time.Sleep(time.Millisecond)
	close(stop)
	wg.Wait()
	must(t, err)
	if _, committed, err := s1.Stat(id); err != nil || committed != int64(len("recovered")) {
		t.Fatalf("after the recovered commit: %d bytes committed, %v", committed, err)
	}
}

// waitGoroutines polls the goroutine count for up to 3 s until ok holds.
func waitGoroutines(t *testing.T, ok func(int) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !ok(runtime.NumGoroutine()) {
		if time.Now().After(deadline) {
			t.Fatalf("%s (goroutines = %d)", msg, runtime.NumGoroutine())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
