package main

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/simnet"
)

// TestLockstatSmoke drives the whole demonstration end to end; its
// assertions are the error paths inside lockstat itself (deadlock staged
// and resolved, survivor committed).
func TestLockstatSmoke(t *testing.T) {
	if err := lockstat(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueStatsReportsWaiters stages one blocked lock request and checks
// the wait-queue report the demo prints: depth counts the parked request
// and the oldest-waiter age is a real, positive duration.
func TestQueueStatsReportsWaiters(t *testing.T) {
	sys := core.NewSystem(cluster.Config{SyncPhase2: true, LockWaitTimeout: 2 * time.Second})
	sys.AddSite(simnet.SiteID(1))
	if err := sys.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}

	pa, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := pa.Create("va/r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := fa.LockRange(0, 10, core.Exclusive); err != nil {
		t.Fatal(err)
	}

	pb, err := sys.NewProcess(1)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := pb.Open("va/r")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fb.LockRange(0, 10, core.Exclusive) }()

	locks := sys.Cluster().Site(1).Locks()
	deadline := time.Now().Add(time.Second)
	var found bool
	for time.Now().Before(deadline) {
		qs := locks.QueueStats()
		if len(qs) == 1 && qs[0].FileID == "va/r" && qs[0].Depth == 1 && qs[0].OldestWait > 0 {
			found = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !found {
		t.Fatalf("queue stats never showed the staged waiter: %+v", locks.QueueStats())
	}

	if err := pa.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("waiter's lock after release: %v", err)
	}
	if qs := locks.QueueStats(); len(qs) != 0 {
		t.Fatalf("queue stats after grant = %+v, want empty", qs)
	}
}
