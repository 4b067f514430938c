package cluster

import (
	"sync"
	"testing"
)

// TestObserversDoNotRaceRestart is the deadlock detector's poll (WaitEdges),
// lockstat's (QueueSummary) and core's (Procs) running against a site that
// crashes and restarts twenty times.  Before a site's kernel memory was
// one value swapped in one store, Restart replaced Site.locks field by
// field under a mutex these readers never took, and `go test -race`
// reported it on the first run.
func TestObserversDoNotRaceRestart(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	defer cl.Shutdown()
	s2 := cl.Site(2)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cl.WaitEdges()
			cl.ReapProcess(9999)
			s2.Locks().QueueSummary()
			s2.Procs().Resident()
		}
	}()
	for i := 0; i < 20; i++ {
		s2.Crash()
		if err := s2.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCrashAndRestartAreTotal: every harness guards these calls with Up();
// unguarded they are a no-op and a crash-then-restart.
func TestCrashAndRestartAreTotal(t *testing.T) {
	cl := twoSiteCluster(t, Config{})
	defer cl.Shutdown()
	s1 := cl.Site(1)
	first := s1.kernel()
	if err := s1.Restart(); err != nil || !s1.Up() || s1.kernel() == first || !first.dead.Load() {
		t.Fatalf("Restart of a running site: err %v, up %v, same incarnation %v", err, s1.Up(), s1.kernel() == first)
	}
	s1.Crash()
	corpse := s1.kernel()
	s1.Crash()
	if s1.Up() || s1.kernel() != corpse {
		t.Fatal("Crash of a down site changed something")
	}
}
