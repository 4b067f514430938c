package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// TestChaosMessageLossAtomicity runs concurrent two-site transactions
// under probabilistic message loss, then crashes and recovers the whole
// network, and finally checks the only thing that must hold: every
// transaction's pair of files is all-or-nothing - both updates committed
// with matching contents, or neither.
func TestChaosMessageLossAtomicity(t *testing.T) {
	const nTxns = 24

	sys := NewSystem(cluster.Config{
		SyncPhase2: true,
		Net: simnet.Config{
			DropRate:    0.08,
			CallTimeout: 60 * time.Millisecond,
			Seed:        0xC0FFEE,
		},
		LockWaitTimeout: 100 * time.Millisecond,
	})
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.AddSite(id)
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := sys.AddVolume(site, vol); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-create every file pair without message loss interference by
	// retrying; creation is idempotent enough for the test's purposes.
	setup, err := sys.NewProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nTxns; i++ {
		for _, vol := range []string{"va", "vb"} {
			path := fmt.Sprintf("%s/pair%02d", vol, i)
			for try := 0; try < 50; try++ {
				if err := setup.kernel().Create(path); err == nil {
					break
				}
			}
		}
	}

	// Chaos phase: concurrent transactions, each writing its marker to
	// both files of its pair.  Failures (timeouts, aborts) are expected;
	// partial commits are not.
	var wg sync.WaitGroup
	for i := 0; i < nTxns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := sys.NewProcess(simnet.SiteID(i%3 + 1))
			if err != nil {
				return
			}
			fa, err := p.Open(fmt.Sprintf("va/pair%02d", i))
			if err != nil {
				return
			}
			fb, err := p.Open(fmt.Sprintf("vb/pair%02d", i))
			if err != nil {
				return
			}
			if _, err := p.BeginTrans(); err != nil {
				return
			}
			marker := []byte(fmt.Sprintf("TXN%05d", i))
			if _, err := fa.WriteAt(marker, 0); err != nil {
				p.AbortTrans() //nolint:errcheck
				return
			}
			if _, err := fb.WriteAt(marker, 0); err != nil {
				p.AbortTrans() //nolint:errcheck
				return
			}
			p.EndTrans() //nolint:errcheck // failure = abort; chaos makes both common
		}(i)
	}
	wg.Wait()

	// Quiet the network and force full recovery: crash everything, then
	// restart; in-doubt participants resolve against recovered
	// coordinator logs (committed transactions finish phase two,
	// everything else is presumed aborted).
	sys.Cluster().Net().SetDropRate(0)
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.Cluster().Site(id).Crash()
	}
	for _, id := range []simnet.SiteID{3, 1, 2} {
		if err := sys.Cluster().Site(id).Restart(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []simnet.SiteID{1, 2, 3} {
		if n := sys.Cluster().Site(id).ResolveInDoubt(); n != 0 {
			t.Fatalf("site %v: %d in doubt after recovery", id, n)
		}
	}

	// Verify atomicity pair by pair.
	v, err := sys.NewProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	committed, aborted := 0, 0
	for i := 0; i < nTxns; i++ {
		read := func(vol string) string {
			f, err := v.Open(fmt.Sprintf("%s/pair%02d", vol, i))
			if err != nil {
				t.Fatalf("open pair %d: %v", i, err)
			}
			cs, err := f.CommittedSize()
			if err != nil {
				t.Fatal(err)
			}
			if cs == 0 {
				return ""
			}
			buf := make([]byte, cs)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			return string(buf)
		}
		a, b := read("va"), read("vb")
		if a != b {
			t.Fatalf("pair %d torn: va=%q vb=%q", i, a, b)
		}
		if a == "" {
			aborted++
		} else {
			committed++
			want := fmt.Sprintf("TXN%05d", i)
			if a != want {
				t.Fatalf("pair %d content = %q, want %q", i, a, want)
			}
		}
	}
	t.Logf("chaos outcome: %d committed, %d aborted, all pairs atomic", committed, aborted)
	if committed == 0 {
		t.Fatal("no transaction survived the chaos; drop rate too harsh for a meaningful test")
	}
}

// TestChaosSiteCrashAtomicity is the crash-flavored sibling of the
// message-loss chaos test: rounds of concurrent two-site transactions
// with a storage site crashing mid-round, recovery between rounds, and a
// final all-or-nothing audit of every pair.
func TestChaosSiteCrashAtomicity(t *testing.T) {
	const rounds = 3
	const txnsPerRound = 8

	sys := NewSystem(cluster.Config{
		SyncPhase2:      true,
		Net:             simnet.Config{CallTimeout: 80 * time.Millisecond},
		LockWaitTimeout: 100 * time.Millisecond,
	})
	for _, id := range []simnet.SiteID{1, 2, 3} {
		sys.AddSite(id)
	}
	for site, vol := range map[simnet.SiteID]string{1: "va", 2: "vb", 3: "vc"} {
		if err := sys.AddVolume(site, vol); err != nil {
			t.Fatal(err)
		}
	}
	setup, err := sys.NewProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	total := rounds * txnsPerRound
	for i := 0; i < total; i++ {
		for _, vol := range []string{"va", "vb"} {
			if err := setup.kernel().Create(fmt.Sprintf("%s/c%02d", vol, i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		victim := simnet.SiteID(round%2 + 1) // crash site 1 or 2
		var wg sync.WaitGroup
		crash := make(chan struct{})
		for j := 0; j < txnsPerRound; j++ {
			i := round*txnsPerRound + j
			wg.Add(1)
			go func(i, j int) {
				defer wg.Done()
				if j == txnsPerRound/2 {
					close(crash) // mid-round, from inside the herd
				}
				p, err := sys.NewProcess(3) // coordinator on the stable site
				if err != nil {
					return
				}
				fa, err := p.Open(fmt.Sprintf("va/c%02d", i))
				if err != nil {
					return
				}
				fb, err := p.Open(fmt.Sprintf("vb/c%02d", i))
				if err != nil {
					return
				}
				if _, err := p.BeginTrans(); err != nil {
					return
				}
				marker := []byte(fmt.Sprintf("RND%05d", i))
				if _, err := fa.WriteAt(marker, 0); err != nil {
					p.AbortTrans() //nolint:errcheck
					return
				}
				if _, err := fb.WriteAt(marker, 0); err != nil {
					p.AbortTrans() //nolint:errcheck
					return
				}
				p.EndTrans() //nolint:errcheck
			}(i, j)
		}
		go func() {
			<-crash
			sys.Cluster().Site(victim).Crash()
		}()
		wg.Wait()
		if err := sys.Cluster().Site(victim).Restart(); err != nil {
			t.Fatal(err)
		}
		for _, id := range []simnet.SiteID{1, 2, 3} {
			sys.Cluster().Site(id).ResolveInDoubt()
		}
	}

	// Audit.
	v, err := sys.NewProcess(3)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i := 0; i < total; i++ {
		read := func(vol string) string {
			f, err := v.Open(fmt.Sprintf("%s/c%02d", vol, i))
			if err != nil {
				t.Fatal(err)
			}
			cs, err := f.CommittedSize()
			if err != nil {
				t.Fatal(err)
			}
			if cs == 0 {
				return ""
			}
			buf := make([]byte, cs)
			if _, err := f.ReadAt(buf, 0); err != nil {
				t.Fatal(err)
			}
			return string(buf)
		}
		a, b := read("va"), read("vb")
		if a != b {
			t.Fatalf("pair %d torn by crash: va=%q vb=%q", i, a, b)
		}
		if a != "" {
			committed++
		}
	}
	t.Logf("crash chaos: %d/%d committed, all pairs atomic", committed, total)
}
