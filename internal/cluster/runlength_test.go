package cluster_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

// threeSites builds three sites on the virtual clock, one file at each.
func threeSites(t *testing.T) *core.System {
	t.Helper()
	sys, err := scenario.Spec{Volumes: scenario.PerSite(3)}.At(costmodel.Vax750()).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Shutdown)
	p, _ := client(t, sys, 1)
	for _, path := range []string{"v1/f", "v2/f", "v3/f"} {
		f, err := p.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// client starts a process at site with the given files open.
func client(t *testing.T, sys *core.System, site simnet.SiteID, paths ...string) (*core.Process, []*core.File) {
	t.Helper()
	p, err := sys.NewProcess(site)
	if err != nil {
		t.Fatal(err)
	}
	var files []*core.File
	for _, path := range paths {
		f, err := p.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return p, files
}

// cachedGroups sums the lock groups cached across the requesting sites.
func cachedGroups(sys *core.System) int {
	n := 0
	for _, id := range sys.Cluster().Sites() {
		n += sys.Cluster().Site(id).LockCacheGroups()
	}
	return n
}

// TestRequesterLockCacheDiesWithTheTransaction pins section 5.1's cache
// lifetime: whatever a transaction cached at the sites it issued requests
// from is gone when it commits, when it aborts, and - at a site only a
// forked member ran at - when that member exits.
func TestRequesterLockCacheDiesWithTheTransaction(t *testing.T) {
	sys := threeSites(t)
	p, files := client(t, sys, 1, "v2/f", "v3/f")
	write := func(f *core.File, b byte) {
		t.Helper()
		if _, err := f.WriteAt(bytes.Repeat([]byte{b}, 8), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		write(files[0], 'a')
		write(files[1], 'a')
		if n := sys.Cluster().Site(1).LockCacheGroups(); n != 1 {
			t.Fatalf("txn %d: %d groups cached at the requester mid-transaction, want 1", i, n)
		}
		if i%4 == 3 {
			if err := p.AbortTrans(); err != nil {
				t.Fatal(err)
			}
		} else if err := p.EndTrans(); err != nil {
			t.Fatal(err)
		}
		if n := cachedGroups(sys); n != 0 {
			t.Fatalf("txn %d: %d lock groups still cached after the transaction ended", i, n)
		}
	}

	// A member forked to site 3 locks a file stored at site 2: site 3 is
	// a requester and nothing else, so only the member's exit (and the
	// commit, had it stayed) can clear what it cached there.
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	write(files[1], 'p')
	child, err := p.Fork(3)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := child.Open("v2/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cf.WriteAt([]byte("memberwr"), 0); err != nil {
		t.Fatal(err)
	}
	if n := sys.Cluster().Site(3).LockCacheGroups(); n != 1 {
		t.Fatalf("%d groups cached at the member's site, want 1", n)
	}
	if err := child.Exit(); err != nil {
		t.Fatal(err)
	}
	if n := sys.Cluster().Site(3).LockCacheGroups(); n != 0 {
		t.Fatalf("%d groups cached at site 3 after its only member exited", n)
	}
	if n := sys.Cluster().Site(1).LockCacheGroups(); n != 1 {
		t.Fatalf("the member's exit dropped the top-level process's cache (%d groups at site 1)", n)
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if n := cachedGroups(sys); n != 0 {
		t.Fatalf("%d lock groups cached after the forked transaction committed", n)
	}
	got := make([]byte, 8)
	if _, err := files[0].ReadAt(got, 0); err != nil || string(got) != "memberwr" {
		t.Fatalf("member's committed write reads back %q, %v", got, err)
	}
}

// TestHostCostFlatInRunLength counts, not times, on the remote_2pc shape
// (clients at sites 2 and 3, each writing at the two other sites, so
// every site is requester and participant at once): a committed remote
// transaction costs the host the same allocations after two thousand
// predecessors as after none, because nothing a finished transaction
// touched is still in any site's tables.
func TestHostCostFlatInRunLength(t *testing.T) {
	sys := threeSites(t)
	p2, files2 := client(t, sys, 2, "v1/f", "v3/f")
	p3, files3 := client(t, sys, 3, "v1/f", "v2/f")
	seq := byte(0)
	run := func(p *core.Process, files []*core.File, off int64) {
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if _, err := f.WriteAt(bytes.Repeat([]byte{seq}, 8), off); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.EndTrans(); err != nil {
			t.Fatal(err)
		}
	}
	txn := func() { // one transaction per client
		seq++
		run(p2, files2, int64(seq%16)*8)
		run(p3, files3, 512+int64(seq%16)*8)
	}
	const quarter = 250
	measure := func() (allocs, bytesPerTxn float64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(quarter, txn)
		runtime.ReadMemStats(&after)
		return allocs / 2, float64(after.TotalAlloc-before.TotalAlloc) / (2 * (quarter + 1))
	}
	for i := 0; i < 32; i++ { // fill caches, grow tables to their working size
		txn()
	}
	firstAllocs, firstBytes := measure()
	for i := 0; i < 2*quarter; i++ {
		txn()
	}
	lastAllocs, lastBytes := measure()
	t.Logf("per txn: first quarter %.0f allocs %.0f B, last quarter %.0f allocs %.0f B", firstAllocs, firstBytes, lastAllocs, lastBytes)
	if lastAllocs > firstAllocs*1.05 {
		t.Errorf("allocations per transaction grew with run length: %.0f -> %.0f", firstAllocs, lastAllocs)
	}
	if lastBytes > firstBytes*1.05 {
		t.Errorf("bytes allocated per transaction grew with run length: %.0f -> %.0f", firstBytes, lastBytes)
	}
	if n := cachedGroups(sys); n != 0 {
		t.Errorf("%d lock groups cached after %d committed transactions", n, 2*(4*quarter+32+2))
	}
	for _, id := range sys.Cluster().Sites() {
		locks := sys.Cluster().Site(id).Locks()
		for _, file := range locks.Files() {
			if locks.Lookup(file).Held(true) {
				t.Errorf("site %v still holds locks on %s", id, file)
			}
		}
	}
}

// TestLocalTransferAllocatesNoPageImages bounds what local_transfer's
// transaction (lock two accounts on one page, write both, commit) costs
// the host in bytes.  It forces seven page writes - data flush, prepare
// record and its deletion, three coordinator-log writes, inode - and when
// every hop copied its page into a fresh buffer that alone was 25 KB;
// with one owner per page buffer no page image is allocated at all, and
// what is left is the transaction's own bookkeeping.
func TestLocalTransferAllocatesNoPageImages(t *testing.T) {
	sys, err := scenario.Spec{Volumes: scenario.PerSite(1)}.At(costmodel.Vax750()).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Shutdown)
	p, _ := client(t, sys, 1)
	f, err := p.Create("v1/accounts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 1024), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	amount := make([]byte, 8)
	txn := func() {
		amount[0]++
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		for _, off := range []int64{0, 8} {
			if err := f.LockRange(off, 8, core.Exclusive); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(amount, off); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.EndTrans(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		txn()
	}
	const runs = 500
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		txn()
	}
	runtime.ReadMemStats(&after)
	perTxn := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f B, %.0f allocations per local transfer", perTxn, float64(after.Mallocs-before.Mallocs)/runs)
	if pageSize := float64(sys.Cluster().Site(1).Volume("v1").PageSize()); perTxn > 6*pageSize {
		t.Errorf("a local transfer allocates %.0f B: more than 6 pages' worth for 7 page writes, so some hop is copying its page into a fresh buffer again", perTxn)
	}
}
