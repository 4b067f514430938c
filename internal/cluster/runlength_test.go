package cluster_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

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
// transaction costs the host the same allocations after six thousand
// predecessors as after none, because nothing a finished transaction
// touched is still in any site's tables.  Each window is two thousand
// transactions long, so a 4 KiB name chunk more or less in one of them
// (seven name buffers take part) moves it by under 2%, and the race
// detector's random pool drops average out.
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
	const quarter = 1000
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
	t.Logf("per txn: first quarter %.2f allocs %.0f B, last quarter %.2f allocs %.0f B", firstAllocs, firstBytes, lastAllocs, lastBytes)
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

// TestLocalTransferAllocationBudget pins local_transfer's shape: two
// clients at one site, each moving money between two accounts on its own
// page, so each transaction queues behind its predecessor's asynchronous
// phase two, which still holds the accounts' locks.  The lock list reuses
// its descriptors and wait records, so neither the grants nor the wait
// allocate, and the transaction's id, group name and log keys are cut
// from chunks their owners keep; at about 13 allocations per transaction
// the lock list still allocated, and at 8 each name was a string of its
// own.
func TestLocalTransferAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	// The ledger's PaperExact preset: unlike a scenario.Spec without
	// faults, phase two runs asynchronously.
	m, clk := costmodel.Vax750(), vtime.NewVirtual()
	sys := core.NewSystem(cluster.Config{Clock: clk, DiskSyncDelay: m.DiskWriteTime, Net: simnet.Config{Latency: m.MsgTime}})
	t.Cleanup(sys.Cluster().Shutdown)
	sys.AddSite(1)
	if err := sys.AddVolume(1, "v1"); err != nil {
		t.Fatal(err)
	}
	setup, _ := client(t, sys, 1)
	f, err := setup.Create("v1/accounts")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 2048), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	type teller struct {
		p      *core.Process
		f      *core.File
		page   int64
		amount []byte
	}
	var clients []*teller
	for c := int64(0); c < 2; c++ {
		p, files := client(t, sys, 1, "v1/accounts")
		clients = append(clients, &teller{p: p, f: files[0], page: 1024 * c, amount: make([]byte, 8)})
	}
	transfer := func(a *teller) error {
		a.amount[0]++
		if _, err := a.p.BeginTrans(); err != nil {
			return err
		}
		for _, off := range []int64{a.page, a.page + 8} {
			if err := a.f.LockRange(off, 8, core.Exclusive); err != nil {
				return err
			}
			if _, err := a.f.WriteAt(a.amount, off); err != nil {
				return err
			}
		}
		return a.p.EndTrans()
	}
	drive := func(n int) { // both clients at once, then every phase two
		g := vtime.NewGroup(clk)
		for _, a := range clients {
			g.Go(func() {
				for i := 0; i < n; i++ {
					if err := transfer(a); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		g.Wait()
		clk.WaitIdle()
	}
	drive(32) // fill caches, grow tables to their working size
	const runs, budget = 500, 5
	st := sys.Stats()
	before := st.Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(runs)
	runtime.ReadMemStats(&m1)
	got := float64(m1.Mallocs-m0.Mallocs) / (2 * runs)
	waits := st.Snapshot().Sub(before).Get(stats.LockWaits)
	t.Logf("%.2f allocations per local transfer, %d lock waits", got, waits)
	if waits < runs {
		t.Fatalf("%d lock waits in %d transactions: the clients did not queue behind phase two", waits, 2*runs)
	}
	if got > budget {
		t.Errorf("a local transfer allocates %.2f times, budget %d", got, budget)
	}
}

// TestRemoteCommitAllocationBudget bounds what remote_2pc's transaction
// costs the host in allocations: a client at site 2 writes one record at
// each of sites 1 and 3, so site 2 coordinates two remote participants.
// The parallel prepare and commit sends run on reused actor workers with
// no closure or join group per send, each site names the transaction
// once, the requester's lock cache refills a kept slice, log records are
// encoded in a pooled buffer and a site's name-sorted volume list is kept,
// not rebuilt, the record commit path reuses its page states, inode and
// prepare payload, a call runs inline with no delivery goroutine, and each
// role keeps one record per transaction (the coordinator's, the
// participants', the requester's) with no copies or closures beside it,
// and the names they keep (id, group names, log keys) are cut from
// chunks; at 132 allocations per transaction none of that was so, at 88
// the log buffer and volume list were not, at 74 the commit path was not,
// at 54 each remote call still moved its fault draws to the heap, at 38
// the roles still cloned their lists and bound their fan-outs in
// closures, and at 12 each name was a string of its own.
func TestRemoteCommitAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	sys := threeSites(t)
	p, files := client(t, sys, 2, "v1/f", "v3/f")
	rec := make([]byte, 8)
	txn := func() {
		rec[0]++
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if _, err := f.WriteAt(rec, int64(rec[0]%16)*8); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.EndTrans(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // fill caches, grow tables to their working size
		txn()
	}
	const budget = 8
	got := testing.AllocsPerRun(500, txn)
	t.Logf("%.1f allocations per remote transaction", got)
	if got > budget {
		t.Errorf("a remote two-participant commit allocates %.1f times, budget %d", got, budget)
	}
}

// TestTunedCommitAllocationBudget pins the cost of a commit with every
// optional layer on (the ledger's Tuned preset), in the shape that made
// skew_tuned twice as costly as any other workload: a writer at site 2 of
// a file stored at site 1, so every commit at site 1 finds site 2 dominant
// and tries to move the file there, and site 2's own lease on the file
// refuses the move's quiesce lock.  The refusal is counted (one lock
// denial per transaction, no move) and must cost no allocation; group
// commit's request, channel and batch arrays are reused; a lease grant
// allocates only its entry; the transaction's names are cut from chunks
// (at 6 allocations per transaction each was a string of its own).
func TestTunedCommitAllocationBudget(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	m := costmodel.Vax750()
	sys, err := scenario.Spec{
		// Placement at the policy's defaults, as Tuned runs it.
		Config:  cluster.Config{GroupCommitMaxDelay: m.DiskWriteTime, FastPaths: true, LockLeases: true, AdaptivePlacement: true},
		Volumes: scenario.PerSite(3),
	}.At(m).Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Cluster().Shutdown)
	creator, _ := client(t, sys, 1)
	f, err := creator.Create("v1/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, files := client(t, sys, 2, "v1/f")
	rec := make([]byte, 8)
	txn := func() {
		rec[0]++
		if _, err := p.BeginTrans(); err != nil {
			t.Fatal(err)
		}
		if _, err := files[0].WriteAt(rec, int64(rec[0]%16)*8); err != nil {
			t.Fatal(err)
		}
		if err := p.EndTrans(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ { // fill caches, grow tables to their working size
		txn()
	}
	st := sys.Stats()
	before := st.Snapshot()
	const runs, budget = 500, 4
	got := testing.AllocsPerRun(runs, txn)
	d := st.Snapshot().Sub(before)
	t.Logf("%.1f allocations per Tuned remote transaction", got)
	if n := d.Get(stats.OwnerMoves); n != 0 {
		t.Fatalf("%d owner moves: the writer's lease should refuse every quiesce", n)
	}
	if n := d.Get(stats.LockDenials); n < runs {
		t.Fatalf("%d lock denials in %d transactions: the move was not attempted after each commit", n, runs+1)
	}
	if got > budget {
		t.Errorf("a Tuned remote commit allocates %.1f times, budget %d", got, budget)
	}
}
