package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// warmupShare is the fraction of a run's transaction count executed
// before the measured window so caches, lock lists and lazily allocated
// structures settle.
const warmupShare = 0.01

// windows is how many times a run sets the workload up and measures it:
// every window builds a fresh system, warms it up and executes the same
// plan, so the windows of a run are identical work a couple of seconds
// apart.  Counts and simulated time are summed over the windows, setup_s
// is the median of the set-ups, and the two host-time metrics come from
// the fastest window: on a shared host interference comes in bursts of
// seconds and only ever slows a window down, so the fastest one is the
// least disturbed measurement of the program.
const windows = 5

// setupsPerWindow is how many times each window's system is set up and the
// set-up timed; the last one built is the one measured.  setup_s is thus the
// median of windows*setupsPerWindow set-ups spread over the whole run.
const setupsPerWindow = 3

// client is one client process with its open handles and its plan.
type client struct {
	p     *core.Process
	files []*core.File // by workload file index; nil where the plan never goes
	plan  *clientPlan
	buf   []byte
	// last holds the stamp of every record this client committed a write
	// to, keyed by file<<32|off.
	last map[uint64]uint64
	// Measured-window results.
	latNS     []int64 // simulated BeginTrans -> EndTrans return, committed txns
	committed int
	failed    int
	badReads  int
	spans     *spanLog
}

// env is one built system ready to measure.
type env struct {
	w       *workload
	sys     *core.System
	clk     *vtime.Virtual
	clients []*client
}

// buildEnv builds the cluster, creates and syncs the files, opens every
// handle the plans need and runs the warm-up.  This is the work setup_s
// times.
func buildEnv(w *workload, plans []*clientPlan, warm int, traced bool) (*env, error) {
	clk := vtime.NewVirtual()
	cfg := w.preset(clk)
	e := &env{w: w, clk: clk}
	if traced {
		cfg.Trace = trace.NewCollector(0)
	}
	e.sys = core.NewSystem(cfg)
	for s := 1; s <= w.sites; s++ {
		e.sys.AddSite(simnet.SiteID(s))
	}
	for s := 1; s <= w.sites; s++ {
		if err := e.sys.AddVolume(simnet.SiteID(s), fmt.Sprintf("v%d", s)); err != nil {
			return nil, err
		}
	}
	if traced {
		e.sys.Stats().Registry().EnableProfiling()
	}
	setup, err := e.sys.NewProcess(1)
	if err != nil {
		return nil, err
	}
	for _, fsp := range w.files {
		f, err := setup.Create(fsp.path)
		if err != nil {
			return nil, fmt.Errorf("create %s: %w", fsp.path, err)
		}
		if _, err := f.WriteAt(make([]byte, fsp.size), 0); err != nil {
			return nil, fmt.Errorf("zero %s: %w", fsp.path, err)
		}
		if err := f.Sync(); err != nil {
			return nil, fmt.Errorf("sync %s: %w", fsp.path, err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("close %s: %w", fsp.path, err)
		}
	}
	for c, site := range w.clients {
		p, err := e.sys.NewProcess(site)
		if err != nil {
			return nil, err
		}
		cl := &client{
			p:     p,
			files: make([]*core.File, len(w.files)),
			plan:  plans[c],
			buf:   make([]byte, w.recSize),
			last:  make(map[uint64]uint64),
		}
		for _, o := range cl.plan.ops {
			if cl.files[o.file] == nil {
				if cl.files[o.file], err = p.Open(w.files[o.file].path); err != nil {
					return nil, fmt.Errorf("open %s: %w", w.files[o.file].path, err)
				}
			}
		}
		e.clients = append(e.clients, cl)
	}
	e.drive(0, warm)
	e.clk.WaitIdle() // let the warm-up's background phase two finish outside the window
	for _, cl := range e.clients {
		if cl.failed > 0 {
			return nil, fmt.Errorf("%d of %d warm-up transactions failed", cl.failed, warm)
		}
		cl.committed = 0
	}
	return e, nil
}

// drive runs transactions [from, to) of every client's plan: each client
// on its own goroutine, or, for a serial workload, all of them in turn on
// one.  The calling goroutine parks on the virtual clock meanwhile.
func (e *env) drive(from, to int) {
	g := vtime.NewGroup(e.clk)
	if e.w.serial {
		g.Go(func() {
			for i := from; i < to; i++ {
				for _, cl := range e.clients {
					cl.runTxn(e.clk, i)
				}
			}
		})
	} else {
		for _, cl := range e.clients {
			cl := cl
			g.Go(func() {
				for i := from; i < to; i++ {
					cl.runTxn(e.clk, i)
				}
			})
		}
	}
	g.Wait()
}

// runTxn executes transaction i of the client's plan.  Any failing call
// aborts the transaction and counts it failed; the loop goes on.
func (cl *client) runTxn(clk *vtime.Virtual, i int) {
	ops := cl.plan.ops[cl.plan.bounds[i]:cl.plan.bounds[i+1]]
	sp := cl.spans // nil unless traced: every span call is then one nil check
	t0 := clk.Now()
	txnSpan := sp.begin(spanTxn, i, clk)
	s := sp.begin(spanBegin, i, clk)
	_, err := cl.p.BeginTrans()
	sp.end(s, clk)
	if err != nil {
		cl.failed++
		sp.end(txnSpan, clk)
		return
	}
	for _, o := range ops {
		f := cl.files[o.file]
		switch o.kind {
		case opLockShared, opLockExclusive:
			mode := core.Shared
			if o.kind == opLockExclusive {
				mode = core.Exclusive
			}
			s = sp.begin(spanLock, i, clk)
			err = f.LockRange(int64(o.off), int64(len(cl.buf)), mode)
			sp.end(s, clk)
		case opRead:
			s = sp.begin(spanRead, i, clk)
			_, err = f.ReadAt(cl.buf, int64(o.off))
			sp.end(s, clk)
			if err == nil && !cl.readOK(o) {
				cl.badReads++
			}
		case opWrite:
			fillRecord(cl.buf, o.val)
			s = sp.begin(spanWrite, i, clk)
			_, err = f.WriteAt(cl.buf, int64(o.off))
			sp.end(s, clk)
		}
		if err != nil {
			break
		}
	}
	if err != nil {
		cl.p.AbortTrans() //nolint:errcheck // already counting the transaction as failed
		cl.failed++
		sp.end(txnSpan, clk)
		return
	}
	s = sp.begin(spanCommit, i, clk)
	err = cl.p.EndTrans()
	sp.end(s, clk)
	sp.end(txnSpan, clk)
	if err != nil {
		cl.failed++
		return
	}
	cl.committed++
	if cl.latNS != nil {
		cl.latNS = append(cl.latNS, int64(clk.Now().Sub(t0)))
	}
	for _, o := range ops {
		if o.kind == opWrite {
			cl.last[uint64(o.file)<<32|uint64(o.off)] = o.val
		}
	}
}

// readOK checks a record just read under a Shared lock: it must be one
// stamp repeated (or still zero), and where this client is the record's
// only writer it must be the value the client last committed.
func (cl *client) readOK(o op) bool {
	val, ok := recordStamp(cl.buf)
	if !ok {
		return false
	}
	if want, mine := cl.last[uint64(o.file)<<32|uint64(o.off)]; mine {
		return val == want
	}
	return true
}

// runResult is everything one run of one workload measured.
type runResult struct {
	Attempted int
	Committed int
	Failed    int
	Correct   bool
	Problems  []string
	P99Beyond int     // committed transactions slower than the reported p99
	HostRate  float64 // committed txns per wall second of the fastest window, traced or not
	Metrics   map[string]float64
	spans     []*spanLog // traced runs only: the last window's
}

// plansFor generates every client's plan for a window of txns measured
// transactions (plus warm-up) from the seed.
func plansFor(w *workload, txns int, seed int64) (plans []*clientPlan, warm, perClient int) {
	perClient = txns / len(w.clients)
	if perClient < 1 {
		perClient = 1
	}
	warm = int(warmupShare*float64(perClient) + 0.5)
	if warm < 1 {
		warm = 1
	}
	for c := range w.clients {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		plans = append(plans, w.gen(rng, c, warm+perClient))
	}
	return plans, warm, perClient
}

// window is what one measured window on one freshly built system yielded.
type window struct {
	wall, cpu, sim    time.Duration
	committed, failed int
	mallocs, bytes    uint64 // allocated during the window
	liveHeap          uint64 // HeapAlloc after a forced GC at window end
	counts            stats.Snapshot
	problems          []string
	profile           *telemetry.ProfileReport // traced windows only
	spans             []*spanLog               // traced windows only
}

// measure runs transactions [warm, warm+perClient) of every client's plan,
// appending the committed ones' simulated latencies to lats, then verifies
// what the clients wrote.
func (e *env) measure(warm, perClient int, traced bool, lats *[]int64) *window {
	for _, cl := range e.clients {
		cl.latNS = make([]int64, 0, perClient)
		if traced {
			opsInWindow := int(cl.plan.bounds[warm+perClient] - cl.plan.bounds[warm])
			cl.spans = newSpanLog(opsInWindow + 3*perClient)
		}
	}
	runtime.GC()
	var ms0, ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	statsBefore := e.sys.Stats().Snapshot()
	cpu0 := processCPU()
	sim0 := e.clk.Now()
	wall0 := time.Now()

	e.drive(warm, warm+perClient)
	win := &window{sim: e.clk.Now().Sub(sim0)}
	e.clk.WaitIdle() // background phase two and cleanup are part of the cost

	win.wall = time.Since(wall0)
	win.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	win.counts = e.sys.Stats().Snapshot().Sub(statsBefore)
	runtime.GC()
	runtime.ReadMemStats(&ms2)
	win.mallocs, win.bytes, win.liveHeap = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc, ms2.HeapAlloc

	for _, cl := range e.clients {
		win.committed += cl.committed
		win.failed += cl.failed
		*lats = append(*lats, cl.latNS...)
		if cl.badReads > 0 {
			win.problems = append(win.problems, fmt.Sprintf("%d reads returned a torn or stale record", cl.badReads))
		}
		win.spans = append(win.spans, cl.spans)
	}
	if got := int(win.counts.Get(stats.TxnCommits)); got != win.committed {
		win.problems = append(win.problems, fmt.Sprintf("clients committed %d, registry txn_commits says %d", win.committed, got))
	}
	if got := int(win.counts.Get(stats.TxnAborts)); got != win.failed {
		win.problems = append(win.problems, fmt.Sprintf("clients saw %d failures, registry txn_aborts says %d", win.failed, got))
	}
	if attempted := perClient * len(e.clients); win.committed+win.failed != attempted {
		win.problems = append(win.problems, fmt.Sprintf("committed %d + failed %d != attempted %d", win.committed, win.failed, attempted))
	}
	win.problems = append(win.problems, e.readBack()...)
	if traced {
		win.profile = e.sys.Stats().Registry().Profiler().Report()
	}
	return win
}

// runWorkload measures txns transactions of the workload in `windows`
// windows, each on a system it sets up afresh, and verifies what every
// window wrote.  With traced set it measures with every instrument on and
// reports the per-layer metrics; otherwise the end-to-end ones.
func runWorkload(w *workload, txns int, seed int64, traced bool) (*runResult, error) {
	plans, warm, perClient := plansFor(w, txns/windows, seed)

	var cpuProf bytes.Buffer
	var memBefore map[string]float64
	if traced {
		memBefore = allocBytesByPackage()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		defer pprof.StopCPUProfile() // a no-op after the explicit stop below
	}

	res := &runResult{Attempted: windows * perClient * len(w.clients), Metrics: map[string]float64{}}
	lats := make([]int64, 0, res.Attempted)
	setups := make([]float64, 0, windows*setupsPerWindow)
	var last *window
	var counts stats.Snapshot
	var spanSum spanTotals
	var sim time.Duration
	var mallocs, allocated uint64
	cpuUS := math.Inf(1) // CPU microseconds per committed transaction, lowest window
	for i := 0; i < windows; i++ {
		var e *env
		for j := 0; j < setupsPerWindow; j++ {
			if e != nil {
				e.sys.Cluster().Shutdown()
			}
			t0 := time.Now()
			var err error
			if e, err = buildEnv(w, plans, warm, traced); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		win := e.measure(warm, perClient, traced, &lats)
		e.sys.Cluster().Shutdown()
		last = win

		res.Committed += win.committed
		res.Failed += win.failed
		for _, p := range win.problems {
			res.Problems = append(res.Problems, fmt.Sprintf("window %d: %s", i+1, p))
		}
		counts = counts.Add(win.counts)
		sim += win.sim
		mallocs += win.mallocs
		allocated += win.bytes
		spanSum.add(win.spans)
		if win.committed == 0 {
			return res, fmt.Errorf("%s: no transaction committed", w.name)
		}
		res.HostRate = max(res.HostRate, float64(win.committed)/win.wall.Seconds())
		cpuUS = min(cpuUS, win.cpu.Seconds()*1e6/float64(win.committed))
	}
	if traced {
		pprof.StopCPUProfile()
	}
	res.Correct = len(res.Problems) == 0
	res.spans = last.spans

	n := float64(res.Committed)
	m := res.Metrics
	if !traced {
		sort.Float64s(setups)
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		p99 := int(0.99 * float64(len(lats)-1))
		res.P99Beyond = len(lats) - 1 - p99
		m["host_txn_per_s"] = res.HostRate
		m["host_cpu_us_per_txn"] = cpuUS
		m["host_allocs_per_txn"] = float64(mallocs) / n
		m["host_bytes_per_txn"] = float64(allocated) / n
		m["host_live_heap_mb"] = float64(last.liveHeap) / (1 << 20)
		m["setup_s"] = setups[len(setups)/2]
		m["sim_txn_per_s"] = n / sim.Seconds()
		m["sim_commit_ms_p50"] = float64(lats[len(lats)/2]) / 1e6
		m["sim_commit_ms_p99"] = float64(lats[p99]) / 1e6
		m["forced_ios_per_txn"] = float64(counts.Get(stats.ForcedIOs)) / n
		m["msgs_and_forces_per_txn"] = float64(counts.Get(stats.MsgsSent)+counts.Get(stats.ForcedIOs)) / n
		m["txn_commit_share"] = n / float64(res.Attempted)
		return res, nil
	}

	m["telemetry.traced_live_heap_mb"] = float64(last.liveHeap) / (1 << 20)
	countMetrics(m, counts, n)
	simShares(m, last.profile)
	spanSum.metrics(m)
	if err := cpuShares(m, cpuProf.Bytes()); err != nil {
		return nil, err
	}
	allocShares(m, memBefore, allocBytesByPackage())
	return res, nil
}

// readBack opens every file from a fresh process and compares it with the
// image the clients' committed writes should have left: zeros, overlaid
// with the last committed stamp of every record.
func (e *env) readBack() []string {
	var problems []string
	p, err := e.sys.NewProcess(1)
	if err != nil {
		return []string{"read-back: " + err.Error()}
	}
	for fi, fsp := range e.w.files {
		want := make([]byte, fsp.size)
		for _, cl := range e.clients {
			for key, val := range cl.last {
				if int(key>>32) == fi {
					off := int(uint32(key))
					fillRecord(want[off:off+e.w.recSize], val)
				}
			}
		}
		f, err := p.Open(fsp.path)
		if err != nil {
			problems = append(problems, fmt.Sprintf("read-back open %s: %v", fsp.path, err))
			continue
		}
		got := make([]byte, fsp.size)
		if n, err := f.ReadAt(got, 0); err != nil || n != fsp.size {
			problems = append(problems, fmt.Sprintf("read-back %s: read %d of %d bytes: %v", fsp.path, n, fsp.size, err))
		} else if !bytes.Equal(got, want) {
			bad := 0
			for off := 0; off < fsp.size; off += e.w.recSize {
				if !bytes.Equal(got[off:off+e.w.recSize], want[off:off+e.w.recSize]) {
					bad++
				}
			}
			problems = append(problems, fmt.Sprintf("read-back %s: %d records differ from the last committed value", fsp.path, bad))
		}
		if err := f.Close(); err != nil {
			problems = append(problems, fmt.Sprintf("read-back close %s: %v", fsp.path, err))
		}
	}
	return problems
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countMetrics derives the per-layer counts per committed transaction from
// the stats delta of the measured window.
func countMetrics(m map[string]float64, d stats.Snapshot, n float64) {
	per := func(c stats.Counter) float64 { return float64(d.Get(c)) / n }
	share := func(part, rest stats.Counter) float64 {
		if tot := d.Get(part) + d.Get(rest); tot > 0 {
			return float64(d.Get(part)) / float64(tot)
		}
		return 0
	}
	m["simnet.rpcs_per_txn"] = per(stats.RPCs)
	m["simnet.msgs_per_txn"] = per(stats.MsgsSent)
	m["simnet.bytes_per_txn"] = per(stats.BytesSent)
	m["simdisk.reads_per_txn"] = per(stats.DiskReads)
	m["simdisk.writes_per_txn"] = per(stats.DiskWrites)
	m["fs.coord_log_writes_per_txn"] = per(stats.CoordLogWrites)
	m["fs.prepare_log_writes_per_txn"] = per(stats.PrepareLogWrites)
	m["fs.records_per_batch"] = 0
	if b := d.Get(stats.GroupCommitBatches); b > 0 {
		m["fs.records_per_batch"] = float64(d.Get(stats.GroupCommitRecords)) / float64(b)
	}
	m["shadow.page_commits_per_txn"] = per(stats.PageCommits)
	m["shadow.page_diffs_per_txn"] = per(stats.PageDiffs)
	m["shadow.bytes_copied_per_txn"] = per(stats.BytesCopied)
	m["lockmgr.acquires_per_txn"] = per(stats.LockAcquires)
	m["lockmgr.waits_per_txn"] = per(stats.LockWaits)
	m["lockmgr.denials_per_txn"] = per(stats.LockDenials)
	m["cluster.lock_cache_hit_share"] = share(stats.LockCacheHits, stats.LockCacheMisses)
	m["cluster.lock_msgs_per_txn"] = per(stats.LockMsgs)
	m["cluster.lease_hit_share"] = share(stats.LeaseHits, stats.LockMsgs)
	m["cluster.lease_revokes_per_txn"] = per(stats.LeaseRevokes)
	m["cluster.instructions_per_txn"] = per(stats.Instructions)
	m["tpc.read_only_votes_per_txn"] = per(stats.ReadOnlyVotes)
	m["tpc.one_phase_share"] = per(stats.OnePhaseCommits)
	m["placement.local_commit_share"] = per(stats.LocalCommits)
	m["placement.remote_participants_per_txn"] = per(stats.RemoteParticipants)
	m["placement.owner_moves"] = float64(d.Get(stats.OwnerMoves))
	m["placement.proc_migrations"] = float64(d.Get(stats.PlacementMigrations))
}

// simShareResources maps the profiler's resource names to the metric
// suffixes; every resource the profiler can report is here, so the
// shares sum to one.
var simShareResources = map[string]string{
	telemetry.ResDataFlush:      "data_flush",
	telemetry.ResPrepareForce:   "prepare_force",
	telemetry.ResCoordLog:       "coord_log",
	telemetry.ResPhase2Apply:    "phase2_apply",
	telemetry.ResOnePhaseApply:  "onephase_apply",
	telemetry.ResLockWait:       "lock_wait",
	telemetry.ResNetworkTransit: "network_transit",
	telemetry.ResCoordQueue:     "coord_queue",
	telemetry.ResStoreQueue:     "store_queue",
	telemetry.ResUnattributed:   "unattributed",
}

// simShares reports each resource's share of the simulated commit latency
// the profiler attributed.  The denominator is the sum over resources,
// which equals the summed latency except where a parallel prepare fan-out
// over-claims (both participants' forces overlap in time); normalising by
// the sum keeps the shares adding to one there too.
func simShares(m map[string]float64, r *telemetry.ProfileReport) {
	var total float64
	for _, s := range r.Resources {
		total += float64(s.TotalNS)
	}
	for _, suffix := range simShareResources {
		m["sim_share."+suffix] = 0
	}
	for _, s := range r.Resources {
		suffix, ok := simShareResources[s.Resource]
		if !ok {
			suffix = "unattributed"
		}
		if total > 0 {
			m["sim_share."+suffix] += float64(s.TotalNS) / total
		}
	}
}
