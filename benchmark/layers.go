package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tpc"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// layerBench is one steady-state micro-benchmark of a layer's public API.
// setup builds everything the timed loop needs and returns the operation;
// only calls of op are timed.  Disk-backed layers run on a virtual clock
// at the VAX sync delay, so every force includes the park/wake it costs in
// the workloads (vtime.sleep_ns says how much of that is the clock's).
type layerBench struct {
	name   string // reported as <name>_ns
	allocs bool   // also report <name>_allocs per op
	batch  int    // ops between clock reads
	setup  func() (op func(), done func())
}

// runLayers runs every layer benchmark for about per each and returns the
// layers section: ns (and, where named, heap allocations) per operation.
func runLayers(per time.Duration) map[string]float64 {
	m := map[string]float64{}
	for _, b := range layerBenches {
		op, done := b.setup()
		op() // first call pays lazy allocation
		var ms0, ms1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		n := 0
		t0 := time.Now()
		for time.Since(t0) < per || n == 0 {
			for i := 0; i < b.batch; i++ {
				op()
			}
			n += b.batch
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if done != nil {
			done()
		}
		m[b.name+"_ns"] = float64(elapsed.Nanoseconds()) / float64(n)
		if b.allocs {
			m[b.name+"_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
		}
	}
	return m
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("benchmark: layer set-up: %v", err))
	}
}

// benchVolume formats a volume on a fresh disk driven by a new virtual
// clock at the VAX sync delay.
func benchVolume() (*vtime.Virtual, *fs.Volume) {
	clk := vtime.NewVirtual()
	d := simdisk.New("bench", 512, pageSize, stats.NewSet())
	d.SetClock(clk)
	d.SetSyncDelay(diskSyncDelay)
	v, err := fs.Format("bench", d, fs.Options{})
	must(err)
	v.SetClock(clk)
	return clk, v
}

// benchFile opens a fresh file of two committed pages on a benchVolume.
func benchFile() *shadow.File {
	_, v := benchVolume()
	ino, err := v.AllocInode()
	must(err)
	f, err := shadow.Open(v, ino)
	must(err)
	_, err = f.WriteAt("init", make([]byte, 2*pageSize), 0)
	must(err)
	must(f.Commit("init"))
	return f
}

// benchLocks returns a lock list holding `others` non-conflicting 8-byte
// exclusive locks of other transactions, from offset 1024 up.
func benchLocks(others int) *lockmgr.FileLocks {
	fl := lockmgr.NewFileLocks("bench/1", nil, stats.NewSet())
	for i := 0; i < others; i++ {
		h := lockmgr.Holder{PID: 100 + i, Txn: fmt.Sprintf("other%d", i)}
		_, err := fl.Lock(lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Off: int64(1024 + 8*i), Len: 8})
		must(err)
	}
	return fl
}

func lockUnlock(fl *lockmgr.FileLocks) func() {
	h := lockmgr.Holder{PID: 1}
	req := lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Off: 0, Len: 8}
	return func() {
		_, err := fl.Lock(req)
		must(err)
		_, err = fl.Unlock(h, 0, 8)
		must(err)
	}
}

// echoNet builds a two-site network on a virtual clock with an echo
// handler at site 2 and returns site 1's endpoint.
func echoNet(latency time.Duration) *simnet.Endpoint {
	net := simnet.New(simnet.Config{Latency: latency, Clock: vtime.NewVirtual()}, stats.NewSet())
	from := net.AddSite(1)
	net.AddSite(2).Handle("echo", func(_ simnet.SiteID, req any) (any, error) { return req, nil })
	return from
}

func echoCall(from *simnet.Endpoint) func() {
	return func() {
		_, err := from.Call(2, "echo", 7)
		must(err)
	}
}

// stubTransport is a tpc.Transport whose participants agree at once.
type stubTransport struct{}

func (stubTransport) SendPrepare(simnet.SiteID, string, []string, simnet.SiteID) (tpc.Vote, error) {
	return tpc.VoteCommit, nil
}
func (stubTransport) SendPrepareCommit(simnet.SiteID, string, []string, simnet.SiteID) (tpc.Vote, error) {
	return tpc.VoteCommit, nil
}
func (stubTransport) SendCommit(simnet.SiteID, string) error { return nil }
func (stubTransport) SendAbort(simnet.SiteID, string) error  { return nil }

var layerBenches = []layerBench{
	{name: "vtime.sleep", batch: 256, setup: func() (func(), func()) {
		clk := vtime.NewVirtual()
		return func() { clk.Sleep(time.Millisecond) }, nil
	}},
	{name: "vtime.pingpong", batch: 256, setup: func() (func(), func()) {
		// One NotifySend/WaitRecv handoff each way between two actors.
		clk := vtime.NewVirtual()
		ping, pong := make(chan bool, 1), make(chan bool, 1)
		g := vtime.NewGroup(clk)
		g.Go(func() {
			for {
				if more, _ := vtime.WaitRecv(clk, ping, 0); !more {
					return
				}
				vtime.NotifySend(clk, pong, true)
			}
		})
		op := func() {
			vtime.NotifySend(clk, ping, true)
			vtime.WaitRecv(clk, pong, 0)
		}
		return op, func() { vtime.NotifySend(clk, ping, false); g.Wait() }
	}},
	{name: "vtime.go", batch: 256, setup: func() (func(), func()) {
		// Spawn one registered actor and join it.
		clk := vtime.NewVirtual()
		return func() {
			g := vtime.NewGroup(clk)
			g.Go(func() {})
			g.Wait()
		}, nil
	}},

	{name: "simnet.call", allocs: true, batch: 256, setup: func() (func(), func()) {
		return echoCall(echoNet(0)), nil
	}},
	{name: "simnet.call_latency", batch: 256, setup: func() (func(), func()) {
		return echoCall(echoNet(netLatency)), nil
	}},

	{name: "simdisk.write_sync", allocs: true, batch: 256, setup: func() (func(), func()) {
		_, v := benchVolume()
		page := make([]byte, pageSize)
		return func() { must(v.Disk().WritePage(200, page, simdisk.IOData, true)) }, nil
	}},
	{name: "simdisk.read", batch: 1024, setup: func() (func(), func()) {
		_, v := benchVolume()
		return func() {
			_, err := v.Disk().ReadPage(0, simdisk.IOData)
			must(err)
		}, nil
	}},
	{name: "simdisk.write_pages8", batch: 256, setup: func() (func(), func()) {
		_, v := benchVolume()
		writes := make([]simdisk.PageWrite, 8)
		for i := range writes {
			writes[i] = simdisk.PageWrite{Page: 200 + i, Data: make([]byte, pageSize), Kind: simdisk.IOData}
		}
		return func() {
			_, err := v.Disk().WritePages(writes)
			must(err)
		}, nil
	}},

	{name: "fs.log_put", allocs: true, batch: 128, setup: func() (func(), func()) {
		// One Put and one Delete of a 64-byte record, forced one by one.
		_, v := benchVolume()
		payload := make([]byte, 64)
		return func() {
			must(v.Log().Put("k", fs.KindPrepare, payload))
			must(v.Log().Delete("k"))
		}, nil
	}},
	{name: "fs.log_put_group", batch: 128, setup: func() (func(), func()) {
		// The same, with a second putter doing likewise and the group-
		// commit daemon batching both: time per putter's Put+Delete.
		clk, v := benchVolume()
		v.Log().StartGroupCommit(fs.GroupCommitConfig{MaxDelay: diskSyncDelay, Clock: clk})
		payload := make([]byte, 64)
		g := vtime.NewGroup(clk)
		op := func() {
			g.Go(func() {
				must(v.Log().Put("a", fs.KindPrepare, payload))
				must(v.Log().Delete("a"))
			})
			must(v.Log().Put("b", fs.KindPrepare, payload))
			must(v.Log().Delete("b"))
			g.Wait()
		}
		return op, v.Log().StopGroupCommit
	}},

	{name: "shadow.write_commit", allocs: true, batch: 128, setup: func() (func(), func()) {
		f := benchFile()
		rec := make([]byte, 8)
		return func() {
			_, err := f.WriteAt("a", rec, 0)
			must(err)
			must(f.Commit("a"))
		}, nil
	}},
	{name: "shadow.diff_commit", batch: 128, setup: func() (func(), func()) {
		// Two owners with records on one page: the first commit takes the
		// Fig 4(b) differencing path, the second the plain one.
		f := benchFile()
		rec := make([]byte, 8)
		return func() {
			_, err := f.WriteAt("a", rec, 0)
			must(err)
			_, err = f.WriteAt("b", rec, 64)
			must(err)
			must(f.Commit("a"))
			must(f.Commit("b"))
		}, nil
	}},
	{name: "shadow.read", batch: 1024, setup: func() (func(), func()) {
		f := benchFile()
		buf := make([]byte, 64)
		return func() {
			_, err := f.ReadAt(buf, 128)
			must(err)
		}, nil
	}},

	{name: "lockmgr.lock_unlock", allocs: true, batch: 1024, setup: func() (func(), func()) {
		return lockUnlock(benchLocks(0)), nil
	}},
	{name: "lockmgr.lock_unlock_64", batch: 1024, setup: func() (func(), func()) {
		return lockUnlock(benchLocks(64)), nil
	}},
	{name: "lockmgr.covers", batch: 1024, setup: func() (func(), func()) {
		fl := benchLocks(64)
		h := lockmgr.Holder{PID: 100, Txn: "other0"}
		return func() {
			if !fl.Covers(h, lockmgr.ModeExclusive, 1024, 8) {
				panic("benchmark: Covers lost a lock")
			}
		}, nil
	}},
	{name: "lockmgr.release_group", batch: 256, setup: func() (func(), func()) {
		// A transaction takes 8 locks and releases them as a group.
		fl := benchLocks(0)
		h := lockmgr.Holder{PID: 1, Txn: "t"}
		return func() {
			for i := int64(0); i < 8; i++ {
				_, err := fl.Lock(lockmgr.Request{Holder: h, Mode: lockmgr.ModeExclusive, Off: 8 * i, Len: 8})
				must(err)
			}
			fl.ReleaseGroup(h.Group())
		}, nil
	}},

	{name: "tpc.commit_stub", allocs: true, batch: 64, setup: func() (func(), func()) {
		// The coordinator's whole protocol, log forces included, against
		// two participants that answer at once; phase two synchronous so
		// no goroutine outlives the call.
		clk, v := benchVolume()
		c := tpc.NewCoordinator(1, v, stubTransport{}, v.Stats(), tpc.Config{SyncPhase2: true, Clock: clk})
		files := []proc.FileRef{{FileID: "va/1", StorageSite: 2}, {FileID: "vb/1", StorageSite: 3}}
		i := 0
		return func() {
			i++
			must(c.CommitTransaction(fmt.Sprintf("t%d", i), files))
		}, c.Close
	}},
	{name: "tpc.prepare_record", batch: 64, setup: func() (func(), func()) {
		_, v := benchVolume()
		rec := tpc.PrepareRecord{
			Txid: "t1", CoordSite: 1,
			Files: []tpc.PreparedFile{{FileID: "va/1", Intentions: shadow.IntentionsList{Ino: 1, NewSize: pageSize,
				Entries: []shadow.Intention{{}}}}},
			Locks: []tpc.LockInfo{{FileID: "va/1", Mode: lockmgr.ModeExclusive, Off: 0, Len: 8}},
		}
		return func() {
			must(tpc.WritePrepareRecord(v, rec, ""))
			must(tpc.DeletePrepareRecords(v, rec.Txid))
		}, nil
	}},

	{name: "trace.record", batch: 4096, setup: func() (func(), func()) {
		tr := trace.NewCollector(0).Site(1)
		return func() { tr.Record(trace.LockGrant, "t1", "va/1", 8) }, nil
	}},
	{name: "trace.record_nil", batch: 4096, setup: func() (func(), func()) {
		var tr *trace.Tracer
		return func() { tr.Record(trace.LockGrant, "t1", "va/1", 8) }, nil
	}},

	{name: "telemetry.counter_inc", batch: 4096, setup: func() (func(), func()) {
		c := telemetry.NewRegistry().Counter("bench")
		return c.Inc, nil
	}},
	{name: "telemetry.hist_observe", batch: 4096, setup: func() (func(), func()) {
		h := telemetry.NewRegistry().Histogram("bench", telemetry.DurationBuckets())
		return func() { h.Observe(int64(26 * time.Millisecond)) }, nil
	}},
	{name: "telemetry.profiler_txn", batch: 256, setup: func() (func(), func()) {
		// One transaction's worth of profiler calls.  The profiler keeps
		// every transaction until Report, so it is replaced now and then
		// to bound the benchmark's memory.
		p := telemetry.NewProfiler()
		t0 := time.Unix(0, 0)
		i := 0
		return func() {
			if i++; i%10000 == 0 {
				p = telemetry.NewProfiler()
			}
			id := fmt.Sprintf("t%d", i)
			p.TxnBegin(id, t0)
			p.Charge(id, telemetry.ResDataFlush, diskSyncDelay)
			p.Charge(id, telemetry.ResPrepareForce, diskSyncDelay)
			p.Window(id, telemetry.WinCommit, 7*diskSyncDelay)
			p.TxnEnd(id, t0.Add(7*diskSyncDelay), true)
		}, nil
	}},

	{name: "cluster.local_txn_real", allocs: true, batch: 64, setup: func() (func(), func()) {
		// local_transfer's transaction with one client on the real clock
		// and no latencies: the floor under that workload.
		sys := core.NewSystem(cluster.Config{})
		sys.AddSite(1)
		must(sys.AddVolume(1, "v1"))
		p, err := sys.NewProcess(1)
		must(err)
		f, err := p.Create("v1/accounts")
		must(err)
		_, err = f.WriteAt(make([]byte, pageSize), 0)
		must(err)
		must(f.Sync())
		rec := make([]byte, 8)
		op := func() {
			_, err := p.BeginTrans()
			must(err)
			must(f.LockRange(0, 8, core.Exclusive))
			must(f.LockRange(8, 8, core.Exclusive))
			_, err = f.WriteAt(rec, 0)
			must(err)
			_, err = f.WriteAt(rec, 8)
			must(err)
			must(p.EndTrans())
		}
		return op, sys.Cluster().Shutdown
	}},
}
