package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/invariant"
	"repro/internal/scenario"
	"repro/internal/shadow"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ---- E6: shadow paging vs commit logging (section 6 / [Weinstein85]) ----

// ShadowVsWALRow is one point of the access-string sweep.
type ShadowVsWALRow struct {
	Pattern    workload.Pattern `col:"pattern"`
	RecordSize int              `col:"rec size"`
	RecsPerTxn int              `col:"recs/txn"`
	// I/Os per transaction, including the WAL's amortized checkpoint.
	ShadowIO float64 `col:"shadow IO,%.2f"`
	WALIO    float64 `col:"wal IO,%.2f"`
	// Simulated commit latency per transaction.
	ShadowLatency time.Duration `col:"shadow lat,%.0fms"`
	WALLatency    time.Duration `col:"wal lat,%.0fms"`
	Winner        string        `col:"winner"`
}

// shadowVsWALConfig fixes the comparison environment.
const (
	cmpPageSize   = 1024
	cmpFilePages  = 64
	cmpTxns       = 64
	cmpCheckpoint = 16 // WAL checkpoints every N transactions
)

// ShadowVsWAL sweeps record size, records per transaction, and access
// pattern over both commit mechanisms on identical volumes, counting
// I/Os per transaction.  The paper's claim (section 6): logging wins for
// small scattered records, while shadow paging is competitive for many
// combinations of record size and placement.
func ShadowVsWAL(patterns []workload.Pattern, recordSizes []int, recsPerTxn []int) ([]ShadowVsWALRow, error) {
	var rows []ShadowVsWALRow
	for _, pat := range patterns {
		for _, rs := range recordSizes {
			for _, rpt := range recsPerTxn {
				row, err := shadowVsWALPoint(pat, rs, rpt)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func shadowVsWALPoint(pat workload.Pattern, recSize, recsPerTxn int) (ShadowVsWALRow, error) {
	fileSize := int64(cmpPageSize * cmpFilePages)
	spec := workload.Spec{
		Pattern: pat, FileSize: fileSize, RecordSize: recSize,
		Count: cmpTxns * recsPerTxn, Seed: 42,
	}
	accesses := workload.Generate(spec)

	// Shadow-paging side: single-file record commit, nothing deferred.
	shadowIO, shadowLat, err := runSide(accesses, recsPerTxn, "shadow", cmpFilePages*4+96,
		func(v *fs.Volume, ino int) (*shadow.File, error) { return shadow.Open(v, ino) },
		func(*shadow.File) error { return nil })
	if err != nil {
		return ShadowVsWALRow{}, err
	}
	// Logging side: checkpoints charge the deferred in-place writes
	// (amortized) against it.
	walIO, walLat, err := runSide(accesses, recsPerTxn, "wal", cmpFilePages*8+128,
		func(v *fs.Volume, ino int) (*wal.File, error) {
			mgr, err := wal.NewManager(v, 256)
			if err != nil {
				return nil, err
			}
			return wal.OpenFile(mgr, ino)
		},
		(*wal.File).Checkpoint)
	if err != nil {
		return ShadowVsWALRow{}, err
	}

	winner := "shadow"
	if walIO < shadowIO {
		winner = "wal"
	}
	return ShadowVsWALRow{
		Pattern: pat, RecordSize: recSize, RecsPerTxn: recsPerTxn,
		ShadowIO: shadowIO, WALIO: walIO,
		ShadowLatency: shadowLat, WALLatency: walLat,
		Winner: winner,
	}, nil
}

// commitFile is what the comparison needs of a commit mechanism's file.
type commitFile[O ~string] interface {
	WriteAt(owner O, p []byte, off int64) (int, error)
	Commit(owner O) error
}

// runSide commits each transaction's records through one commit
// mechanism on a fresh volume, returning I/Os and simulated latency per
// transaction.  checkpoint runs every cmpCheckpoint transactions, at
// the end, and whenever a circular log fills early - the forced writes
// are charged against the mechanism, as a real system would pay them.
func runSide[O ~string, F commitFile[O]](accesses []workload.Access, recsPerTxn int, name string, diskPages int,
	open func(v *fs.Volume, ino int) (F, error), checkpoint func(F) error) (float64, time.Duration, error) {
	st := stats.NewSet()
	d := simdisk.New(name, diskPages, cmpPageSize, st)
	v, err := fs.Format("cmp", d, fs.Options{NumInodes: 4, LogPages: 8})
	if err != nil {
		return 0, 0, err
	}
	ino, err := v.AllocInode()
	if err != nil {
		return 0, 0, err
	}
	f, err := open(v, ino)
	if err != nil {
		return 0, 0, err
	}
	// Preallocate the file so updates are in-place record rewrites.
	if _, err := f.WriteAt("setup", make([]byte, cmpPageSize*cmpFilePages), 0); err != nil {
		return 0, 0, err
	}
	if err := f.Commit("setup"); err != nil {
		return 0, 0, err
	}
	if err := checkpoint(f); err != nil {
		return 0, 0, err
	}

	before := st.Snapshot()
	txns := 0
	for i := 0; i < len(accesses); i += recsPerTxn {
		owner := O(fmt.Sprintf("txn:%d", txns))
		end := min(i+recsPerTxn, len(accesses))
		for j := i; j < end; j++ {
			a := accesses[j]
			if _, err := f.WriteAt(owner, workload.Payload(j, a.Len), a.Off); err != nil {
				return 0, 0, err
			}
		}
		err := f.Commit(owner)
		if errors.Is(err, wal.ErrLogWrapped) {
			if err = checkpoint(f); err == nil {
				err = f.Commit(owner)
			}
		}
		if txns++; err == nil && txns%cmpCheckpoint == 0 {
			err = checkpoint(f)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if err := checkpoint(f); err != nil {
		return 0, 0, err
	}
	diff := st.Snapshot().Sub(before)
	perTxn := diff.Scale(int64(txns))
	return float64(diff.Get(stats.DiskWrites)+diff.Get(stats.DiskReads)) / float64(txns),
		Vax.Latency(perTxn), nil
}

// ---- E7: footnote 10, prepare log granularity ----

// PrepGranRow compares per-volume and per-file prepare logs.
type PrepGranRow struct {
	FilesPerTxn    int   `col:"files/txn"`
	PerVolumeIO    int64 `col:"per volume (design)"` // step-3 writes with one record per volume
	PaperPerVolume int64 `col:"paper"`
	PerFileIO      int64 `col:"per file (1985 impl)"` // step-3 writes with the footnote-10 layout
	PaperPerFile   int64 `col:"paper"`
}

// PrepareLogGranularity measures step 3 of Figure 5 for transactions
// touching several files on one volume, in both layouts.
func PrepareLogGranularity(filesPerTxn []int) ([]PrepGranRow, error) {
	count := func(nFiles int, perFile bool) (int64, error) {
		var d stats.Snapshot
		_, err := measure(standard(cluster.Config{PerFilePrepareLogs: perFile}), nil, func(e *scenario.Env) {
			p := scenario.Must(e.Sys.NewProcess(1))
			var files []*core.File
			for i := 0; i < nFiles; i++ {
				files = append(files, scenario.Must(p.Create(fmt.Sprintf("va/f%d", i))))
			}
			d = endTrans(e, p, func() error {
				for _, f := range files {
					if _, err := f.WriteAt([]byte("update"), 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
		return d.Get(stats.PrepareLogWrites), err
	}

	var rows []PrepGranRow
	for _, n := range filesPerTxn {
		perVol, err := count(n, false)
		if err != nil {
			return nil, err
		}
		perFile, err := count(n, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, PrepGranRow{
			FilesPerTxn: n,
			PerVolumeIO: perVol, PerFileIO: perFile,
			PaperPerVolume: 1, PaperPerFile: int64(n),
		})
	}
	return rows, nil
}

// ---- E8: section 5.1, requester lock cache ablation ----

// PerOpRow is one configuration of an experiment that repeats one remote
// operation: what each repetition cost in messages and simulated latency.
type PerOpRow struct {
	Case       string        `col:"case"`
	MsgsPerOp  float64       `col:"msgs/op,%.2f"`
	SimLatency time.Duration `col:"sim latency/op,%.1fms"`
}

// perOp averages the counters d spent over ops repetitions.
func perOp(name string, d stats.Snapshot, ops int) PerOpRow {
	return PerOpRow{
		Case:       name,
		MsgsPerOp:  float64(d.Get(stats.MsgsSent)) / float64(ops),
		SimLatency: Vax.Latency(d.Scale(int64(ops))),
	}
}

// LockCacheAblation performs repeated remote transactional writes under a
// held lock, with the section 5.1 lock cache on and off.
func LockCacheAblation(opsPerRun int) ([]PerOpRow, error) {
	run := func(name string, disable bool) (PerOpRow, error) {
		var d stats.Snapshot
		_, err := measure(standard(cluster.Config{DisableLockCache: disable}), nil, func(e *scenario.Env) {
			p := scenario.Must(e.Sys.NewProcess(2)) // remote from va's storage site
			f := scenario.Must(p.Create("va/f"))
			scenario.Ok(e.Txn(p, func() error {
				if err := f.LockRange(0, 4096, core.Exclusive); err != nil {
					return err
				}
				before := e.Sys.Stats().Snapshot()
				for i := 0; i < opsPerRun; i++ {
					if _, err := f.WriteAt([]byte("rec"), int64(i*16)%4000); err != nil {
						return err
					}
				}
				d = e.Sys.Stats().Snapshot().Sub(before)
				return nil
			}))
		})
		return perOp(name, d, opsPerRun), err
	}
	return offThenOn(run, "lock cache enabled (paper design)", "lock cache disabled (ablation)")
}

// offThenOn runs an ablation's two configurations: the named switch off,
// then on.
func offThenOn[Row any](run func(name string, on bool) (Row, error), offName, onName string) ([]Row, error) {
	off, err := run(offName, false)
	if err != nil {
		return nil, err
	}
	on, err := run(onName, true)
	if err != nil {
		return nil, err
	}
	return []Row{off, on}, nil
}

// ---- E9: sections 4.3-4.4, abort and crash recovery ----

// RecoveryRow summarizes one crash scenario.
type RecoveryRow struct {
	Scenario  string `col:"scenario"`
	Outcome   string `col:"observed"`      // all-or-nothing result observed
	RecoverIO int64  `col:"recovery I/Os"` // disk I/Os spent during recovery
	Correct   bool   `col:"all-or-nothing,PASS/FAIL"`
}

// Recovery exercises the crash matrix: participant crash before prepare,
// after prepare (in doubt), and coordinator crash after the commit point,
// verifying all-or-nothing outcomes and counting recovery I/O.
func Recovery() ([]RecoveryRow, error) {
	var rows []RecoveryRow
	// scenarioRow runs fn on a fresh cluster and records its row.
	scenarioRow := func(fn func(e *scenario.Env) RecoveryRow) error {
		_, err := measure(standard(cluster.Config{}), nil, func(e *scenario.Env) { rows = append(rows, fn(e)) })
		return err
	}
	// write runs a transaction from site that writes data to a fresh
	// path; strike lands after the write and before EndTrans.
	write := func(e *scenario.Env, site simnet.SiteID, path, data string, strike func()) error {
		p := scenario.Must(e.Sys.NewProcess(site))
		f := scenario.Must(p.Create(path))
		return e.Txn(p, func() error {
			_, err := f.WriteAt([]byte(data), 0)
			strike()
			return err
		})
	}
	// committed reads back what path holds, from its storage site.
	committed := func(e *scenario.Env, site simnet.SiteID, path string) string {
		return string(scenario.Must(invariant.ReadCommitted(e.Sys, site, path)))
	}

	// Scenario 1: participant crashes before the transaction commits.
	err := scenarioRow(func(e *scenario.Env) RecoveryRow {
		endErr := write(e, 3, "va/f", "lost", e.Sys.Cluster().Site(1).Crash)
		rio := restartIO(e.Sys)
		got := committed(e, 1, "va/f")
		return RecoveryRow{
			Scenario:  "participant crash before prepare",
			Outcome:   fmt.Sprintf("EndTrans=%v committed=%dB", endErr != nil, len(got)),
			RecoverIO: rio,
			Correct:   endErr != nil && got == "",
		}
	})
	if err != nil {
		return nil, err
	}

	// Scenario 2: the transaction commits, then the participant crashes:
	// a clean-restart recovery pass must keep the committed data.
	err = scenarioRow(func(e *scenario.Env) RecoveryRow {
		scenario.Ok(write(e, 3, "va/f", "kept", func() {}))
		e.Sys.Cluster().Site(1).Crash()
		rio := restartIO(e.Sys)
		got := committed(e, 1, "va/f")
		return RecoveryRow{
			Scenario:  "committed data across participant crash",
			Outcome:   fmt.Sprintf("read=%q", got),
			RecoverIO: rio,
			Correct:   got == "kept",
		}
	})
	if err != nil {
		return nil, err
	}

	// Scenario 3: partition mid-transaction aborts it everywhere.
	err = scenarioRow(func(e *scenario.Env) RecoveryRow {
		net := e.Sys.Cluster().Net()
		endErr := write(e, 1, "vb/f", "cut", func() { net.Partition(2) })
		net.Heal()
		got := committed(e, 2, "vb/f")
		return RecoveryRow{
			Scenario: "partition during transaction",
			Outcome:  fmt.Sprintf("EndTrans=%v committed=%dB", endErr != nil, len(got)),
			Correct:  endErr != nil && got == "",
		}
	})
	return rows, err
}

// restartIO restarts crashed site 1 and returns the disk I/Os its
// recovery pass spent.
func restartIO(sys *core.System) int64 {
	before := sys.Stats().Snapshot()
	scenario.Ok(sys.Cluster().Site(1).Restart())
	d := sys.Stats().Snapshot().Sub(before)
	return d.Get(stats.DiskWrites) + d.Get(stats.DiskReads)
}

// ---- E10: section 5.2, replication with a primary update site ----

// ReplicaLocality measures read cost from a non-primary site, without a
// replica (every read is a round trip) and with one (reads served by the
// closest available storage site, section 5.2).
func ReplicaLocality(readsPerRun int) ([]PerOpRow, error) {
	run := func(name string, replicate bool) (PerOpRow, error) {
		var fr *core.File
		d, err := measure(standard(cluster.Config{}), func(e *scenario.Env) {
			scenario.Ok(baseFile(scenario.Must(e.Sys.NewProcess(1)), "va/shared", 4096).Close())
			if replicate {
				scenario.Ok(e.Sys.AddReplica("va", 2))
			}
			_, files, err := e.Open(2, "va/shared")
			scenario.Ok(err)
			fr = files[0]
		}, func(*scenario.Env) {
			buf := make([]byte, 128)
			for i := 0; i < readsPerRun; i++ {
				scenario.Must(fr.ReadAt(buf, int64(i*128)%3968))
			}
		})
		return perOp(name, d, readsPerRun), err
	}
	return offThenOn(run, "no replica (reads cross the network)", "local replica (closest storage site)")
}

// ---- E11: section 5.2, prefetch on lock ----

// PrefetchRow splits the lock+read critical path with and without
// prefetch-on-lock.
type PrefetchRow struct {
	Case        string        `col:"case"`
	LockLatency time.Duration `col:"lock latency,%.1fms"`       // lock request incl. any prefetch I/O
	ReadLatency time.Duration `col:"first read latency,%.1fms"` // first data read after the lock
}

// PrefetchAblation measures a remote lock followed by a read of the
// locked range.  Prefetching moves the page read under the lock exchange,
// so the data access that follows pays no disk latency - the section 5.2
// "prefetched in anticipation of their subsequent use" optimization.
func PrefetchAblation() ([]PrefetchRow, error) {
	run := func(name string, prefetch bool) (PrefetchRow, error) {
		row := PrefetchRow{Case: name}
		_, err := measure(standard(cluster.Config{PrefetchOnLock: prefetch}), nil, func(e *scenario.Env) {
			scenario.Ok(baseFile(scenario.Must(e.Sys.NewProcess(1)), "va/data", 2048).Close())
			// Restart the storage site so its working state (and caches)
			// start cold, then lock and read from a remote site.
			e.Sys.Cluster().Site(1).Crash()
			scenario.Ok(e.Sys.Cluster().Site(1).Restart())
			_, files, err := e.Open(2, "va/data")
			scenario.Ok(err)
			before := e.Sys.Stats().Snapshot()
			scenario.Ok(files[0].LockRange(0, 1024, core.Shared))
			locked := e.Sys.Stats().Snapshot()
			scenario.Must(files[0].ReadAt(make([]byte, 1024), 0))
			row.LockLatency = Vax.Latency(locked.Sub(before))
			row.ReadLatency = Vax.Latency(e.Sys.Stats().Snapshot().Sub(locked))
		})
		return row, err
	}
	return offThenOn(run, "no prefetch (1985 implementation)", "prefetch on lock (section 5.2 optimization)")
}

// ---- E12: footnote 7, differencing from the buffer pool ----

// Fn7Row compares the overlap commit with the previous version re-read
// from disk (the measured 1985 implementation) vs served from the clean
// page buffer pool (the optimization footnote 7 sketches).
type Fn7Row struct {
	Case       string        `col:"case"`
	Reads      int64         `col:"page reads"`
	SimLatency time.Duration `col:"sim latency,%.1fms"`
}

// Footnote7Ablation measures a local overlap commit in both modes.
func Footnote7Ablation() ([]Fn7Row, error) {
	run := func(name string, fromPool bool) (Fn7Row, error) {
		d, err := recordCommit(cluster.Config{DiffFromBufferPool: fromPool}, 1, 128, true)
		if err != nil {
			return Fn7Row{}, err
		}
		return Fn7Row{Case: name, Reads: d.Get(stats.DiskReads), SimLatency: Vax.Latency(d)}, nil
	}
	return offThenOn(run, "re-read previous version (1985 impl, Fig 6)", "previous version from buffer pool (footnote 7)")
}

// ---- E13: section 7.1, record-level vs whole-file locking ----

// GranularityRow compares lock granularities under concurrent disjoint
// updates to one file.
type GranularityRow struct {
	Case      string        `col:"case"`
	LockWaits int64         `col:"lock waits"`
	WallClock time.Duration `col:"wall clock"`
}

// LockGranularity runs concurrent transactions updating DISJOINT records
// of one shared file, under the paper's record-level locking and under
// the whole-file locking of the previous Locus transaction mechanism
// (section 7.1: "whole file locking restricts the degree of concurrent
// access to data files, and is not a satisfactory base on which to
// implement a database system").  Each transaction holds its lock for
// hold (simulating the record processing a database would do); record
// locking admits all updaters in parallel, whole-file locking serializes
// them, so the wall-clock ratio approaches the worker count.
func LockGranularity(workers, txnsEach int, hold time.Duration) ([]GranularityRow, error) {
	run := func(name string, wholeFile bool) (GranularityRow, error) {
		const fileBytes = 8192
		procs, files := make([]*core.Process, workers), make([]*core.File, workers)
		sc := scenario.Scenario{
			Spec: standard(cluster.Config{LockWaitTimeout: 5 * time.Second}),
			// Every worker is open before the clients start, so they start
			// together: guaranteed overlap.
			Setup: func(e *scenario.Env) {
				baseFile(scenario.Must(e.Sys.NewProcess(1)), "va/shared", fileBytes)
				for w := range procs {
					p, fs, err := e.Open(simnet.SiteID(w%3+1), "va/shared")
					scenario.Ok(err)
					procs[w], files[w] = p, fs[0]
				}
			},
		}
		for w := 0; w < workers; w++ {
			sc.Clients = append(sc.Clients, func(e *scenario.Env) {
				for i := 0; i < txnsEach; i++ {
					scenario.Ok(e.Txn(procs[w], func() error {
						off, length := int64(w*64), int64(64)
						if wholeFile {
							off, length = 0, fileBytes
						}
						if err := files[w].LockRange(off, length, core.Exclusive); err != nil {
							return err
						}
						_, err := files[w].WriteAt([]byte("update!!"), int64(w*64))
						e.Clock.Sleep(hold) // the transaction's record processing
						return err
					}))
				}
			})
		}
		out, err := scenario.Run(sc)
		if err != nil {
			return GranularityRow{}, err
		}
		return GranularityRow{Case: name, LockWaits: out.Counters.Get(stats.LockWaits), WallClock: out.Wall}, nil
	}
	return offThenOn(run, "record-level locking (this paper)", "whole-file locking (previous Locus, sec 7.1)")
}
