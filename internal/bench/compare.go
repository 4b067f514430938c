package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/invariant"
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
	Pattern    workload.Pattern
	RecordSize int
	RecsPerTxn int
	// I/Os per transaction, including the WAL's amortized checkpoint.
	ShadowIO float64
	WALIO    float64
	// Simulated commit latency per transaction.
	ShadowLatency time.Duration
	WALLatency    time.Duration
	Winner        string
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

	// Shadow-paging side.
	shadowIO, shadowLat, err := runShadowSide(accesses, recsPerTxn)
	if err != nil {
		return ShadowVsWALRow{}, err
	}
	// WAL side.
	walIO, walLat, err := runWALSide(accesses, recsPerTxn)
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

// runShadowSide commits each transaction's records through the shadow
// mechanism (single-file record commit), returning I/Os and simulated
// latency per transaction.
func runShadowSide(accesses []workload.Access, recsPerTxn int) (float64, time.Duration, error) {
	st := stats.NewSet()
	d := simdisk.New("shadow", cmpFilePages*4+96, cmpPageSize, st)
	v, err := fs.Format("cmp", d, fs.Options{NumInodes: 4, LogPages: 8})
	if err != nil {
		return 0, 0, err
	}
	ino, err := v.AllocInode()
	if err != nil {
		return 0, 0, err
	}
	f, err := shadow.Open(v, ino)
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

	before := st.Snapshot()
	txns := 0
	for i := 0; i < len(accesses); i += recsPerTxn {
		owner := shadow.Owner(fmt.Sprintf("txn:%d", txns))
		end := min(i+recsPerTxn, len(accesses))
		for j := i; j < end; j++ {
			a := accesses[j]
			if _, err := f.WriteAt(owner, workload.Payload(j, a.Len), a.Off); err != nil {
				return 0, 0, err
			}
		}
		if err := f.Commit(owner); err != nil {
			return 0, 0, err
		}
		txns++
	}
	diff := st.Snapshot().Sub(before)
	perTxn := diff.Scale(int64(txns))
	return float64(diff.Get(stats.DiskWrites)+diff.Get(stats.DiskReads)) / float64(txns),
		Vax.Latency(perTxn), nil
}

// runWALSide commits the same transactions through the logging baseline,
// checkpointing every cmpCheckpoint transactions so the deferred in-place
// writes are charged (amortized) against it.
func runWALSide(accesses []workload.Access, recsPerTxn int) (float64, time.Duration, error) {
	st := stats.NewSet()
	d := simdisk.New("wal", cmpFilePages*8+128, cmpPageSize, st)
	v, err := fs.Format("cmp", d, fs.Options{NumInodes: 4, LogPages: 8})
	if err != nil {
		return 0, 0, err
	}
	mgr, err := wal.NewManager(v, 256)
	if err != nil {
		return 0, 0, err
	}
	ino, err := v.AllocInode()
	if err != nil {
		return 0, 0, err
	}
	f, err := wal.OpenFile(mgr, ino)
	if err != nil {
		return 0, 0, err
	}
	if _, err := f.WriteAt("setup", make([]byte, cmpPageSize*cmpFilePages), 0); err != nil {
		return 0, 0, err
	}
	if err := f.Commit("setup"); err != nil {
		return 0, 0, err
	}
	if err := f.Checkpoint(); err != nil {
		return 0, 0, err
	}

	before := st.Snapshot()
	txns := 0
	for i := 0; i < len(accesses); i += recsPerTxn {
		owner := wal.Owner(fmt.Sprintf("txn:%d", txns))
		end := min(i+recsPerTxn, len(accesses))
		for j := i; j < end; j++ {
			a := accesses[j]
			if _, err := f.WriteAt(owner, workload.Payload(j, a.Len), a.Off); err != nil {
				return 0, 0, err
			}
		}
		if err := f.Commit(owner); err != nil {
			// The circular log filled before the scheduled checkpoint:
			// checkpoint now and retry - the forced writes are charged
			// against the logging side, as a real system would pay them.
			if !errors.Is(err, wal.ErrLogWrapped) {
				return 0, 0, err
			}
			if err := f.Checkpoint(); err != nil {
				return 0, 0, err
			}
			if err := f.Commit(owner); err != nil {
				return 0, 0, err
			}
		}
		txns++
		if txns%cmpCheckpoint == 0 {
			if err := f.Checkpoint(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := f.Checkpoint(); err != nil {
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
	FilesPerTxn    int
	PerVolumeIO    int64 // step-3 writes with one record per volume
	PerFileIO      int64 // step-3 writes with the footnote-10 layout
	PaperPerVolume int64
	PaperPerFile   int64
}

// PrepareLogGranularity measures step 3 of Figure 5 for transactions
// touching several files on one volume, in both layouts.
func PrepareLogGranularity(filesPerTxn []int) ([]PrepGranRow, error) {
	measure := func(nFiles int, perFile bool) (int64, error) {
		sys, err := newSystem(cluster.Config{PerFilePrepareLogs: perFile})
		if err != nil {
			return 0, err
		}
		p, err := sys.NewProcess(1)
		if err != nil {
			return 0, err
		}
		var files []*core.File
		for i := 0; i < nFiles; i++ {
			f, err := p.Create(fmt.Sprintf("va/f%d", i))
			if err != nil {
				return 0, err
			}
			files = append(files, f)
		}
		if _, err := p.BeginTrans(); err != nil {
			return 0, err
		}
		for _, f := range files {
			if _, err := f.WriteAt([]byte("update"), 0); err != nil {
				return 0, err
			}
		}
		before := sys.Stats().Snapshot()
		if err := p.EndTrans(); err != nil {
			return 0, err
		}
		return sys.Stats().Snapshot().Sub(before).Get(stats.PrepareLogWrites), nil
	}

	var rows []PrepGranRow
	for _, n := range filesPerTxn {
		perVol, err := measure(n, false)
		if err != nil {
			return nil, err
		}
		perFile, err := measure(n, true)
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
	Case       string
	MsgsPerOp  float64
	SimLatency time.Duration
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
		sys, err := newSystem(cluster.Config{DisableLockCache: disable})
		if err != nil {
			return PerOpRow{}, err
		}
		p, err := sys.NewProcess(2) // remote from va's storage site
		if err != nil {
			return PerOpRow{}, err
		}
		f, err := p.Create("va/f")
		if err != nil {
			return PerOpRow{}, err
		}
		if _, err := p.BeginTrans(); err != nil {
			return PerOpRow{}, err
		}
		if err := f.LockRange(0, 4096, core.Exclusive); err != nil {
			return PerOpRow{}, err
		}
		before := sys.Stats().Snapshot()
		for i := 0; i < opsPerRun; i++ {
			if _, err := f.WriteAt([]byte("rec"), int64(i*16)%4000); err != nil {
				return PerOpRow{}, err
			}
		}
		d := sys.Stats().Snapshot().Sub(before)
		return perOp(name, d, opsPerRun), p.EndTrans()
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
	Scenario  string
	Outcome   string // all-or-nothing result observed
	RecoverIO int64  // disk I/Os spent during recovery
	Correct   bool
}

// Recovery exercises the crash matrix: participant crash before prepare,
// after prepare (in doubt), and coordinator crash after the commit point,
// verifying all-or-nothing outcomes and counting recovery I/O.
func Recovery() ([]RecoveryRow, error) {
	// pending builds a system and leaves a transaction from site with
	// data written to a fresh path, not yet committed.
	pending := func(site simnet.SiteID, path, data string) (*core.System, *core.Process, error) {
		sys, err := newSystem(cluster.Config{})
		if err != nil {
			return nil, nil, err
		}
		p, err := sys.NewProcess(site)
		if err != nil {
			return nil, nil, err
		}
		f, err := p.Create(path)
		if err != nil {
			return nil, nil, err
		}
		if _, err := p.BeginTrans(); err != nil {
			return nil, nil, err
		}
		_, err = f.WriteAt([]byte(data), 0)
		return sys, p, err
	}
	// committed reads back what path holds, from its storage site.
	committed := func(sys *core.System, site simnet.SiteID, path string) (string, error) {
		buf, err := invariant.ReadCommitted(sys, site, path)
		return string(buf), err
	}
	var rows []RecoveryRow

	// Scenario 1: participant crashes before the transaction commits.
	{
		sys, p, err := pending(3, "va/f", "lost")
		if err != nil {
			return nil, err
		}
		sys.Cluster().Site(1).Crash()
		endErr := p.EndTrans()
		rio, err := restartIO(sys)
		if err != nil {
			return nil, err
		}
		got, err := committed(sys, 1, "va/f")
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecoveryRow{
			Scenario:  "participant crash before prepare",
			Outcome:   fmt.Sprintf("EndTrans=%v committed=%dB", endErr != nil, len(got)),
			RecoverIO: rio,
			Correct:   endErr != nil && got == "",
		})
	}

	// Scenario 2: the transaction commits, then the participant crashes:
	// a clean-restart recovery pass must keep the committed data.
	{
		sys, p, err := pending(3, "va/f", "kept")
		if err != nil {
			return nil, err
		}
		if err := p.EndTrans(); err != nil {
			return nil, err
		}
		sys.Cluster().Site(1).Crash()
		rio, err := restartIO(sys)
		if err != nil {
			return nil, err
		}
		got, err := committed(sys, 1, "va/f")
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecoveryRow{
			Scenario:  "committed data across participant crash",
			Outcome:   fmt.Sprintf("read=%q", got),
			RecoverIO: rio,
			Correct:   got == "kept",
		})
	}

	// Scenario 3: partition mid-transaction aborts it everywhere.
	{
		sys, p, err := pending(1, "vb/f", "cut")
		if err != nil {
			return nil, err
		}
		sys.Cluster().Net().Partition(2)
		endErr := p.EndTrans()
		sys.Cluster().Net().Heal()
		got, err := committed(sys, 2, "vb/f")
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecoveryRow{
			Scenario: "partition during transaction",
			Outcome:  fmt.Sprintf("EndTrans=%v committed=%dB", endErr != nil, len(got)),
			Correct:  endErr != nil && got == "",
		})
	}

	return rows, nil
}

// restartIO restarts crashed site 1 and returns the disk I/Os its
// recovery pass spent.
func restartIO(sys *core.System) (int64, error) {
	before := sys.Stats().Snapshot()
	if err := sys.Cluster().Site(1).Restart(); err != nil {
		return 0, err
	}
	d := sys.Stats().Snapshot().Sub(before)
	return d.Get(stats.DiskWrites) + d.Get(stats.DiskReads), nil
}

// ---- E10: section 5.2, replication with a primary update site ----

// ReplicaLocality measures read cost from a non-primary site, without a
// replica (every read is a round trip) and with one (reads served by the
// closest available storage site, section 5.2).
func ReplicaLocality(readsPerRun int) ([]PerOpRow, error) {
	run := func(name string, replicate bool) (PerOpRow, error) {
		sys, err := newSystem(cluster.Config{})
		if err != nil {
			return PerOpRow{}, err
		}
		setup, err := sys.NewProcess(1)
		if err != nil {
			return PerOpRow{}, err
		}
		f, err := baseFile(setup, "va/shared", 4096)
		if err != nil {
			return PerOpRow{}, err
		}
		if err := f.Close(); err != nil {
			return PerOpRow{}, err
		}
		if replicate {
			if err := sys.AddReplica("va", 2); err != nil {
				return PerOpRow{}, err
			}
		}
		p, err := sys.NewProcess(2)
		if err != nil {
			return PerOpRow{}, err
		}
		fr, err := p.Open("va/shared")
		if err != nil {
			return PerOpRow{}, err
		}
		before := sys.Stats().Snapshot()
		buf := make([]byte, 128)
		for i := 0; i < readsPerRun; i++ {
			if _, err := fr.ReadAt(buf, int64(i*128)%3968); err != nil {
				return PerOpRow{}, err
			}
		}
		return perOp(name, sys.Stats().Snapshot().Sub(before), readsPerRun), nil
	}
	return offThenOn(run, "no replica (reads cross the network)", "local replica (closest storage site)")
}

// ---- E11: section 5.2, prefetch on lock ----

// PrefetchRow splits the lock+read critical path with and without
// prefetch-on-lock.
type PrefetchRow struct {
	Case        string
	LockLatency time.Duration // lock request incl. any prefetch I/O
	ReadLatency time.Duration // first data read after the lock
}

// PrefetchAblation measures a remote lock followed by a read of the
// locked range.  Prefetching moves the page read under the lock exchange,
// so the data access that follows pays no disk latency - the section 5.2
// "prefetched in anticipation of their subsequent use" optimization.
func PrefetchAblation() ([]PrefetchRow, error) {
	run := func(name string, prefetch bool) (PrefetchRow, error) {
		sys, err := newSystem(cluster.Config{PrefetchOnLock: prefetch})
		if err != nil {
			return PrefetchRow{}, err
		}
		setup, err := sys.NewProcess(1)
		if err != nil {
			return PrefetchRow{}, err
		}
		f, err := baseFile(setup, "va/data", 2048)
		if err != nil {
			return PrefetchRow{}, err
		}
		if err := f.Close(); err != nil {
			return PrefetchRow{}, err
		}
		// Re-open so the storage site's working state (and caches) start
		// cold, then lock and read from a remote site.
		sys.Cluster().Site(1).Crash()
		if err := sys.Cluster().Site(1).Restart(); err != nil {
			return PrefetchRow{}, err
		}
		p, err := sys.NewProcess(2)
		if err != nil {
			return PrefetchRow{}, err
		}
		fr, err := p.Open("va/data")
		if err != nil {
			return PrefetchRow{}, err
		}
		before := sys.Stats().Snapshot()
		if err := fr.LockRange(0, 1024, core.Shared); err != nil {
			return PrefetchRow{}, err
		}
		lockCost := sys.Stats().Snapshot().Sub(before)
		before = sys.Stats().Snapshot()
		buf := make([]byte, 1024)
		if _, err := fr.ReadAt(buf, 0); err != nil {
			return PrefetchRow{}, err
		}
		readCost := sys.Stats().Snapshot().Sub(before)
		return PrefetchRow{
			Case:        name,
			LockLatency: Vax.Latency(lockCost),
			ReadLatency: Vax.Latency(readCost),
		}, nil
	}
	return offThenOn(run, "no prefetch (1985 implementation)", "prefetch on lock (section 5.2 optimization)")
}

// ---- E12: footnote 7, differencing from the buffer pool ----

// Fn7Row compares the overlap commit with the previous version re-read
// from disk (the measured 1985 implementation) vs served from the clean
// page buffer pool (the optimization footnote 7 sketches).
type Fn7Row struct {
	Case       string
	Reads      int64
	SimLatency time.Duration
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
	Case      string
	LockWaits int64
	WallClock time.Duration
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
		sys, err := newSystem(cluster.Config{LockWaitTimeout: 5 * time.Second})
		if err != nil {
			return GranularityRow{}, err
		}
		setup, err := sys.NewProcess(1)
		if err != nil {
			return GranularityRow{}, err
		}
		const fileBytes = 8192
		if _, err := baseFile(setup, "va/shared", fileBytes); err != nil {
			return GranularityRow{}, err
		}

		before := sys.Stats().Snapshot()
		start := time.Now()
		errs := make(chan error, workers)
		release := make(chan struct{})
		work := func(w int) error {
			p, err := sys.NewProcess(simnet.SiteID(w%3 + 1))
			if err != nil {
				return err
			}
			file, err := p.Open("va/shared")
			if err != nil {
				return err
			}
			<-release // all workers start together: guaranteed overlap
			for i := 0; i < txnsEach; i++ {
				if _, err := p.BeginTrans(); err != nil {
					return err
				}
				off, length := int64(w*64), int64(64)
				if wholeFile {
					off, length = 0, fileBytes
				}
				err := file.LockRange(off, length, core.Exclusive)
				if err == nil {
					_, err = file.WriteAt([]byte("update!!"), int64(w*64))
				}
				if err != nil {
					p.AbortTrans() //nolint:errcheck
					return err
				}
				time.Sleep(hold) // the transaction's record processing
				if err := p.EndTrans(); err != nil {
					return err
				}
			}
			return nil
		}
		for w := 0; w < workers; w++ {
			go func(w int) { errs <- work(w) }(w)
		}
		close(release)
		for w := 0; w < workers; w++ {
			if err := <-errs; err != nil {
				return GranularityRow{}, err
			}
		}
		d := sys.Stats().Snapshot().Sub(before)
		return GranularityRow{
			Case:      name,
			LockWaits: d.Get(stats.LockWaits),
			WallClock: time.Since(start),
		}, nil
	}
	return offThenOn(run, "record-level locking (this paper)", "whole-file locking (previous Locus, sec 7.1)")
}
