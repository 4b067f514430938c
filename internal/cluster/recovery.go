package cluster

import (
	"fmt"
	"sort"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/tpc"
	"repro/internal/trace"
)

// Crash takes the site down: network detached, disks lose their volatile
// (unflushed) pages, and all kernel memory - open files, lock lists,
// process table, lock cache, prepared-transaction map - is forfeit.  The
// in-memory state is actually discarded at Restart, which is equivalent
// and keeps Crash callable from topology-watch goroutines.
func (s *Site) Crash() {
	s.mu.Lock()
	s.up = false
	s.epoch++
	coord := s.coord
	s.coord = nil
	vols := s.volStatesLocked()
	for _, rep := range s.replicas {
		vols = append(vols, rep.vs)
	}
	s.mu.Unlock()
	if coord != nil {
		// The retry-timer goroutine dies with its kernel; Restart builds
		// a fresh coordinator and its Recover re-drives pending phase two.
		coord.Close()
	}
	s.cl.net.CrashSite(s.id)
	for _, vs := range vols {
		vs.disk.Crash()
	}
}

// Restart brings the site back: volumes are reloaded from stable storage,
// prepared shadow pages are pinned before any allocation, the transaction
// recovery mechanism runs before new transactions are admitted (section
// 4.4), and only then does the site rejoin the network.
//
// Recovery order, per the paper:
//
//  1. reload each volume; the load scan reclaims orphan shadow pages
//     (transactions that never prepared are thereby aborted);
//  2. pin every page named by a surviving prepare record;
//  3. resolve in-doubt prepared transactions by querying their
//     coordinators; an unreachable or still undecided coordinator leaves
//     the transaction in doubt with its locks re-established;
//  4. replay this site's own coordinator log: committed transactions
//     re-enter phase two, anything else is aborted.
func (s *Site) Restart() error {
	s.mu.Lock()
	vols := s.volStatesLocked()
	// Forfeit kernel memory.
	s.open = make(map[string]*openFile)
	s.locks = lockmgr.NewManager(s.st)
	s.locks.SetTracer(s.tr)
	s.locks.SetClock(s.cl.cfg.Clock)
	s.procs = proc.NewTable(s.id, s.st)
	s.prepared = make(map[string]*preparedTxn)
	s.txns = make(map[string]struct{})
	s.coord = nil
	s.mu.Unlock()
	s.cacheMu.Lock()
	s.lockCache = make(map[string]map[string][]cachedLock)
	s.cacheMu.Unlock()
	s.resetLeaseState()
	s.resetMoving()

	// 1-2: reload volumes, pin prepared pages.  The old volume handles
	// are fenced first: goroutines from before the crash (phase-two
	// retries, a stale coordinator's finish) may still hold them, and a
	// write through a superseded handle lands on pages the reloaded
	// allocator has reassigned.
	for _, vs := range vols {
		if vs.vol != nil {
			vs.vol.Invalidate()
		}
		vs.disk.Restart()
		vol, err := fs.Load(vs.name, vs.disk)
		if err != nil {
			return fmt.Errorf("cluster: reload %q: %w", vs.name, err)
		}
		s.wireVolume(vol)
		// The swap happens under dirMu so pinVol/dirCreateOn (an adoption
		// spanning this restart) see either old-handle-everywhere (and
		// fail on the invalidation above) or the new handle consistently.
		vs.dirMu.Lock()
		vs.vol = vol
		vs.dirMu.Unlock()
		if err := tpc.PinPreparedPages(vol); err != nil {
			return err
		}
		if err := vs.loadDirectory(); err != nil {
			return err
		}
	}
	// Reload replica volumes; conservatively forward all reads to the
	// primary until the next propagation refreshes each file.
	s.mu.Lock()
	reps := make([]*replicaState, 0, len(s.replicas))
	for _, rep := range s.replicas {
		reps = append(reps, rep)
	}
	s.mu.Unlock()
	for _, rep := range reps {
		if rep.vs.vol != nil {
			rep.vs.vol.Invalidate()
		}
		rep.vs.disk.Restart()
		vol, err := fs.Load(rep.vs.name, rep.vs.disk)
		if err != nil {
			return fmt.Errorf("cluster: reload replica %q: %w", rep.vs.name, err)
		}
		vol.SetClock(s.cl.cfg.Clock)
		rep.vs.dirMu.Lock()
		rep.vs.vol = vol
		rep.vs.dirMu.Unlock()
		if err := rep.vs.loadDirectory(); err != nil {
			return err
		}
		s.mu.Lock()
		rep.files = make(map[string]*shadow.File)
		s.mu.Unlock()
	}

	// Adaptive placement: reclaim any local copy of a file the namespace
	// homes elsewhere (an ownership move this crash interrupted), before
	// prepare-record processing - a quiesced move cannot coexist with a
	// prepared transaction, so the purge never races recovery state.
	if s.cl.cfg.AdaptivePlacement {
		s.purgeForeignFiles()
	}

	// 3a: re-register every surviving prepare record and re-establish its
	// retained locks BEFORE rejoining the network.  A commit or abort
	// retry that arrived while s.prepared was still empty would be
	// acknowledged as an idempotent duplicate, letting the coordinator
	// reclaim its log record while this site still held the transaction
	// in doubt - which presumed abort would then mis-resolve.
	for _, vs := range vols {
		recs, err := tpc.ReadPrepareRecords(vs.vol)
		if err != nil {
			return fmt.Errorf("cluster: prepare records of %q: %w", vs.name, err)
		}
		for _, rec := range recs {
			s.relockRecovered(rec)
		}
	}

	// Rejoin the network so coordinator queries can flow both ways.
	s.mu.Lock()
	s.up = true
	s.mu.Unlock()
	s.cl.net.RestartSite(s.id)

	// 3b: resolve what we can now; transactions whose coordinator is
	// unreachable or undecided stay in doubt for a later ResolveInDoubt.
	s.ResolveInDoubt()

	// 4: coordinator recovery.
	coord, err := s.Coordinator()
	if err == nil {
		if rerr := coord.Recover(); rerr != nil {
			return fmt.Errorf("cluster: coordinator recovery at site %v: %w", s.id, rerr)
		}
	}

	// Refresh replica contents (stale copies forward to the primary
	// until the pull completes).
	s.resyncReplicas()
	s.tr.Record(trace.Recovery, "", s.id.String(), int64(s.InDoubtCount()))
	return nil
}

// relockRecovered registers an in-doubt prepared transaction after a
// restart: its prepare record is remembered (so a later commit or abort
// message can be applied from the log) and its retained locks are
// re-established so other users stay excluded until the outcome arrives.
func (s *Site) relockRecovered(rec tpc.PrepareRecord) {
	s.mu.Lock()
	pt := s.prepared[rec.Txid]
	if pt == nil {
		pt = &preparedTxn{coord: rec.CoordSite, recovered: true}
		s.prepared[rec.Txid] = pt
	}
	pt.onePhase = pt.onePhase || rec.OnePhaseTotal > 0
	pt.records = append(pt.records, rec)
	for _, pf := range rec.Files {
		pt.fileIDs = append(pt.fileIDs, pf.FileID)
	}
	s.mu.Unlock()

	// Re-establish the retained locks from the logged lock list.  The
	// holder process is gone; the transaction group is what matters.
	h := lockmgr.Holder{PID: 0, Txn: rec.Txid}
	for _, li := range rec.Locks {
		fl := s.locks.File(li.FileID, nil)
		fl.Lock(lockmgr.Request{ //nolint:errcheck // re-granting our own logged locks cannot conflict
			Holder: h, Mode: li.Mode, Off: li.Off, Len: li.Len,
		})
	}
}

// resolve is the in-doubt rule (section 4.4; the table in DESIGN.md
// section 9): what this site may conclude, without a message from the
// coordinator, about a transaction it holds prepared.  StatusUnknown means
// stay in doubt - keep the prepare records and the retained locks.
//
// A one-phase transaction is its own verdict (DESIGN.md section 10): the
// coordinator kept no log for it, so a query would wrongly read presumed
// abort.  Its entry exists live only once its records were forced, and a
// recovered set is committed iff complete - every record carries the
// set's total, and the force of the last one was the commit point.  That
// half sends nothing, so deliver may ask it under s.mu.
//
// Anyone else asks the coordinator, and only its word decides: committed,
// or aborted (which includes "never heard of it": no live state and no
// log record means the commit point was never reached).  A coordinator
// that is unreachable, or still collecting votes ("undecided"), leaves the
// transaction in doubt: this site voted yes, the coordinator may yet
// commit, and aborting on its own is the one thing a prepared participant
// may never do.
func (s *Site) resolve(txid string, pt *preparedTxn) tpc.Status {
	if pt.onePhase {
		if !pt.recovered || (len(pt.records) > 0 && len(pt.records) >= pt.records[0].OnePhaseTotal) {
			return tpc.StatusCommitted
		}
		return tpc.StatusAborted
	}
	st, err := s.QueryStatus(pt.coord, txid)
	if err != nil {
		return tpc.StatusUnknown
	}
	return st
}

// ResolveInDoubt retries participant recovery for transactions whose
// coordinator was unreachable or undecided at restart.  Returns the
// number still in doubt.
func (s *Site) ResolveInDoubt() int {
	txids := s.inDoubt()
	sort.Strings(txids)

	remaining := 0
	for _, txid := range txids {
		s.mu.Lock()
		pt := s.prepared[txid]
		s.mu.Unlock()
		if pt == nil {
			continue
		}
		// An apply error (including a racing delivery from the
		// coordinator itself) leaves the transaction in doubt; the next
		// resolution pass retries.
		st := s.resolve(txid, pt)
		if st == tpc.StatusUnknown || s.deliver(txid, st == tpc.StatusCommitted) != nil {
			remaining++
		}
	}
	return remaining
}

// inDoubt lists the recovered prepared transactions still awaiting their
// outcome.
func (s *Site) inDoubt() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var txids []string
	for txid, pt := range s.prepared {
		if pt.recovered {
			txids = append(txids, txid)
		}
	}
	return txids
}

// InDoubtCount returns how many recovered prepared transactions still
// await their coordinator.
func (s *Site) InDoubtCount() int {
	return len(s.inDoubt())
}

// Volumes returns the site's volume names, sorted.
func (s *Site) Volumes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.vols))
	for n := range s.vols {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Volume returns a mounted volume (tests and tools reach through this).
func (s *Site) Volume(name string) *fs.Volume {
	s.mu.Lock()
	defer s.mu.Unlock()
	if vs, ok := s.vols[name]; ok {
		return vs.vol
	}
	return nil
}
