package cluster

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/tpc"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Crash takes the site down: its kernel incarnation is marked dead - all
// of its memory forfeit at once, its volume handles fenced, its disks
// stripped of their volatile (unflushed) pages - and the machine leaves the
// network.  Crashing a site that is already down does nothing.
func (s *Site) Crash() {
	k := s.kernel()
	k.mu.Lock()
	if k.dead.Load() {
		k.mu.Unlock()
		return
	}
	k.dead.Store(true)
	k.mu.Unlock()
	// The recovery loop dies with its kernel; Restart's coordinator
	// recovery re-drives pending phase two from the log.
	vtime.NotifySend(s.cl.cfg.Clock, k.stopLoop, struct{}{})
	s.cl.net.CrashSite(s.id)
	k.halt()
	k.forfeitLeases()
}

// halt stops the incarnation's storage dead: each disk loses its volatile
// (unflushed) pages and each volume handle is fenced, so a goroutine that
// outlives the kernel (a phase-two retry, a shadow commit in flight)
// fails on it instead of writing through a superseded allocator or log.
func (k *incarnation) halt() {
	for _, vs := range k.volStates() {
		vs.disk.dev.Crash()
		vs.vol.Invalidate()
	}
}

// newIncarnation boots a kernel over the machine's disks, up to the point
// where it may take messages.  Recovery order, per the paper (section
// 4.4; Restart does the rest):
//
//  1. reload each volume; the load scan reclaims orphan shadow pages
//     (transactions that never prepared are thereby aborted);
//  2. pin every page named by a surviving prepare record, before anything
//     allocates, then reclaim every copy the catalog records none of here
//     (the copy rule, placement.go);
//  3. (a) re-register every surviving prepare record and re-establish its
//     retained locks.  A commit or abort retry that found the table still
//     empty would be acknowledged as an idempotent duplicate, letting the
//     coordinator reclaim its log record while this site still held the
//     transaction in doubt - which presumed abort would then mis-resolve.
//
// A machine with no disk (AddSite) boots the same way and cannot fail.
func newIncarnation(m *machine) (_ *incarnation, err error) {
	cfg := m.cl.cfg
	k := &incarnation{
		machine:  m,
		vols:     make(map[string]*volState),
		open:     make(map[string]*openFile),
		locks:    lockmgr.NewManager(m.st),
		procs:    proc.NewTable(m.id, m.st),
		prepared: make(map[string]*preparedTxn),
		txns:     make(map[string]string),
		fenced:   make(map[string]struct{}),
		stopLoop: make(chan struct{}, 1),
	}
	k.mu.SetClock(cfg.Clock)
	k.locks.SetTracer(m.tr)
	k.locks.SetClock(cfg.Clock)
	if cfg.LockLeases {
		k.leases = make(map[string]*siteLease)
		k.leaseMeta = make(map[leaseKey]*leaseMeta)
	}
	defer func() {
		if err != nil {
			k.halt()
		}
	}()
	m.diskMu.Lock()
	disks := slices.Clone(m.disks)
	m.diskMu.Unlock()
	for _, d := range disks {
		d.dev.Restart()
		vs, err := m.mount(d, false)
		if err != nil {
			return nil, err
		}
		k.serveLocked(vs)
		if err := tpc.PinPreparedPages(vs.vol); err != nil {
			return nil, err
		}
	}
	// Before prepare-record processing: a copy is shipped only quiesced,
	// so no prepare record names one the rule reclaims.
	k.reclaimUnrecorded()
	for _, vs := range k.volStates() {
		recs, err := tpc.ReadPrepareRecords(vs.vol)
		if err != nil {
			return nil, fmt.Errorf("cluster: prepare records of %q: %w", vs.name, err)
		}
		for _, rec := range recs {
			k.relockRecovered(rec)
		}
	}
	return k, nil
}

// Restart brings the site back with a fresh kernel incarnation: volumes
// are reloaded from stable storage and the transaction recovery mechanism
// runs before new transactions are admitted (section 4.4): steps 1 to 3a in
// newIncarnation, before the site rejoins the network, then
//
//  3. (b) resolve in-doubt prepared transactions by querying their
//     coordinators: the recovery loop does, behind the return, while the
//     retained locks hold;
//  4. replay this site's own coordinator log: committed transactions
//     re-enter phase two, anything else is aborted, behind the return.
//
// A running site is crashed first.
func (s *Site) Restart() error {
	s.Crash()
	k, err := newIncarnation(&s.machine)
	if err != nil {
		return err
	}
	s.inc.Store(k)
	// Rejoin the network so coordinator queries can flow both ways.
	s.cl.net.RestartSite(s.id)

	if coord, err := k.Coordinator(); err == nil {
		if rerr := coord.Recover(); rerr != nil {
			return fmt.Errorf("cluster: coordinator recovery at site %v: %w", s.id, rerr)
		}
	}
	if len(k.inDoubt()) > 0 {
		k.kickRecovery()
	}
	// Pull the replica copies the catalog records behind here (they
	// forward their reads to the primary until the pull lands).
	k.pullBehind()
	s.tr.Record(trace.Recovery, "", s.id.String(), int64(len(k.inDoubt())))
	return nil
}

// relockRecovered registers an in-doubt prepared transaction after a
// restart: its prepare record is remembered (so a later commit or abort
// message can be applied from the log) and its retained locks are
// re-established so other users stay excluded until the outcome arrives.
func (k *incarnation) relockRecovered(rec tpc.PrepareRecord) {
	k.mu.Lock()
	pt := k.prepared[rec.Txid]
	if pt == nil {
		pt = &preparedTxn{coord: rec.CoordSite, recovered: true}
		k.prepared[rec.Txid] = pt
	}
	pt.onePhase = pt.onePhase || rec.OnePhaseTotal > 0
	pt.records = append(pt.records, rec)
	for _, pf := range rec.Files {
		pt.fileIDs = append(pt.fileIDs, pf.FileID)
	}
	k.mu.Unlock()

	// Re-establish the retained locks from the logged lock list.  The
	// holder process is gone; the transaction group is what matters.
	h := lockmgr.Holder{PID: 0, Txn: rec.Txid}
	for _, li := range rec.Locks {
		fl := k.locks.File(li.FileID, nil)
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
// abort.  handlePrepareCommit keeps its live entry claimed until the
// commit point has passed and drops it if that write fails, so an
// unclaimed live entry is committed; a recovered set is committed iff
// complete - every record carries the set's total, and the force of the
// last one was the commit point.  That half sends nothing, so deliver may
// ask it under k.mu.
//
// Anyone else asks the coordinator, and only its word decides: committed,
// or aborted (which includes "never heard of it": no live state and no
// log record means the commit point was never reached).  A coordinator
// that is unreachable, or still collecting votes ("undecided"), leaves the
// transaction in doubt: this site voted yes, the coordinator may yet
// commit, and aborting on its own is the one thing a prepared participant
// may never do.
func (k *incarnation) resolve(txid string, pt *preparedTxn) tpc.Status {
	if pt.onePhase {
		if !pt.recovered || (len(pt.records) > 0 && len(pt.records) >= pt.records[0].OnePhaseTotal) {
			return tpc.StatusCommitted
		}
		return tpc.StatusAborted
	}
	st, err := k.QueryStatus(pt.coord, txid)
	if err != nil {
		return tpc.StatusUnknown
	}
	return st
}

// recoveryInterval spaces the passes of a site's recovery loop.
const recoveryInterval = 100 * time.Millisecond

// kickRecovery asks for a pass of the recovery loop, starting it if none
// runs: Restart does, and so does a phase-two delivery that failed.
func (k *incarnation) kickRecovery() {
	k.kicks.Add(1)
	if !k.dead.Load() && k.recovering.CompareAndSwap(false, true) {
		k.cl.cfg.Clock.Go(k.recoverLoop)
	}
}

// recoverLoop is the site's one driver of recovery (section 4.4): each
// pass asks the coordinators of the recovered in-doubt transactions and
// re-drives this site's unacknowledged phase two, until a pass leaves
// nothing (a kick meanwhile buys one more), Crash or Shutdown.
func (k *incarnation) recoverLoop() {
	for {
		kicks := k.kicks.Load()
		left := k.resolveInDoubt()
		if coord, err := k.Coordinator(); err == nil {
			left += coord.RetryPending()
		}
		if left == 0 {
			k.recovering.Store(false)
			if k.kicks.Load() == kicks || !k.recovering.CompareAndSwap(false, true) {
				return
			}
		}
		if _, stop := vtime.WaitRecv(k.cl.cfg.Clock, k.stopLoop, recoveryInterval); stop {
			return
		}
	}
}

// resolveInDoubt asks about each recovered in-doubt transaction once and
// returns how many are still in doubt.
func (k *incarnation) resolveInDoubt() int {
	remaining := 0
	for _, txid := range k.inDoubt() {
		k.mu.Lock()
		pt := k.prepared[txid]
		k.mu.Unlock()
		if pt == nil {
			continue
		}
		// An apply error (including a racing delivery from the
		// coordinator itself) leaves the transaction in doubt; the next
		// pass retries.
		st := k.resolve(txid, pt)
		if st == tpc.StatusUnknown || k.deliver(txid, st == tpc.StatusCommitted) != nil {
			remaining++
		}
	}
	return remaining
}

// inDoubt lists the recovered prepared transactions still awaiting their
// outcome, sorted: resolution queries them in this order.
func (k *incarnation) inDoubt() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	var txids []string
	for txid, pt := range k.prepared {
		if pt.recovered {
			txids = append(txids, txid)
		}
	}
	sort.Strings(txids)
	return txids
}

// InDoubtCount returns how many recovered prepared transactions still
// await their coordinator.
func (s *Site) InDoubtCount() int { return len(s.kernel().inDoubt()) }

// Volumes returns the names of the volumes on the site's disks, mounted or
// installed, sorted.
func (m *machine) Volumes() []string {
	m.diskMu.Lock()
	defer m.diskMu.Unlock()
	var out []string
	for _, d := range m.disks {
		out = append(out, d.vol)
	}
	sort.Strings(out)
	return out
}

// Volume returns a mounted volume (tests and tools reach through this; on
// a down site it is the dead incarnation's fenced handle, whose Disk is
// the machine's).
func (s *Site) Volume(name string) *fs.Volume {
	if vs, err := s.kernel().volByName(name); err == nil {
		return vs.vol
	}
	return nil
}
