// Package core is the public API of the reproduction: the transaction and
// synchronization facility the paper presents, layered over the Locus-like
// kernel in internal/cluster.
//
// A System is a network of sites.  Processes are created on sites and may
// fork children (locally or remotely), migrate between sites, and operate
// on files anywhere in the transparent namespace.  The transaction
// interface is the paper's:
//
//	p.BeginTrans()          // encapsulate subsequent file operations
//	...lock, read, write...
//	p.EndTrans()            // commit (at nesting level 0)
//	p.AbortTrans()          // undo everything
//
// BeginTrans/EndTrans pairs nest by counting (section 2): a library that
// brackets its critical section in its own pair composes with a caller's
// transaction, and only the outermost EndTrans commits.
//
// Record locking follows section 3: enforced byte-range locks in shared or
// exclusive mode, acquired explicitly (File.Lock) or implicitly at access
// time, with two-phase retention for transactions (rules 1 and 2 of
// section 3.3) and the section 3.4 escape hatches (non-transaction locks,
// and locks acquired before BeginTrans, which stay outside the
// transaction).
package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/tpc"
	"repro/internal/trace"
	"repro/internal/vtime"
	"repro/internal/wfg"
)

// Mode is a record lock mode.
type Mode = lockmgr.Mode

// Lock modes.  Unlock is accepted by File.Lock as the paper's third mode
// of the Lock(file,length,mode) call ("whether the requested lock is a
// shared lock request, an exclusive locking request, or an unlock
// request", section 3.2).
const (
	Unlock    = lockmgr.ModeNone
	Shared    = lockmgr.ModeShared
	Exclusive = lockmgr.ModeExclusive
)

// Re-exported sentinel errors callers match with errors.Is.
var (
	// ErrConflict: the lock is held incompatibly and NoWait was set.
	ErrConflict = lockmgr.ErrConflict
	// ErrAccessDenied: an enforced lock blocked the access (Figure 1).
	ErrAccessDenied = lockmgr.ErrAccessDenied
	// ErrDeadlockVictim: the wait was cancelled because the transaction
	// was chosen as a deadlock victim.
	ErrDeadlockVictim = lockmgr.ErrCancelled
	// ErrNotInTxn: EndTrans or AbortTrans outside a transaction.
	ErrNotInTxn = proc.ErrNotInTxn
	// ErrChildrenActive: EndTrans with member processes still running.
	ErrChildrenActive = errors.New("core: transaction has active member processes")
	// ErrAborted: the transaction was aborted (by partition, victim
	// selection, or a participant failure) and cannot continue.
	ErrAborted = errors.New("core: transaction aborted")
)

// System is a running multi-site Locus network with the transaction
// facility.
type System struct {
	cl *cluster.Cluster

	mu     sync.Mutex
	active map[string]*txnState
	// lostAborts is the aborts a fault may have kept from a storage site:
	// transactions whose abort broadcast missed a site, and read-only
	// transactions whose background release failed.  Each is broadcast
	// again when the network heals.
	lostAborts []lostAbort

	detector *wfg.Detector
}

// txnState is the requester's record of one live transaction, the
// coordinator-side view, with room for its sites and its commit file list.
type txnState struct {
	txid string
	// sites known to be involved, in the order they joined: the top-level
	// process's first, in siteBuf[0] (written once: read it without sys.mu).
	sites   []simnet.SiteID
	siteBuf [4]simnet.SiteID
	files   [2]proc.FileRef // EndTrans's file list, up to its size
	aborted bool
	// committing marks that the transaction has been handed to the
	// two-phase commit coordinator.  From that moment only the protocol
	// decides the outcome (section 4.3: failures before a site prepares
	// are aborts; after the commit point, recovery completes the
	// commit), so external abort triggers - topology changes, deadlock
	// victims - must no longer broadcast aborts.
	committing bool
	// wrote marks that a process of the transaction issued a write or
	// asked for a lock above Shared.  It is set before the request goes
	// out, so one that fails after reaching its storage site still
	// counts; a transaction without it only read (commitVia, atLockPoint).
	wrote bool
}

// NewSystem builds a system over a fresh cluster.
func NewSystem(cfg cluster.Config) *System {
	sys := &System{
		cl:     cluster.New(cfg),
		active: make(map[string]*txnState),
	}
	// Section 4.3: when the transaction mechanism is informed of a
	// change in network topology, it aborts all ongoing transactions
	// involving sites no longer in the current partition.
	sys.cl.Net().Watch(func(ev simnet.TopologyEvent) {
		switch ev.Kind {
		case simnet.SiteDown, simnet.Partitioned:
			sys.abortTxnsInvolving(ev.Sites)
		case simnet.Healed:
			sys.redriveAborts()
		}
	})
	return sys
}

// Cluster exposes the underlying kernel network (benchmarks and tools).
func (sys *System) Cluster() *cluster.Cluster { return sys.cl }

// Stats returns the system-wide counters.
func (sys *System) Stats() *stats.Set { return sys.cl.Stats() }

// prof returns the cluster's critical-path profiler; nil (profiling
// off) makes every lifecycle stamp a cheap no-op.
func (sys *System) prof() *telemetry.Profiler {
	return sys.Stats().Registry().Profiler()
}

// AddSite creates a site.
func (sys *System) AddSite(id simnet.SiteID) { sys.cl.AddSite(id) }

// AddVolume formats and mounts a volume at a site.
func (sys *System) AddVolume(site simnet.SiteID, name string) error {
	return sys.cl.AddVolume(site, name)
}

// AddReplica creates a read-only replica of a volume at another site
// (section 5.2): reads are served by the closest available storage site,
// and storage-site service migrates to the primary while a file is open
// for update.
func (sys *System) AddReplica(name string, site simnet.SiteID) error {
	return sys.cl.AddReplica(name, site)
}

// abortTxnsInvolving aborts every active transaction touching any of the
// given sites.
func (sys *System) abortTxnsInvolving(sites []simnet.SiteID) {
	sys.mu.Lock()
	var doomed []*txnState
	for _, ts := range sys.active {
		for _, s := range sites {
			if slices.Contains(ts.sites, s) {
				doomed = append(doomed, ts)
				break
			}
		}
	}
	sys.mu.Unlock()
	slices.SortFunc(doomed, func(a, b *txnState) int { return strings.Compare(a.txid, b.txid) })
	for _, ts := range doomed {
		sys.abortTxn(ts)
	}
}

// abortTxn broadcasts the abort and retires the transaction.  It is a
// no-op once the transaction has entered two-phase commit: from there
// the coordinator's protocol (prepare failure => abort; commit point
// reached => recovery finishes the commit) owns the outcome, and a
// unilateral abort broadcast could tear a committed transaction apart at
// participants that already prepared.
func (sys *System) abortTxn(ts *txnState) {
	sys.mu.Lock()
	if ts.aborted || ts.committing {
		sys.mu.Unlock()
		return
	}
	ts.aborted = true
	sys.mu.Unlock()

	// Drive the abort from any live site - preferably the top-level
	// process's site.
	if origin := sys.liveSite(ts.siteBuf[0]); origin != nil {
		if !origin.AbortEverywhere(ts.txid) {
			sys.loseAbort(ts.txid, ts.siteBuf[0])
		}
		origin.Tracer().Record(trace.TxnAbort, ts.txid, "", 0)
	}
	sys.dropLockCaches(ts)
	sys.Stats().Inc(stats.TxnAborts)
	sys.prof().TxnEnd(ts.txid, sys.cl.Clock().Now(), false)

	sys.mu.Lock()
	delete(sys.active, ts.txid)
	sys.mu.Unlock()
}

// liveSite returns the site if it is up, else the lowest live site, else
// nil.
func (sys *System) liveSite(prefer simnet.SiteID) *cluster.Site {
	if s := sys.cl.Site(prefer); s != nil && s.Up() {
		return s
	}
	for _, id := range sys.cl.Sites() {
		if s := sys.cl.Site(id); s != nil && s.Up() {
			return s
		}
	}
	return nil
}

// lostAbort is an abort to broadcast again once the network heals: the
// transaction and the site it started at.
type lostAbort struct {
	txid   string
	origin simnet.SiteID
}

func (sys *System) loseAbort(txid string, origin simnet.SiteID) {
	sys.mu.Lock()
	sys.lostAborts = append(sys.lostAborts, lostAbort{txid, origin})
	sys.mu.Unlock()
}

// redriveAborts broadcasts each lost abort again, so a storage site the
// fault cut off drops what it still holds for the transaction: its locks
// and, for one that wrote, its uncommitted records.  A site still
// unreachable rolls the transaction back at its own restart.
func (sys *System) redriveAborts() {
	sys.mu.Lock()
	lost := sys.lostAborts
	sys.lostAborts = nil
	sys.mu.Unlock()
	for _, a := range lost {
		if origin := sys.liveSite(a.origin); origin != nil {
			origin.AbortEverywhere(a.txid)
		}
	}
}

// dropLockCaches ends the life of the transaction's requester lock cache
// (section 5.1: locks are cached at the requesting site for the life of
// the transaction) at every site it ran at.  The abort broadcast and the
// participants' own release cover the sites that store its files; this
// covers the sites that only issued requests, and those the broadcast
// could not reach.  Local calls: no message is sent.
func (sys *System) dropLockCaches(ts *txnState) {
	sys.mu.Lock()
	sites := ts.sites // noteTxnSite only appends, so this prefix never changes
	sys.mu.Unlock()
	for _, id := range sites {
		if s := sys.cl.Site(id); s != nil {
			s.DropLockCache(ts.txid)
		}
	}
}

// lookupTxn returns the live transaction state, or nil.
func (sys *System) lookupTxn(txid string) *txnState {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return sys.active[txid]
}

// noteTxnSite records that a transaction involves a site.
func (sys *System) noteTxnSite(txid string, site simnet.SiteID) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	if ts, ok := sys.active[txid]; ok && !slices.Contains(ts.sites, site) {
		ts.sites = append(ts.sites, site)
	}
}

// detectorTracer picks the tracer the deadlock detector stamps its
// events through: the lowest live site's, matching the paper's framing
// of detection as a user-level system process running somewhere in the
// network.  Nil when tracing is off.
func (sys *System) detectorTracer() *trace.Tracer {
	sites := sys.cl.Sites()
	if len(sites) == 0 {
		return nil
	}
	return sys.cl.Site(sites[0]).Tracer()
}

// newDetector builds the user-level deadlock detection "system process"
// of section 3.1: it reads the wait-for edges of every site and aborts the
// victim transaction of each cycle (youngest by transaction id).
func (sys *System) newDetector() *wfg.Detector {
	return &wfg.Detector{
		Collect: sys.cl.WaitEdges,
		Policy:  wfg.VictimYoungest,
		Tracer:  sys.detectorTracer(),
		Clock:   sys.cl.Clock(),
		Stats:   sys.Stats(),
		OnVictim: func(group string, cycle []string) {
			if txid, ok := lockmgr.GroupTxn(group); ok {
				if ts := sys.lookupTxn(txid); ts != nil {
					sys.abortTxn(ts)
				}
			}
		},
	}
}

// StartDeadlockDetector launches the detector, polling every interval.
// Stop it with StopDeadlockDetector.
func (sys *System) StartDeadlockDetector(interval time.Duration) {
	sys.mu.Lock()
	if sys.detector != nil {
		sys.mu.Unlock()
		return
	}
	d := sys.newDetector()
	sys.detector = d
	sys.mu.Unlock()
	d.Start(interval)
}

// StopDeadlockDetector halts the detector.
func (sys *System) StopDeadlockDetector() {
	sys.mu.Lock()
	d := sys.detector
	sys.detector = nil
	sys.mu.Unlock()
	if d != nil {
		d.Stop()
	}
}

// DetectDeadlocksOnce runs a single detection scan, returning the victims
// aborted.
func (sys *System) DetectDeadlocksOnce() []string { return sys.newDetector().Step() }

// NewProcess creates a non-transaction process on a site.
func (sys *System) NewProcess(site simnet.SiteID) (*Process, error) {
	s := sys.cl.Site(site)
	if s == nil {
		return nil, fmt.Errorf("core: no site %v", site)
	}
	pid := sys.cl.NewPID()
	s.Procs().NewProcess(pid, 0)
	return &Process{sys: sys, pid: pid, site: site, k: s}, nil
}

// Process is a handle on one process; its methods are that process's
// system calls.  A Process handle is not safe for concurrent use (like a
// process, it does one thing at a time); distinct processes are.
type Process struct {
	sys  *System
	pid  int
	site simnet.SiteID
	k    *cluster.Site // site's kernel: Migrate changes both
}

// PID returns the process identifier.
func (p *Process) PID() int { return p.pid }

// Site returns the process's current site.
func (p *Process) Site() simnet.SiteID { return p.site }

func (p *Process) kernel() *cluster.Site { return p.k }

// state fetches a consistent snapshot of the process's kernel record at
// its current site.
func (p *Process) state() (proc.Info, error) {
	return p.kernel().Procs().Info(p.pid)
}

// Txn returns the transaction identifier the process executes under, or
// "".
func (p *Process) Txn() string {
	return p.kernel().Procs().TxnOf(p.pid)
}

// InTxn reports whether the process executes within a transaction.
func (p *Process) InTxn() bool { return p.Txn() != "" }

// BeginTrans starts a transaction, or deepens the nesting if already in
// one (section 2).  It returns the nesting level.
func (p *Process) BeginTrans() (int, error) {
	ps, err := p.state()
	if err != nil {
		return 0, err
	}
	if ps.TxnID != "" {
		// Nested: count only.
		return p.kernel().Procs().BeginTrans(p.pid, ps.TxnID)
	}
	txid := p.sys.cl.NewTxnID(p.site)
	n, err := p.kernel().Procs().BeginTrans(p.pid, txid)
	if err != nil {
		return 0, err
	}
	if err := p.kernel().Procs().SetTop(p.pid, p.pid, p.site); err != nil {
		return 0, err
	}
	ts := &txnState{txid: txid}
	ts.sites = append(ts.siteBuf[:0], p.site)
	p.sys.mu.Lock()
	p.sys.active[txid] = ts
	p.sys.mu.Unlock()
	p.sys.prof().TxnBegin(txid, p.sys.cl.Clock().Now())
	p.kernel().Tracer().Record(trace.TxnBegin, txid, "", int64(p.pid))
	return n, nil
}

// EndTrans closes one nesting level.  At level zero on the top-level
// process it commits the transaction: the merged file-list drives the
// two-phase commit from this site, the coordinator site (section 4.2).
// All member processes must have completed (their file-lists merge as
// they exit).
func (p *Process) EndTrans() error {
	ps, err := p.state()
	if err != nil {
		return err
	}
	txid := ps.TxnID
	if txid == "" {
		return fmt.Errorf("%w: pid %d", ErrNotInTxn, p.pid)
	}
	ts := p.sys.lookupTxn(txid)
	if ts == nil && ps.TopLevel {
		// Aborted underneath us (partition, deadlock victim).
		p.kernel().Procs().ClearTxn(p.pid)
		p.kernel().DropLockCache(txid) // a grant that raced the abort
		return fmt.Errorf("%w: %s", ErrAborted, txid)
	}
	if ps.TopLevel && ps.Nesting == 1 && ps.Children > 0 {
		return fmt.Errorf("%w: %s has %d", ErrChildrenActive, txid, ps.Children)
	}
	done, err := p.kernel().Procs().EndTrans(p.pid)
	if err != nil {
		return err
	}
	if !done {
		return nil
	}

	// Commit time: this site coordinates.
	var buf []proc.FileRef
	if ts != nil {
		buf = ts.files[:0]
	}
	files, err := p.kernel().Procs().FileList(buf, p.pid)
	if err != nil {
		return err
	}
	defer func() {
		p.kernel().Procs().ClearTxn(p.pid)
		if ts != nil {
			p.sys.dropLockCaches(ts)
		}
		p.sys.mu.Lock()
		delete(p.sys.active, txid)
		p.sys.mu.Unlock()
	}()
	if len(files) == 0 {
		// Nothing locked inside the transaction: trivially committed, and
		// trivially local - no participant anywhere.
		p.sys.Stats().Inc(stats.TxnCommits)
		p.sys.Stats().Inc(stats.LocalCommits)
		p.sys.prof().TxnEnd(txid, p.sys.cl.Clock().Now(), true)
		p.kernel().Tracer().Record(trace.TxnCommit, txid, "", 0)
		return nil
	}
	// Adaptive placement: when a single remote site stores every file,
	// hand it the coordinator role - prepare and phase two run locally
	// there (one-phase with FastPaths), and this site pays one round
	// trip instead of a cross-site protocol.
	h := handoff{sys: p.sys, k: p.kernel(), txid: txid, files: files}
	routed := false
	if p.sys.cl.Config().AdaptivePlacement {
		h.target, routed = p.sys.cl.RouteTarget(p.site, files)
	}
	if !routed {
		if h.coord, err = p.kernel().Coordinator(); err != nil {
			// This site cannot coordinate (no volume for its log): the
			// transaction must abort, releasing its retained locks
			// everywhere - they must never leak.
			if ts != nil {
				p.sys.abortTxn(ts)
			}
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
	}
	return p.commitVia(ts, &h, (routed || oneSite(files)) && p.sys.onlyRead(ts))
}

// handoff is a commit as EndTrans hands it to its driver: the local
// coordinator, or (coord nil) a routed one at target.
type handoff struct {
	sys    *System
	k      *cluster.Site
	coord  *tpc.Coordinator
	target simnet.SiteID
	txid   string
	files  []proc.FileRef
}

func (h *handoff) commit() error {
	if h.coord != nil {
		return h.coord.CommitTransaction(h.txid, h.files)
	}
	return h.k.RouteCommit(h.target, h.txid, h.files)
}

// releases recycles the handoffs read-only transactions' background
// releases run, so the exit allocates nothing that outlives it.
var releases = sync.Pool{New: func() any { return new(handoff) }}

// oneSite reports whether one site stores every file of the list: the
// commit's first act is then its one message there (a one-phase prepare),
// where a commit over several sites forces its coordinator record first.
func oneSite(files []proc.FileRef) bool {
	for _, f := range files[1:] {
		if f.StorageSite != files[0].StorageSite {
			return false
		}
	}
	return true
}

// onlyRead reports whether a committing transaction may return at its
// lock point: FastPaths is on, the clock is virtual and no process of the
// transaction wrote or took a lock above Shared.
func (sys *System) onlyRead(ts *txnState) bool {
	if ts == nil || !sys.cl.Config().FastPaths {
		return false
	}
	if _, virtual := vtime.AsVirtual(sys.cl.Clock()); !virtual {
		return false // no instant to settle: the release could trail the next request
	}
	sys.mu.Lock()
	defer sys.mu.Unlock()
	return !ts.wrote
}

// runRelease is a read-only transaction's background commit.  Its error
// is nobody's to return: the outcome was decided at the lock point.  A
// release a partition or crash lost leaves the transaction's Shared locks
// at a storage site that did not hear it, so it waits for the network to
// heal and aborts them then (redriveAborts).
func runRelease(arg any, _ int) {
	r := arg.(*handoff)
	if err := r.commit(); err != nil {
		r.sys.loseAbort(r.txid, r.k.ID())
	}
	*r = handoff{}
	releases.Put(r)
}

// commitVia hands the outcome to a commit driver (the local coordinator,
// or a routed remote one); external abort triggers stand down from here
// on - only the protocol decides the outcome.
//
// atLockPoint commits a transaction that only read without waiting for
// its commit.  Under two-phase locking it has held every lock it will
// ever take since its last read - its lock point - and nothing anywhere
// is left to decide (DESIGN.md section 10): its storage site votes
// read-only and releases its Shared locks.  That same commit runs in a
// background actor, and the instant settles first, so its message to the
// one storage site is on the wire before this process's next request.
func (p *Process) commitVia(ts *txnState, h *handoff, atLockPoint bool) error {
	txid := h.txid
	p.sys.mu.Lock()
	if ts != nil {
		if ts.aborted {
			p.sys.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrAborted, txid)
		}
		ts.committing = true
	}
	p.sys.mu.Unlock()
	clk := p.sys.cl.Clock()
	prof := p.sys.prof()
	if atLockPoint {
		r := releases.Get().(*handoff)
		*r = *h
		vtime.GoArg(clk, r, runRelease)
		vtime.Settle(clk)
		prof.TxnEnd(txid, clk.Now(), true)
		return nil
	}
	commitT0 := clk.Now()
	err := h.commit()
	prof.Window(txid, telemetry.WinCommit, clk.Now().Sub(commitT0))
	if err != nil {
		prof.TxnEnd(txid, clk.Now(), false)
		return fmt.Errorf("%w: %v", ErrAborted, err)
	}
	prof.TxnEnd(txid, clk.Now(), true)
	return nil
}

// AbortTrans undoes the whole transaction: every member process's changes
// are rolled back and its locks released, cascading down the process tree
// (section 4.3).
func (p *Process) AbortTrans() error {
	ps, err := p.state()
	if err != nil {
		return err
	}
	txid := ps.TxnID
	if txid == "" {
		return fmt.Errorf("%w: pid %d", ErrNotInTxn, p.pid)
	}
	if ts := p.sys.lookupTxn(txid); ts != nil {
		p.sys.abortTxn(ts)
	} else {
		// Already aborted system-wide; still clear local state.
		p.kernel().AbortEverywhere(txid)
	}
	// Cascade: clear transaction state down the process tree from the
	// top-level process.
	p.sys.clearTxnTree(txid, 0)
	return nil
}

// clearTxnTree clears transaction state on every process of the
// transaction at every site (the process-tree side of the abort cascade).
// keepPID, if nonzero, is left in the transaction so it can still observe
// ErrAborted from its own EndTrans (the top-level process of a
// transaction killed out from under it).
func (sys *System) clearTxnTree(txid string, keepPID int) {
	for _, id := range sys.cl.Sites() {
		s := sys.cl.Site(id)
		if s == nil || !s.Up() {
			continue
		}
		for _, pid := range s.Procs().Resident() {
			if pid != keepPID && s.Procs().TxnOf(pid) == txid {
				s.Procs().ClearTxn(pid)
			}
		}
	}
}

// Fork creates a member process at the given site.  Within a transaction
// the child inherits the transaction identifier and lock access (section
// 3.1) and will merge its file-list into the top-level process when it
// exits (section 4.1).
func (p *Process) Fork(at simnet.SiteID) (*Process, error) {
	pid, err := p.kernel().Spawn(p.pid, at)
	if err != nil {
		return nil, err
	}
	if txid := p.Txn(); txid != "" {
		p.sys.noteTxnSite(txid, at)
	}
	return &Process{sys: p.sys, pid: pid, site: at, k: p.sys.cl.Site(at)}, nil
}

// Exit completes the process.  A member process of a transaction merges
// its file-list to the top-level process (retrying across migrations).
func (p *Process) Exit() error {
	return p.kernel().ExitProc(p.pid)
}

// Migrate moves the process to another site; subsequent operations issue
// from there.  Migration is transparent to the transaction.
func (p *Process) Migrate(to simnet.SiteID) error {
	if err := p.kernel().Migrate(p.pid, to); err != nil {
		return err
	}
	p.site, p.k = to, p.sys.cl.Site(to)
	if txid := p.Txn(); txid != "" {
		p.sys.noteTxnSite(txid, to)
	}
	return nil
}

// checkLive fails fast if the process's transaction has been aborted
// underneath it (deadlock victim or partition).  writes marks the
// transaction as one that did not only read, before the request goes out.
func (p *Process) checkLive(txid string, writes bool) error {
	if txid == "" {
		return nil
	}
	p.sys.mu.Lock()
	ts := p.sys.active[txid]
	if ts != nil && writes {
		ts.wrote = true
	}
	p.sys.mu.Unlock()
	if ts == nil {
		return fmt.Errorf("%w: %s", ErrAborted, txid)
	}
	return nil
}

// RunTransaction executes body inside a transaction with automatic redo:
// if the transaction is chosen as a deadlock victim or aborted by a
// failure, it is retried (up to attempts times).  This is one of the
// "variety of deadlock resolution and redo strategies" section 3.1 leaves
// to user level; it lives here as a convenience, not in the kernel.
//
// body must be idempotent from a clean slate: it re-executes in a fresh
// transaction on retry.  A body error aborts the transaction and is
// returned without retry.
func (p *Process) RunTransaction(attempts int, body func() error) error {
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for i := 0; i < attempts; i++ {
		if _, err := p.BeginTrans(); err != nil {
			return err
		}
		if err := body(); err != nil {
			p.AbortTrans() //nolint:errcheck // best-effort rollback; the body error is what matters
			if errors.Is(err, ErrDeadlockVictim) || errors.Is(err, ErrAborted) {
				last = err
				continue // redo
			}
			return err
		}
		err := p.EndTrans()
		if err == nil {
			return nil
		}
		last = err
		if !errors.Is(err, ErrAborted) {
			return err
		}
	}
	return fmt.Errorf("core: transaction redo exhausted after %d attempts: %w", attempts, last)
}

// Kill simulates the failure of the process (section 4.3: "when any
// process within a transaction fails, or issues an AbortTrans call, the
// entire transaction must abort").  A member process's death dooms its
// whole transaction; a non-transaction process's death releases its locks
// and discards its uncommitted modifications (its files are closed
// without the commit a normal close performs).
func (p *Process) Kill() error {
	ps, err := p.state()
	if err != nil {
		return err
	}
	if ps.TxnID != "" {
		if ts := p.sys.lookupTxn(ps.TxnID); ts != nil {
			p.sys.abortTxn(ts)
		} else {
			p.kernel().AbortEverywhere(ps.TxnID)
		}
		// Leave the top-level process nominally in the transaction so its
		// EndTrans observes the abort (unless the dead process IS it).
		keep := ps.TopPID
		if keep == p.pid {
			keep = 0
		}
		p.sys.clearTxnTree(ps.TxnID, keep)
	} else {
		// Non-transaction death: roll back the process's uncommitted
		// work and release its locks at every reachable site.
		p.sys.cl.ReapProcess(p.pid)
	}
	p.kernel().Procs().Remove(p.pid)
	return nil
}
