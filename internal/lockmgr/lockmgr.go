// Package lockmgr implements the record-level (byte-range) locking of
// sections 3 and 5.1: the Figure 1 compatibility rules, enforced (not
// advisory) locks, retained locks under two-phase locking, explicit
// non-transaction locks, lock queueing, append-mode lock-and-extend, and
// the wait-for edge export that the user-level deadlock detector consumes
// (the kernel itself does not detect deadlock, per section 3.1).
//
// Lock descriptors live in a per-file lock list at the file's storage
// site (Figure 3).  Conflicts are judged between lock groups: all
// processes of one transaction form a single group (children inherit
// access, section 3.1), and each non-transaction process is its own
// group.
//
// Retention rules (section 3.3):
//
//  1. a lock obtained by a transaction is retained until the transaction
//     commits or aborts - Unlock only marks it retained, and it keeps
//     excluding other groups;
//  2. adoption of modified-but-uncommitted records is coordinated by the
//     transaction layer (internal/core), which converts the relevant
//     locks to transactional ones here and transfers record ownership in
//     the shadow layer.
//
// Section 3.4's escape hatches are honored: a lock requested with NonTxn
// follows Figure 1 but is exempt from retention even when requested by a
// transaction.
package lockmgr

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/costmodel"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Mode is a lock mode.  ModeShared and ModeExclusive are requestable;
// Unix access (no lock) is checked via CheckAccess.
type Mode int

// Lock modes, ordered by strength.
const (
	ModeNone Mode = iota
	ModeShared
	ModeExclusive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeShared:
		return "shared"
	case ModeExclusive:
		return "exclusive"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Errors returned by locking operations.
var (
	// ErrConflict is the queue-or-fail "fail": the request conflicts and
	// the caller asked not to wait.
	ErrConflict = errors.New("lockmgr: lock conflict")
	// ErrAccessDenied reports an unlocked (Unix-mode) access blocked by
	// an enforced lock, per Figure 1.
	ErrAccessDenied = errors.New("lockmgr: access denied by enforced lock")
	// ErrCancelled reports a queued request cancelled (typically because
	// its transaction was chosen as a deadlock victim).
	ErrCancelled = errors.New("lockmgr: queued lock request cancelled")
	// ErrTimeout reports a queued request that outlived its deadline.
	ErrTimeout = errors.New("lockmgr: lock wait timed out")
	// ErrBadRange reports a non-positive length or negative offset.
	ErrBadRange = errors.New("lockmgr: bad byte range")
)

// Holder identifies the requesting process and, when it executes within a
// transaction, the transaction (the lock descriptor fields of Figure 3).
type Holder struct {
	PID int
	Txn string // transaction identifier; empty outside transactions
}

// Group returns the conflict group: the transaction when there is one
// (all member processes share locks), else the process itself.
func (h Holder) Group() string {
	if h.Txn != "" {
		return "txn:" + h.Txn
	}
	return "pid:" + strconv.Itoa(h.PID)
}

// IsTxn reports whether the holder executes within a transaction.
func (h Holder) IsTxn() bool { return h.Txn != "" }

// span is a half-open byte range [lo, hi).
type span struct{ lo, hi int64 }

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// entry is one lock descriptor in the file's lock list.
type entry struct {
	holder   Holder
	group    string
	mode     Mode
	s        span
	retained bool // unlocked by its transaction but held until commit/abort
	nonTxn   bool // section 3.4 non-transaction lock: exempt from retention
	// leased marks a sticky lease (DESIGN.md section 13): the descriptor
	// survives its transaction's release so leaseSite can re-acquire the
	// range without a lock message.  Lease entries exclude other groups
	// per Figure 1 but are invisible to the requests of their own site,
	// to Unix-mode CheckAccess, and to wait-for edge construction.
	leased    bool
	leaseSite int
}

// leaseGroup names the conflict group of one site's leases on a file.
func leaseGroup(site int) string { return "lease:site" + strconv.Itoa(site) }

// heldBy reports whether the descriptor belongs to h's conflict group,
// without building the group string (lease entries belong to no holder).
func (e *entry) heldBy(h Holder) bool {
	return !e.leased && e.holder.Txn == h.Txn && (h.Txn != "" || e.holder.PID == h.PID)
}

// leaseSpanMax bounds a whole-file lease span: large enough to cover any
// offset the append path can reach.
const leaseSpanMax = int64(1) << 62

// Request describes one locking request (the Lock(file,length,mode) call
// of section 3.2, plus the queueing/append options).
type Request struct {
	Holder Holder
	Mode   Mode  // ModeShared or ModeExclusive
	Off    int64 // ignored when AtEOF
	Len    int64
	// AtEOF locks (and logically extends) the range starting at the
	// current end of file, computed atomically at grant time - the
	// shared-log append of section 3.2 that avoids livelock.
	AtEOF bool
	// NonTxn requests a non-transaction lock (section 3.4): Figure 1
	// rules apply but the two-phase retention does not.
	NonTxn bool
	// Wait queues the request instead of failing on conflict.
	Wait bool
	// Timeout bounds the queue wait; zero means wait indefinitely.
	Timeout time.Duration
	// FromSite is the requesting site (0 when unknown/local).  A site's
	// own lease entries never block its requests: the lease is exactly
	// its entitlement to re-acquire without a round trip.
	FromSite int
}

// Result reports a granted lock.  Off is the actual locked offset, which
// differs from the request for AtEOF locks.
type Result struct {
	Off int64
	Len int64
}

// EntryInfo is an introspection copy of one lock descriptor.
type EntryInfo struct {
	Holder   Holder
	Mode     Mode
	Off, Len int64
	Retained bool
	NonTxn   bool
	// Leased marks a sticky lease descriptor held on behalf of LeaseSite
	// (no live transaction behind it).
	Leased    bool
	LeaseSite int
}

// WaitEdge is one edge of the wait-for graph: Waiter's group is blocked
// by Holder's group on FileID.
type WaitEdge struct {
	Waiter string
	Holder string
	FileID string
}

// waiter is a queued request.
type waiter struct {
	req      Request
	group    string // req.Holder.Group(), built once at enqueue
	done     chan grant
	enqueued time.Time // for wait-queue age reporting
}

type grant struct {
	res Result
	err error
}

// FileLocks is the lock list of one file at its storage site.
type FileLocks struct {
	id     string
	sizeFn func() int64 // current working file size, for AtEOF
	st     *stats.Set
	tr     *trace.Tracer // nil disables lock-event tracing
	clk    vtime.Clock   // paces waits and queue-age arithmetic

	// Telemetry handles, resolved once from the stats registry (nil
	// handles no-op).  qdepth is a plain atomic gauge — not a computed
	// view — so the virtual clock's sampler can read it at quiescence
	// without touching fl.mu, which is held across clock calls.
	qdepth *telemetry.Gauge
	waitNS *telemetry.Histogram

	mu      sync.Mutex
	entries []*entry
	queue   []*waiter
	// mgr is the table whose group index this list reports to; nil for a
	// stand-alone list and after Drop.  Guarded by mu.
	mgr *Manager
}

// NewFileLocks creates a lock list for the file.  sizeFn supplies the
// current (working) size for append-mode locks; nil means size 0.
func NewFileLocks(id string, sizeFn func() int64, st *stats.Set) *FileLocks {
	if sizeFn == nil {
		sizeFn = func() int64 { return 0 }
	}
	reg := st.Registry()
	return &FileLocks{
		id: id, sizeFn: sizeFn, st: st, clk: vtime.Real(),
		qdepth: reg.Gauge("lock_queue_depth"),
		waitNS: reg.Histogram("lock_wait_ns", telemetry.DurationBuckets()),
	}
}

// ID returns the file's identifier.
func (fl *FileLocks) ID() string { return fl.id }

// SetTracer attaches an event tracer to this lock list.  Call before
// the list sees traffic; lock request/grant/wait/deny events carry the
// requesting group as the transaction and the file id as the object.
func (fl *FileLocks) SetTracer(t *trace.Tracer) { fl.tr = t }

// SetClock attaches the clock pacing waits.  Call before the list sees
// traffic; nil is ignored.
func (fl *FileLocks) SetClock(c vtime.Clock) {
	if c != nil {
		fl.clk = c
	}
}

// conflicting returns the groups whose entries block the request over s.
// A process's own pre-transaction locks never block it: section 3.4 lets
// resources locked before BeginTrans be used within the transaction
// (without joining it).  Lease entries block foreign requests like held
// locks (the storage site revokes them before queueing the waiter), but a
// site's own leases never block it, and the wait-for graph builder asks
// for them to be skipped entirely — a lease has no live transaction
// behind it, so it can never be a deadlock participant.  Caller holds
// fl.mu.
func (fl *FileLocks) conflicting(h Holder, group string, mode Mode, s span, fromSite int, includeLeases bool) []string {
	var out []string
	fl.st.Add(stats.Instructions, int64(len(fl.entries))*costmodel.InstrLockListScanEntry)
scan:
	for _, e := range fl.entries {
		if e.group == group || !e.s.overlaps(s) {
			continue
		}
		if e.leased && (!includeLeases || (fromSite != 0 && e.leaseSite == fromSite)) {
			continue
		}
		if h.IsTxn() && e.holder.PID == h.PID && e.holder.Txn == "" {
			continue // the requester's own pre-transaction lock
		}
		if mode == ModeExclusive || e.mode == ModeExclusive {
			for _, g := range out {
				if g == e.group {
					continue scan
				}
			}
			out = append(out, e.group)
		}
	}
	sort.Strings(out)
	return out
}

// carve appends to kept the fragments of e that lie outside s.
func carve(kept []*entry, e *entry, s span) []*entry {
	if e.s.lo < s.lo {
		left := *e
		left.s = span{e.s.lo, s.lo}
		kept = append(kept, &left)
	}
	if e.s.hi > s.hi {
		right := *e
		right.s = span{s.hi, e.s.hi}
		kept = append(kept, &right)
	}
	return kept
}

// install adds ne to the list, absorbing its group's overlapping entries
// of equal or weaker mode.  Transactional and lease coverage never
// weakens: entries held at a stronger mode survive untouched (two-phase
// locking forbids early release; the paper's retention rule 1), so a
// "downgrade" request leaves the stronger lock in place where it was
// held.  Non-transaction processes (and NonTxn-mode locks) may truly
// downgrade.  Caller holds fl.mu.
func (fl *FileLocks) install(ne *entry) {
	first, had := -1, false
	for i, e := range fl.entries {
		if e.group != ne.group {
			continue
		}
		had = true
		if e.s.overlaps(ne.s) {
			first = i
			break
		}
	}
	if first < 0 {
		fl.entries = append(fl.entries, ne)
		if !had {
			fl.mgr.index(ne.group, fl)
		}
		return
	}
	kept := make([]*entry, first, len(fl.entries)+2)
	copy(kept, fl.entries[:first])
	for _, e := range fl.entries[first:] {
		switch {
		case e.group != ne.group || !e.s.overlaps(ne.s):
			kept = append(kept, e)
		case e.mode > ne.mode && (ne.leased || (ne.holder.IsTxn() && !e.nonTxn)):
			// Keep the stronger entry whole; the new (weaker) entry
			// overlaps it harmlessly.
			kept = append(kept, e)
		default:
			kept = carve(kept, e, ne.s)
		}
	}
	fl.entries = append(kept, ne)
}

// filterInPlace removes from list, in place and keeping order, every
// element drop accepts; a list nothing is removed from is not touched.
func filterInPlace[T any](list []*T, drop func(*T) bool) []*T {
	kept := list[:0]
	for _, x := range list {
		if !drop(x) {
			kept = append(kept, x)
		}
	}
	clear(list[len(kept):])
	return kept
}

// forgetGroup removes the list from the group's index entry once the
// group has neither descriptor nor waiter left here.  Caller holds fl.mu.
func (fl *FileLocks) forgetGroup(group string) {
	if fl.mgr == nil {
		return
	}
	for _, e := range fl.entries {
		if e.group == group {
			return
		}
	}
	for _, w := range fl.queue {
		if w.group == group {
			return
		}
	}
	fl.mgr.unindex(group, fl)
}

// Lock processes one lock request at the storage site.  On conflict it
// either fails with ErrConflict (carrying the blocking groups in its
// message) or queues per Request.Wait.
func (fl *FileLocks) Lock(req Request) (Result, error) {
	if req.Len <= 0 || (!req.AtEOF && req.Off < 0) {
		return Result{}, fmt.Errorf("%w: off=%d len=%d", ErrBadRange, req.Off, req.Len)
	}
	if req.Mode != ModeShared && req.Mode != ModeExclusive {
		return Result{}, fmt.Errorf("lockmgr: unsupported lock mode %v", req.Mode)
	}
	group := req.Holder.Group()
	fl.mu.Lock()
	fl.st.Add(stats.Instructions, costmodel.InstrLockRequest)
	fl.tr.Record(trace.LockRequest, group, fl.id, int64(req.Mode))

	if res, ok := fl.tryGrantLocked(req, group); ok {
		fl.mu.Unlock()
		fl.st.Inc(stats.LockAcquires)
		fl.tr.Record(trace.LockGrant, group, fl.id, res.Len)
		return res, nil
	}
	if !req.Wait {
		fl.mu.Unlock()
		fl.st.Inc(stats.LockDenials)
		fl.tr.Record(trace.LockDeny, group, fl.id, 0)
		groups := fl.blockingGroups(req, group)
		return Result{}, fmt.Errorf("%w: %s held by %s", ErrConflict, fl.id, strings.Join(groups, ","))
	}
	// Queue and wait.  The wait parks through the clock so a virtual
	// clock advances past it; grants and cancellations arrive by
	// NotifySend from pumpQueueLocked / CancelWaiters.
	w := &waiter{req: req, group: group, done: make(chan grant, 1), enqueued: fl.clk.Now()}
	fl.queue = append(fl.queue, w)
	fl.mgr.index(group, fl)
	fl.st.Inc(stats.LockWaits)
	fl.qdepth.Add(1)
	fl.tr.Record(trace.LockWait, group, fl.id, int64(len(fl.queue)))
	fl.mu.Unlock()

	g, ok := vtime.WaitRecv(fl.clk, w.done, req.Timeout)
	waited := fl.clk.Now().Sub(w.enqueued)
	fl.qdepth.Add(-1)
	fl.waitNS.Observe(waited.Nanoseconds())
	fl.st.Registry().Profiler().Charge(req.Holder.Txn, telemetry.ResLockWait, waited)
	if !ok {
		fl.removeWaiter(w)
		// A grant may have raced the timeout (on the real clock; a
		// virtual wait already prefers the value).
		if g2, ok2 := vtime.TryRecv(w.done); ok2 {
			g = g2
		} else {
			fl.tr.Record(trace.LockDeny, group, fl.id, 0)
			return Result{}, fmt.Errorf("%w: %s", ErrTimeout, fl.id)
		}
	}
	if g.err == nil {
		fl.st.Inc(stats.LockAcquires)
		fl.tr.Record(trace.LockGrant, group, fl.id, g.res.Len)
	}
	return g.res, g.err
}

// blockingGroups recomputes the groups blocking req (for error text).
func (fl *FileLocks) blockingGroups(req Request, group string) []string {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	s := fl.requestSpan(req)
	return fl.conflicting(req.Holder, group, req.Mode, s, req.FromSite, true)
}

// requestSpan resolves AtEOF at this instant.  Caller holds fl.mu.
func (fl *FileLocks) requestSpan(req Request) span {
	if req.AtEOF {
		off := fl.sizeFn()
		return span{off, off + req.Len}
	}
	return span{req.Off, req.Off + req.Len}
}

// tryGrantLocked grants req if compatible, returning the granted range.
// Caller holds fl.mu.
func (fl *FileLocks) tryGrantLocked(req Request, group string) (Result, bool) {
	s := fl.requestSpan(req)
	if len(fl.conflicting(req.Holder, group, req.Mode, s, req.FromSite, true)) > 0 {
		return Result{}, false
	}
	fl.install(&entry{holder: req.Holder, group: group, mode: req.Mode, s: s, nonTxn: req.NonTxn})
	return Result{Off: s.lo, Len: req.Len}, true
}

// removeWaiter unlinks a waiter from the queue.
func (fl *FileLocks) removeWaiter(w *waiter) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.queue = filterInPlace(fl.queue, func(q *waiter) bool { return q == w })
	fl.forgetGroup(w.group)
}

// pumpQueueLocked grants queued requests that have become compatible, in
// FIFO order.  Caller holds fl.mu.
func (fl *FileLocks) pumpQueueLocked() {
	fl.queue = filterInPlace(fl.queue, func(w *waiter) bool {
		res, ok := fl.tryGrantLocked(w.req, w.group)
		if ok {
			vtime.NotifySend(fl.clk, w.done, grant{res: res})
		}
		return ok
	})
}

// Unlock releases the holder's coverage of [off, off+length).  For a
// transaction's (non-NonTxn) locks the descriptors are retained: they
// stop being "actively held" only in the sense that the transaction may
// reacquire them; other groups remain excluded until commit or abort
// (section 3.3 rule 1).  It reports whether anything was retained.
func (fl *FileLocks) Unlock(h Holder, off, length int64) (retained bool, err error) {
	if length <= 0 || off < 0 {
		return false, fmt.Errorf("%w: off=%d len=%d", ErrBadRange, off, length)
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.st.Add(stats.Instructions, costmodel.InstrLockRelease)
	fl.st.Inc(stats.LockReleases)
	group := h.Group()
	s := span{off, off + length}
	var kept []*entry
	for _, e := range fl.entries {
		switch {
		case e.group != group || !e.s.overlaps(s):
			kept = append(kept, e)
		case h.IsTxn() && !e.nonTxn:
			// Rule 1: retain.
			e.retained = true
			retained = true
			kept = append(kept, e)
		default:
			// Non-transaction (or NonTxn-mode) locks really release.
			kept = carve(kept, e, s)
		}
	}
	fl.entries = kept
	fl.forgetGroup(group)
	fl.pumpQueueLocked()
	return retained, nil
}

// ReleaseGroup removes every descriptor of the group (transaction commit
// or abort, or process exit for non-transaction groups) and re-pumps the
// queue.
func (fl *FileLocks) ReleaseGroup(group string) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	before := len(fl.entries)
	fl.entries = filterInPlace(fl.entries, func(e *entry) bool { return e.group == group })
	if removed := before - len(fl.entries); removed > 0 {
		fl.st.Add(stats.LockReleases, int64(removed))
	}
	fl.forgetGroup(group)
	fl.pumpQueueLocked()
}

// CancelWaiters fails every queued request of the group with
// ErrCancelled (deadlock victim treatment).
func (fl *FileLocks) CancelWaiters(group string) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	fl.queue = filterInPlace(fl.queue, func(w *waiter) bool {
		if w.group != group {
			return false
		}
		vtime.NotifySend(fl.clk, w.done, grant{err: fmt.Errorf("%w: %s on %s", ErrCancelled, group, fl.id)})
		return true
	})
	fl.forgetGroup(group)
}

// ForceTransactional converts the group's NonTxn descriptors overlapping
// the range into ordinary transactional (retained) ones.  The transaction
// layer calls this when rule 2 of section 3.3 fires: a lock over a
// modified-but-uncommitted record must be retained regardless of how it
// was requested.
func (fl *FileLocks) ForceTransactional(group string, off, length int64) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	s := span{off, off + length}
	for _, e := range fl.entries {
		if e.group == group && e.s.overlaps(s) {
			e.nonTxn = false
		}
	}
}

// CheckAccess validates an unlocked (Unix-mode) access per Figure 1:
// reads are blocked by other groups' exclusive locks; writes by other
// groups' shared or exclusive locks.  The holder's own group's locks
// never block it.
func (fl *FileLocks) CheckAccess(h Holder, write bool, off, length int64) error {
	if length <= 0 {
		return nil
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	s := span{off, off + length}
	for _, e := range fl.entries {
		fl.st.Add(stats.Instructions, costmodel.InstrLockListScanEntry)
		if e.heldBy(h) || !e.s.overlaps(s) {
			continue
		}
		if e.leased {
			// A lease is a cached re-acquisition right, not active use:
			// Unix-mode access sees exactly what it would have seen after
			// the legacy release.  Any real use of the lease materializes
			// an ordinary descriptor, which this scan does honor.
			continue
		}
		if e.mode == ModeExclusive || (write && e.mode == ModeShared) {
			return fmt.Errorf("%w: %s [%d,%d) %v by %s", ErrAccessDenied,
				fl.id, e.s.lo, e.s.hi, e.mode, e.group)
		}
	}
	return nil
}

// Covers reports whether the holder's group holds locks of at least the
// given mode covering every byte of [off, off+length).
func (fl *FileLocks) Covers(h Holder, mode Mode, off, length int64) bool {
	return fl.covered(off, length, func(e *entry) bool { return e.mode >= mode && e.heldBy(h) })
}

// covered reports whether the descriptors match accepts cover every byte
// of [off, off+length): a greedy sweep over the list, no allocation.
func (fl *FileLocks) covered(off, length int64, match func(*entry) bool) bool {
	if length <= 0 {
		return false
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for need, end := off, off+length; need < end; {
		advanced := false
		for _, e := range fl.entries {
			if e.s.lo <= need && need < e.s.hi && match(e) {
				need = e.s.hi
				advanced = true
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

// GrantLease installs (or widens) site's sticky lease over
// [off, off+length) at mode — the storage-site half of the lease cache of
// DESIGN.md section 13.  A lease is only installed while the wait queue
// is empty, so it can never cut ahead of a queued waiter: FIFO fairness
// is preserved by construction.  Existing lease coverage of the site at a
// weaker or equal mode is absorbed; stronger coverage survives whole.
// Reports whether the lease is in place.
func (fl *FileLocks) GrantLease(site int, mode Mode, off, length int64) bool {
	if site <= 0 || length <= 0 || off < 0 || (mode != ModeShared && mode != ModeExclusive) {
		return false
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.queue) > 0 {
		return false
	}
	fl.install(&entry{
		holder: Holder{PID: -site}, group: leaseGroup(site), mode: mode,
		s: span{off, off + length}, leased: true, leaseSite: site,
	})
	return true
}

// LeaseCovers reports whether site's lease entries at mode or stronger
// cover every byte of [off, off+length) — the storage site's check before
// materializing a lease-hit access into a real descriptor.
func (fl *FileLocks) LeaseCovers(site int, mode Mode, off, length int64) bool {
	return fl.covered(off, length, func(e *entry) bool { return e.leased && e.leaseSite == site && e.mode >= mode })
}

// RevokeLease removes every lease entry held for site and re-pumps the
// queue (waiters the lease was blocking are granted in FIFO order).
// Reports whether anything was removed.
func (fl *FileLocks) RevokeLease(site int) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	before := len(fl.entries)
	fl.entries = filterInPlace(fl.entries, func(e *entry) bool { return e.leased && e.leaseSite == site })
	if len(fl.entries) == before {
		return false
	}
	fl.forgetGroup(leaseGroup(site))
	fl.pumpQueueLocked()
	return true
}

// BlockingLeaseSites returns the sites (other than req.FromSite) whose
// lease entries conflict with req per Figure 1 — the storage site fires
// an async revoke callback at each before letting the request queue.
func (fl *FileLocks) BlockingLeaseSites(req Request) []int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	s := fl.requestSpan(req)
	seen := map[int]bool{}
	var out []int
	for _, e := range fl.entries {
		if !e.leased || e.leaseSite == req.FromSite || !e.s.overlaps(s) {
			continue
		}
		if req.Mode == ModeExclusive || e.mode == ModeExclusive {
			if !seen[e.leaseSite] {
				seen[e.leaseSite] = true
				out = append(out, e.leaseSite)
			}
		}
	}
	sort.Ints(out)
	return out
}

// TryEscalateLease replaces site's byte-range lease entries with a single
// whole-file lease — the escalation of DESIGN.md section 13, triggered by
// dense repeated access.  It succeeds only when the file is quiet: no
// queued waiters, and every descriptor belongs either to site's lease or
// to exceptGroup (the transaction whose grant tripped the threshold).
// The whole-file lease takes the strongest mode among mode and the
// absorbed entries.  Reports whether escalation happened.
func (fl *FileLocks) TryEscalateLease(site int, exceptGroup string, mode Mode) bool {
	if site <= 0 {
		return false
	}
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.queue) > 0 {
		return false
	}
	sawLease := false
	for _, e := range fl.entries {
		if e.leased && e.leaseSite == site {
			sawLease = true
			if e.mode > mode {
				mode = e.mode
			}
			continue
		}
		if e.group != exceptGroup {
			return false
		}
		if e.mode > mode {
			mode = e.mode
		}
	}
	if !sawLease && mode == ModeNone {
		return false
	}
	if mode == ModeNone {
		mode = ModeShared
	}
	fl.entries = filterInPlace(fl.entries, func(e *entry) bool { return e.leased && e.leaseSite == site })
	fl.install(&entry{
		holder: Holder{PID: -site}, group: leaseGroup(site), mode: mode,
		s: span{0, leaseSpanMax}, leased: true, leaseSite: site,
	})
	return true
}

// LeaseSites returns the sites holding lease entries on this file, sorted.
func (fl *FileLocks) LeaseSites() []int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for _, e := range fl.entries {
		if e.leased && !seen[e.leaseSite] {
			seen[e.leaseSite] = true
			out = append(out, e.leaseSite)
		}
	}
	sort.Ints(out)
	return out
}

// info is the introspection copy of the descriptor.
func (e *entry) info() EntryInfo {
	return EntryInfo{
		Holder: e.holder, Mode: e.mode,
		Off: e.s.lo, Len: e.s.hi - e.s.lo,
		Retained: e.retained, NonTxn: e.nonTxn,
		Leased: e.leased, LeaseSite: e.leaseSite,
	}
}

// Entries returns a copy of the lock list, sorted by offset then group.
func (fl *FileLocks) Entries() []EntryInfo {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	out := make([]EntryInfo, 0, len(fl.entries))
	for _, e := range fl.entries {
		out = append(out, e.info())
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Off != out[j].Off {
			return out[i].Off < out[j].Off
		}
		return out[i].Holder.Group() < out[j].Holder.Group()
	})
	return out
}

// Held reports whether the list holds any descriptor; with includeLeases
// false, sticky lease descriptors - cached re-acquisition rights with no
// live holder behind them - do not count.
func (fl *FileLocks) Held(includeLeases bool) bool {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, e := range fl.entries {
		if includeLeases || !e.leased {
			return true
		}
	}
	return false
}

// GroupEntries appends the group's descriptors to dst in offset order
// (ties in list order) and returns the extended slice - Entries for one
// group, without copying or sorting anyone else's.
func (fl *FileLocks) GroupEntries(dst []EntryInfo, group string) []EntryInfo {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	base := len(dst)
	for _, e := range fl.entries {
		if e.group != group {
			continue
		}
		dst = append(dst, e.info())
		for i := len(dst) - 1; i > base && dst[i].Off < dst[i-1].Off; i-- {
			dst[i], dst[i-1] = dst[i-1], dst[i]
		}
	}
	return dst
}

// summarize folds the group's descriptors on this list into gs.
func (fl *FileLocks) summarize(group string, gs *GroupSummary) {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, e := range fl.entries {
		if e.group != group {
			continue
		}
		gs.Entries++
		if e.mode > gs.MaxMode {
			gs.MaxMode = e.mode
		}
	}
}

// detach severs the list from its table's group index (Manager.Drop).
func (fl *FileLocks) detach() {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	for _, e := range fl.entries {
		fl.mgr.unindex(e.group, fl)
	}
	for _, w := range fl.queue {
		fl.mgr.unindex(w.group, fl)
	}
	fl.mgr = nil
}

// WaitEdges returns the current wait-for edges at this file: for every
// queued request, one edge per blocking group.  This is the operating
// system data interface of section 3.1 that lets a system process build
// the global wait-for graph.  Lease entries are excluded: a
// released-but-cached lease has no live transaction behind it, so an
// edge to it could only manufacture a phantom cycle (and a phantom
// victim) — revocation, not victim selection, clears a lease.
func (fl *FileLocks) WaitEdges() []WaitEdge {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	var out []WaitEdge
	for _, w := range fl.queue {
		s := fl.requestSpan(w.req)
		for _, g := range fl.conflicting(w.req.Holder, w.group, w.req.Mode, s, w.req.FromSite, false) {
			out = append(out, WaitEdge{Waiter: w.group, Holder: g, FileID: fl.id})
		}
	}
	return out
}

// QueueLength returns the number of queued requests.
func (fl *FileLocks) QueueLength() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.queue)
}

// QueueInfo is a point-in-time view of one file's wait queue: its depth
// and how long the oldest waiter has been queued.
type QueueInfo struct {
	FileID     string
	Depth      int
	OldestWait time.Duration
}

// QueueInfo snapshots the file's wait-queue state.  OldestWait is zero
// when the queue is empty.
func (fl *FileLocks) QueueInfo() QueueInfo {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	qi := QueueInfo{FileID: fl.id, Depth: len(fl.queue)}
	now := fl.clk.Now()
	for _, w := range fl.queue {
		if age := now.Sub(w.enqueued); age > qi.OldestWait {
			qi.OldestWait = age
		}
	}
	return qi
}

// numShards divides the Manager's file table so that unrelated files'
// lookups do not contend on one map mutex under concurrent transaction
// load.  Per-file serialization stays in FileLocks.mu; the shard mutex
// guards only the id -> FileLocks map itself, so the shard count trades
// memory for lookup parallelism and 32 is plenty for a single site.
const numShards = 32

// lockShard is one slice of the Manager's file table.
type lockShard struct {
	mu    sync.Mutex
	files map[string]*FileLocks
}

// Manager is a storage site's collection of per-file lock lists, sharded
// by file id.
type Manager struct {
	st     *stats.Set
	tr     *trace.Tracer // installed on lock lists created after SetTracer
	clk    vtime.Clock   // inherited by lock lists created after SetClock
	shards [numShards]lockShard

	// groups indexes the table by lock group: the lock lists on which the
	// group has a descriptor or a queued request, maintained by the lists
	// themselves where entries and waiters come and go, so the per-group
	// operations (release at transaction end, the prepare-time summary,
	// lease reclaim) visit the group's files instead of the whole table.
	// gmu is a leaf lock, taken with a list's mu held.  A stored slice is
	// only ever appended to or replaced, never edited, so a reader may walk
	// the header it fetched after dropping gmu.
	gmu    sync.Mutex
	groups map[string][]*FileLocks
}

// NewManager creates an empty lock manager.
func NewManager(st *stats.Set) *Manager {
	m := &Manager{st: st, groups: make(map[string][]*FileLocks)}
	for i := range m.shards {
		m.shards[i].files = make(map[string]*FileLocks)
	}
	return m
}

// shard maps a file id to its table slice (FNV-1a).
func (m *Manager) shard(id string) *lockShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= prime64
	}
	return &m.shards[h%numShards]
}

// File returns (creating if needed) the lock list for the file.  sizeFn
// is installed only on creation.
func (m *Manager) File(id string, sizeFn func() int64) *FileLocks {
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	fl, ok := s.files[id]
	if !ok {
		fl = NewFileLocks(id, sizeFn, m.st)
		fl.mgr = m
		fl.SetTracer(m.tr)
		fl.SetClock(m.clk)
		s.files[id] = fl
	}
	return fl
}

// SetTracer attaches an event tracer; lock lists created afterwards
// inherit it.  Call right after NewManager, before any File calls.
func (m *Manager) SetTracer(t *trace.Tracer) { m.tr = t }

// SetClock attaches a clock; lock lists created afterwards inherit it.
// Call right after NewManager, before any File calls.
func (m *Manager) SetClock(c vtime.Clock) { m.clk = c }

// Files returns the ids of every file with lock state, sorted.  Audit
// tools walk this to scan the whole lock table for conflicts.
func (m *Manager) Files() []string {
	var out []string
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for id := range s.files {
			out = append(out, id)
		}
		s.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Lookup returns the lock list for the file, or nil.
func (m *Manager) Lookup(id string) *FileLocks {
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.files[id]
}

// Drop removes a file's lock list (file closed everywhere).
func (m *Manager) Drop(id string) {
	s := m.shard(id)
	s.mu.Lock()
	fl := s.files[id]
	delete(s.files, id)
	s.mu.Unlock()
	if fl != nil {
		fl.detach()
	}
}

// index adds fl to the group's lock lists unless it is already there.
// Like unindex it is a no-op on a nil table: a stand-alone or dropped
// list reports to nobody.
func (m *Manager) index(group string, fl *FileLocks) {
	if m == nil {
		return
	}
	m.gmu.Lock()
	defer m.gmu.Unlock()
	files := m.groups[group]
	for _, f := range files {
		if f == fl {
			return
		}
	}
	m.groups[group] = append(files, fl)
}

// unindex removes fl from the group's lock lists, dropping an emptied key.
func (m *Manager) unindex(group string, fl *FileLocks) {
	if m == nil {
		return
	}
	m.gmu.Lock()
	defer m.gmu.Unlock()
	files := m.groups[group]
	for i, f := range files {
		if f != fl {
			continue
		}
		if len(files) == 1 {
			delete(m.groups, group)
		} else {
			rest := make([]*FileLocks, 0, len(files)-1)
			m.groups[group] = append(append(rest, files[:i]...), files[i+1:]...)
		}
		return
	}
}

// groupFiles returns the lock lists on which the group holds a descriptor
// or has a queued request.  The slice is the index's own: read it, do not
// keep or modify it.
func (m *Manager) groupFiles(group string) []*FileLocks {
	m.gmu.Lock()
	defer m.gmu.Unlock()
	return m.groups[group]
}

// GroupFileIDs returns the ids of the files on which the group holds a
// descriptor or has a queued request.
func (m *Manager) GroupFileIDs(group string) []string {
	var ids []string
	for _, fl := range m.groupFiles(group) {
		ids = append(ids, fl.id)
	}
	return ids
}

// all snapshots every lock list across the shards.
func (m *Manager) all() []*FileLocks {
	var files []*FileLocks
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.Lock()
		for _, fl := range s.files {
			files = append(files, fl)
		}
		s.mu.Unlock()
	}
	return files
}

// ReleaseGroup releases the group's locks on every file and cancels its
// queued requests.  It returns the lock lists it visited.
func (m *Manager) ReleaseGroup(group string) []*FileLocks {
	m.gmu.Lock()
	files := m.groups[group]
	delete(m.groups, group)
	m.gmu.Unlock()
	for _, fl := range files {
		fl.CancelWaiters(group)
		fl.ReleaseGroup(group)
	}
	return files
}

// GroupSummary is a point-in-time view of one group's held locks across
// every file at a site: how many entries it holds and the strongest mode
// among them.  The commit fast path consults it at prepare time: a
// transaction whose MaxMode never exceeded ModeShared (and that produced
// no intentions) can vote read-only (DESIGN.md section 10).
type GroupSummary struct {
	Entries int
	MaxMode Mode
}

// GroupSummary folds the group's held entries across the site's lock
// table.
func (m *Manager) GroupSummary(group string) GroupSummary {
	var gs GroupSummary
	for _, fl := range m.groupFiles(group) {
		fl.summarize(group, &gs)
	}
	return gs
}

// QueueStats reports the wait-queue state of every file with at least
// one queued request, sorted by file id — the lockstat contention view.
func (m *Manager) QueueStats() []QueueInfo {
	var out []QueueInfo
	for _, fl := range m.all() {
		if qi := fl.QueueInfo(); qi.Depth > 0 {
			out = append(out, qi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FileID < out[j].FileID })
	return out
}

// QueueSummary is the site-wide merge of every file's wait-queue view:
// total files with waiters, total queued requests, and the single oldest
// waiter across the whole table.  QueueStats alone cannot provide the
// oldest waiter — each row is per file, and files hash across the 32 FNV
// shards, so any per-shard or per-row "oldest" can miss the true one.
type QueueSummary struct {
	Files      int
	Depth      int
	OldestFile string
	OldestWait time.Duration
}

// QueueSummary merges the wait-queue state across every shard of the
// table.  Ties on wait age break toward the smaller file id, so the
// result is deterministic.
func (m *Manager) QueueSummary() QueueSummary {
	var qs QueueSummary
	for _, fl := range m.all() {
		qi := fl.QueueInfo()
		if qi.Depth == 0 {
			continue
		}
		qs.Files++
		qs.Depth += qi.Depth
		if qi.OldestWait > qs.OldestWait ||
			(qi.OldestWait == qs.OldestWait && (qs.OldestFile == "" || qi.FileID < qs.OldestFile)) {
			qs.OldestWait = qi.OldestWait
			qs.OldestFile = qi.FileID
		}
	}
	return qs
}

// RevokeSiteLeases reclaims every lease held on behalf of site across the
// whole lock table — the storage site's cleanup when a leaseholder
// crashes or is declared down.  Returns the number of files affected.
func (m *Manager) RevokeSiteLeases(site int) int {
	n := 0
	for _, fl := range m.groupFiles(leaseGroup(site)) {
		if fl.RevokeLease(site) {
			n++
		}
	}
	return n
}

// WaitEdges aggregates the wait-for edges across all files at this site.
func (m *Manager) WaitEdges() []WaitEdge {
	var out []WaitEdge
	for _, fl := range m.all() {
		out = append(out, fl.WaitEdges()...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Waiter != out[j].Waiter {
			return out[i].Waiter < out[j].Waiter
		}
		if out[i].Holder != out[j].Holder {
			return out[i].Holder < out[j].Holder
		}
		return out[i].FileID < out[j].FileID
	})
	return out
}
