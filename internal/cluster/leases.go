package cluster

// Sticky lock leases (DESIGN.md section 13).
//
// The paper's protocol pays one lock-message round trip per remote
// record-lock acquisition, which PR 7's profiler showed is the dominant
// non-I/O latency sink.  A lease lets the storage site retain a released
// transaction's coverage on behalf of the requesting site: the requester
// caches the grant, its next transaction skips the lock message, and the
// real descriptor materializes at the data access (handleRead /
// handleWrite), so Figure 1 is enforced against the actual lock list
// exactly as before.  A lease has no clock: it stands until a revoke, a
// topology change or a crash drops it.  A conflicting request triggers an
// asynchronous callback/revoke over simnet; when the callback cannot be
// delivered (partition or crash) the storage site reclaims the lease at
// once.  The holder's cache may then be stale, and that is safe: its next
// hit materializes an ordinary lock, which waits behind the conflicting
// one (section 3.1's implicit acquisition at access time), so a lease can
// delay - never defeat - a conflicting lock.

import (
	"slices"

	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// siteLease is the requesting site's memory of lease coverage on one
// remote file: the spans granted, an escalated one (the whole file, or
// the hull of the site's records) among them.
type siteLease struct {
	spans []leaseSpan
}

type leaseSpan struct {
	mode lockmgr.Mode
	off  int64
	len  int64
}

// leaseEscalateThreshold is the number of lease grants to one (file, site)
// pair that escalates its byte-range leases to a single whole-file lease.
const leaseEscalateThreshold = 4

// leaseKey names a (file, leaseholder) pair at the storage site.
type leaseKey struct {
	fileID string
	site   simnet.SiteID
}

// leaseMeta is the storage site's per-(file, leaseholder) lease state.  A
// revoke resets it rather than deleting it, so the pair's next grant
// allocates nothing.
type leaseMeta struct {
	grants   int  // lock grants since the last revoke; drives escalation
	revoking bool // a callback/revoke for this pair is in flight

	// What the revoke in flight works on, set by leaseRevokeBegin: the
	// record is its actor's argument (runLeaseRevoke), not a closure.
	k      *incarnation
	fileID string
	of     *openFile
	site   simnet.SiteID
}

// ---- requesting-site lease cache ----

// leaseCacheAdd records coverage the storage site granted as a lease.  It
// stands until a callback, a topology change or a crash drops it; a hit
// on a lease the storage site has meanwhile reclaimed is caught by
// materialization (the lease entry is gone, the materializing lock waits
// honestly).
func (k *incarnation) leaseCacheAdd(fileID string, mode lockmgr.Mode, off, length int64) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if k.dead.Load() {
		return
	}
	l := k.leases[fileID]
	if l == nil {
		if n := len(k.leaseSpare); n > 0 {
			l, k.leaseSpare = k.leaseSpare[n-1], k.leaseSpare[:n-1]
		} else {
			l = &siteLease{}
		}
		k.leases[fileID] = l
		k.leaseGauge.Add(1)
	}
	for _, sp := range l.spans {
		if sp.mode >= mode && sp.off <= off && sp.off+sp.len >= off+length {
			return // already covered at this strength
		}
	}
	// An escalated span absorbs the grants it covers.
	l.spans = slices.DeleteFunc(l.spans, func(sp leaseSpan) bool {
		return sp.mode <= mode && off <= sp.off && sp.off+sp.len <= off+length
	})
	l.spans = append(l.spans, leaseSpan{mode: mode, off: off, len: length})
}

// leaseHit reports whether this site's cached lease covers
// [off, off+length) at mode.
func (k *incarnation) leaseHit(fileID string, mode lockmgr.Mode, off, length int64) bool {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	l := k.leases[fileID]
	if l == nil {
		return false
	}
	return lockmgr.SpansCover(l.spans, off, length, func(sp leaseSpan) (int64, int64, bool) {
		return sp.off, sp.off + sp.len, sp.mode >= mode
	})
}

// leaseForgetLocked drops fileID's cached lease l and keeps the emptied
// record, span array and all, for the next leaseCacheAdd: the gauge counts
// the map's entries, not the records.  Caller holds leaseMu.
func (k *incarnation) leaseForgetLocked(fileID string, l *siteLease) {
	delete(k.leases, fileID)
	k.leaseGauge.Add(-1)
	l.spans = l.spans[:0]
	k.leaseSpare = append(k.leaseSpare, l)
}

// leaseCacheDrop forgets the cached lease for one file: a revoke callback,
// or an owner move to or from this site (a site holds no lease on a file
// it stores).
func (k *incarnation) leaseCacheDrop(fileID string) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if l := k.leases[fileID]; l != nil {
		k.leaseForgetLocked(fileID, l)
	}
}

// dropLeasesStoredAt forgets every cached lease on files the downed site
// stores: its lock table dies with it, so the coverage no longer exists.
func (k *incarnation) dropLeasesStoredAt(down simnet.SiteID) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	for fileID, l := range k.leases {
		if site, err := k.cl.home(fileID); err == nil && site == down {
			k.leaseForgetLocked(fileID, l)
		}
	}
}

// forfeitLeases runs at Crash: the lease cache dies with the incarnation,
// and the gauge counts only what a live one holds (leaseCacheAdd refuses a
// dead one, so a requester that outlives the crash cannot bring it back).
func (k *incarnation) forfeitLeases() {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if n := len(k.leases); n > 0 {
		k.leaseGauge.Add(int64(-n))
		clear(k.leases)
	}
}

// handleLeaseRevoke is the leaseholder's side of the callback the storage
// site sends when its lease blocks a conflicting request: drop the cached
// coverage.  It is idempotent — duplicates and crossed callbacks are
// harmless.
func (k *incarnation) handleLeaseRevoke(req fileReq) error {
	k.leaseCacheDrop(req.FileID)
	return nil
}

// ---- storage-site lease book-keeping ----

// leaseGranted records a lock grant to a remote requester and decides
// whether a lease may piggyback on the reply.  No lease is granted while
// a revoke for the pair is in flight (the callback and the new grant
// would race); otherwise the grant count rises.  escalate reports that
// the count reached the whole-file escalation threshold.
func (k *incarnation) leaseGranted(fileID string, from simnet.SiteID) (install, escalate bool) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	lm := k.leaseMetaLocked(fileID, from)
	if lm.revoking {
		return false, false
	}
	lm.grants++
	return true, lm.grants >= leaseEscalateThreshold
}

// leaseMetaLocked returns the pair's lease state, made on first use.
// Caller holds leaseMu.
func (k *incarnation) leaseMetaLocked(fileID string, holder simnet.SiteID) *leaseMeta {
	key := leaseKey{fileID, holder}
	lm := k.leaseMeta[key]
	if lm == nil {
		lm = &leaseMeta{}
		k.leaseMeta[key] = lm
	}
	return lm
}

// leaseRevokeBegin marks a revoke of the pair's lease on of in flight and
// returns its record, nil if one already is: a second conflicting request
// while one revoke is pending is deduped.
func (k *incarnation) leaseRevokeBegin(fileID string, of *openFile, holder simnet.SiteID) *leaseMeta {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	lm := k.leaseMetaLocked(fileID, holder)
	if lm.revoking {
		return nil
	}
	lm.revoking, lm.k, lm.fileID, lm.of, lm.site = true, k, fileID, of, holder
	return lm
}

// leaseRevokeEnd resets the pair's lease state once the lease is
// reclaimed.
func (k *incarnation) leaseRevokeEnd(lm *leaseMeta) {
	k.leaseMu.Lock()
	*lm = leaseMeta{}
	k.leaseMu.Unlock()
}

// leaseMetaDropSite forgets every pair involving the downed leaseholder.
func (k *incarnation) leaseMetaDropSite(down simnet.SiteID) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	for key := range k.leaseMeta {
		if key.site == down {
			delete(k.leaseMeta, key)
		}
	}
}

// ---- revoke protocol ----

// startLeaseRevokes fires the asynchronous callback/revoke at every
// blocking leaseholder.  Each revoke is one clock actor (runLeaseRevoke):
// it tries the callback (the holder drops its cache and acks), and
// whether that was delivered or the holder proved unreachable, the lease
// entry is then reclaimed and the wait queue pumped, granting the blocked
// requests in FIFO order.  The states of a pair are pending -> revoking
// -> (acked | unreachable) -> removed.
func (k *incarnation) startLeaseRevokes(fileID string, of *openFile, sites []int) {
	for _, site := range sites {
		if lm := k.leaseRevokeBegin(fileID, of, simnet.SiteID(site)); lm != nil {
			vtime.GoArg(k.cl.cfg.Clock, lm, runLeaseRevoke)
		}
	}
}

// runLeaseRevoke is one revoke's actor; arg is the pair's *leaseMeta.
func runLeaseRevoke(arg any, _ int) {
	lm := arg.(*leaseMeta)
	k, fileID, of, holder := lm.k, lm.fileID, lm.of, lm.site
	// An undelivered callback leaves the holder's cache stale, which
	// materialization makes safe, so the lease is reclaimed either way.
	simnet.ExchangeRetry[none](k.ep, holder, "leaseRevoke", fileReq{FileID: fileID}) //nolint:errcheck // reclaimed whether or not the holder heard
	k.leaseRevokeEnd(lm)
	if of.locks.RevokeLease(int(holder)) {
		k.tr.Record(trace.LeaseRevoke, "", fileID, int64(holder))
	}
}

// lockAt runs one lock request against the file's lock list, firing the
// callback/revoke protocol first when lease entries stand in the way -
// the single choke point under lockAccess.
func (k *incarnation) lockAt(of *openFile, fileID string, lreq lockmgr.Request) (lockmgr.Result, error) {
	if k.cl.cfg.LockLeases {
		var buf [4]int // no allocation up to four leaseholders
		if sites := of.locks.BlockingLeaseSites(buf[:0], lreq); len(sites) > 0 {
			k.startLeaseRevokes(fileID, of, sites)
		}
	}
	return of.locks.Lock(lreq)
}

// implicitLock takes a transaction access's implicit lock (section 3.1)
// at the storage site.  A carried lock (FastPaths: the requester missed
// both its caches) may earn a lease, as a lock request's grant does.
// Otherwise the requester skipped the lock message on a lease hit, and
// the lease materializes here, with the data access, into an ordinary
// descriptor of the transaction's group - what prepare, recovery,
// deadlock detection and release see, so the section 5 invariants hold
// under leases.  A stale hit (the lease was reclaimed meanwhile) just
// waits its turn.  The requester may be this site: a hit taken before an
// owner move made it the file's home reaches the file here.
func (k *incarnation) implicitLock(of *openFile, from simnet.SiteID, fileID string, h lockmgr.Holder, name string, mode lockmgr.Mode, off, length int64, carried bool) (grant, error) {
	if !carried && (!k.cl.cfg.LockLeases || length <= 0 || off < 0) {
		return grant{}, lockmgr.ErrAccessDenied
	}
	return k.lockAccess(of, fileID, lockmgr.Request{Holder: h, Mode: mode, Off: off, Len: length, Wait: true, FromSite: int(from), Group: name}, carried)
}

// onTopology reclaims lease state when the failure detector announces a
// site loss (section 4.3): as storage site, this site reclaims the
// downed leaseholder's leases (its cache died with it, so no callback is
// owed); as requester, it forgets cached leases on files the downed site
// stores.
func (s *Site) onTopology(ev simnet.TopologyEvent) {
	k := s.kernel()
	if ev.Kind != simnet.SiteDown || k.dead.Load() {
		return
	}
	for _, down := range ev.Sites {
		if down == k.id {
			continue
		}
		if n := k.locks.RevokeSiteLeases(int(down)); n > 0 {
			k.tr.Record(trace.LeaseRevoke, "", down.String(), int64(n))
		}
		k.leaseMetaDropSite(down)
		k.dropLeasesStoredAt(down)
	}
}
