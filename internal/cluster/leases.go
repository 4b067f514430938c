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
// exactly as before.  A conflicting request triggers an asynchronous
// callback/revoke over simnet; an undeliverable callback (partition or
// crash) falls back to sitting out the lease's TTL before reclaiming, so
// a lease can delay — never defeat — a conflicting lock.

import (
	"time"

	"repro/internal/lockmgr"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// leaseRevokeReq is the callback the storage site sends a leaseholder
// whose lease blocks a conflicting request: drop the cached coverage.
// The handler is idempotent — duplicates and crossed callbacks are
// harmless.
type leaseRevokeReq struct{ FileID string }

// siteLease is the requesting site's memory of lease coverage on one
// remote file.  Whole (ModeNone when unset) records a whole-file lease
// from escalation; spans the byte-range grants.
type siteLease struct {
	whole  lockmgr.Mode
	spans  []leaseSpan
	expiry time.Time
}

type leaseSpan struct {
	mode lockmgr.Mode
	off  int64
	len  int64
}

// leaseEscalateThreshold is the number of lease grants to one (file, site)
// pair that escalates its byte-range leases to a single whole-file lease.
const leaseEscalateThreshold = 4

// leaseMeta is the storage site's per-(file, leaseholder) lease state.
type leaseMeta struct {
	grants   int       // lock grants since the last revoke; drives escalation
	expiry   time.Time // TTL fallback deadline for an undeliverable revoke
	revoking bool      // a callback/revoke for this pair is in flight
}

// ---- requesting-site lease cache ----

// leaseCacheAdd records coverage the storage site granted as a lease.
// The expiry is computed locally at response receipt; the storage site's
// own deadline ran from grant time, so the storage site always expires
// first and a stale hit here is caught by materialization (the lease
// entry is gone, the materializing lock waits honestly).
func (k *incarnation) leaseCacheAdd(fileID string, mode lockmgr.Mode, off, length int64, whole bool) {
	expiry := k.cl.cfg.Clock.Now().Add(k.cl.cfg.LeaseTTL)
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if k.dead.Load() {
		return
	}
	l := k.leases[fileID]
	if l == nil {
		l = &siteLease{}
		k.leases[fileID] = l
		k.leaseGauge.Add(1)
	}
	if expiry.After(l.expiry) {
		l.expiry = expiry
	}
	if whole {
		if mode > l.whole {
			l.whole = mode
		}
		l.spans = nil
		return
	}
	for _, sp := range l.spans {
		if sp.mode >= mode && sp.off <= off && sp.off+sp.len >= off+length {
			return // already covered at this strength
		}
	}
	l.spans = append(l.spans, leaseSpan{mode: mode, off: off, len: length})
}

// leaseHit reports whether this site's cached lease covers
// [off, off+length) at mode and has not expired; an expired entry is
// dropped on the way out.
func (k *incarnation) leaseHit(fileID string, mode lockmgr.Mode, off, length int64) bool {
	now := k.cl.cfg.Clock.Now()
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	l := k.leases[fileID]
	if l == nil {
		return false
	}
	if !now.Before(l.expiry) {
		delete(k.leases, fileID)
		k.leaseGauge.Add(-1)
		return false
	}
	if l.whole >= mode && l.whole != lockmgr.ModeNone {
		return true
	}
	need := off
	end := off + length
	for need < end {
		advanced := false
		for _, sp := range l.spans {
			if sp.mode >= mode && sp.off <= need && sp.off+sp.len > need {
				need = sp.off + sp.len
				advanced = true
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

// leaseCacheDrop forgets the cached lease for one file (revoke callback,
// or a stale hit the storage site bounced).
func (k *incarnation) leaseCacheDrop(fileID string) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if _, ok := k.leases[fileID]; ok {
		delete(k.leases, fileID)
		k.leaseGauge.Add(-1)
	}
}

// dropLeasesStoredAt forgets every cached lease on files the downed site
// stores: its lock table dies with it, so the coverage no longer exists.
func (k *incarnation) dropLeasesStoredAt(down simnet.SiteID) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	for fileID := range k.leases {
		if site, err := k.cl.StorageSite(fileID); err == nil && site == down {
			delete(k.leases, fileID)
			k.leaseGauge.Add(-1)
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

// handleLeaseRevoke is the leaseholder's side of the callback.
func (k *incarnation) handleLeaseRevoke(req leaseRevokeReq) error {
	k.leaseCacheDrop(req.FileID)
	return nil
}

// ---- storage-site lease book-keeping ----

// leaseGranted records a lock grant to a remote requester and decides
// whether a lease may piggyback on the reply.  No lease is granted while
// a revoke for the pair is in flight (the callback and the new grant
// would race); otherwise the grant count rises and the TTL deadline is
// pushed out.  escalate reports that the count reached the whole-file
// escalation threshold.
func (k *incarnation) leaseGranted(fileID string, from simnet.SiteID) (install, escalate bool) {
	now := k.cl.cfg.Clock.Now()
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	m := k.leaseMeta[fileID]
	if m == nil {
		m = make(map[simnet.SiteID]*leaseMeta)
		k.leaseMeta[fileID] = m
	}
	lm := m[from]
	if lm == nil {
		lm = &leaseMeta{}
		m[from] = lm
	}
	if lm.revoking {
		return false, false
	}
	lm.grants++
	lm.expiry = now.Add(k.cl.cfg.LeaseTTL)
	return true, lm.grants >= leaseEscalateThreshold
}

// leaseRevokeBegin marks a revoke in flight for the pair, returning the
// lease's TTL deadline (the fallback if the callback is undeliverable).
// A second conflicting request while one revoke is pending is deduped.
func (k *incarnation) leaseRevokeBegin(fileID string, holder simnet.SiteID) (time.Time, bool) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	m := k.leaseMeta[fileID]
	if m == nil {
		m = make(map[simnet.SiteID]*leaseMeta)
		k.leaseMeta[fileID] = m
	}
	lm := m[holder]
	if lm == nil {
		// A lease entry without meta (leaseMetaDropSite raced the grant):
		// revoke with an already-expired deadline.
		lm = &leaseMeta{expiry: k.cl.cfg.Clock.Now()}
		m[holder] = lm
	}
	if lm.revoking {
		return time.Time{}, false
	}
	lm.revoking = true
	return lm.expiry, true
}

// leaseRevokeEnd retires the pair's meta once the lease is reclaimed.
func (k *incarnation) leaseRevokeEnd(fileID string, holder simnet.SiteID) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	if m := k.leaseMeta[fileID]; m != nil {
		delete(m, holder)
		if len(m) == 0 {
			delete(k.leaseMeta, fileID)
		}
	}
}

// leaseMetaDropSite forgets every pair involving the downed leaseholder.
func (k *incarnation) leaseMetaDropSite(down simnet.SiteID) {
	k.leaseMu.Lock()
	defer k.leaseMu.Unlock()
	for fileID, m := range k.leaseMeta {
		delete(m, down)
		if len(m) == 0 {
			delete(k.leaseMeta, fileID)
		}
	}
}

// ---- revoke protocol ----

// startLeaseRevokes fires the asynchronous callback/revoke at every
// blocking leaseholder.  Each revoke is one clock actor: deliver the
// callback (the holder drops its cache and acks), or — when the holder
// is unreachable — sleep out the lease's TTL; either way the lease entry
// is then reclaimed and the wait queue pumped, granting the blocked
// requests in FIFO order.  The requester that triggered the revoke is
// already queued under its own LockWaitTimeout, which the default
// configuration keeps above the TTL so an expiry-based reclaim still
// reaches it in time.
func (k *incarnation) startLeaseRevokes(fileID string, of *openFile, sites []int) {
	for _, site := range sites {
		holder := simnet.SiteID(site)
		expiry, ok := k.leaseRevokeBegin(fileID, holder)
		if !ok {
			continue
		}
		site := site
		k.cl.cfg.Clock.Go(func() {
			if _, err := k.ep.CallRetry(holder, "leaseRevoke", leaseRevokeReq{FileID: fileID}, 0); err != nil {
				if rem := expiry.Sub(k.cl.cfg.Clock.Now()); rem > 0 {
					k.cl.cfg.Clock.Sleep(rem)
				}
			}
			k.leaseRevokeEnd(fileID, holder)
			if of.locks.RevokeLease(site) {
				k.st.Inc(stats.LeaseRevokes)
				k.tr.Record(trace.LeaseRevoke, "", fileID, int64(site))
			}
		})
	}
}

// lockAt runs one lock request against the file's lock list, firing the
// callback/revoke protocol first when lease entries stand in the way —
// the single choke point for both the explicit lock RPC (handleLock) and
// lease materialization (handleRead / handleWrite).
func (k *incarnation) lockAt(of *openFile, fileID string, lreq lockmgr.Request) (lockmgr.Result, error) {
	if k.cl.cfg.LockLeases {
		if sites := of.locks.BlockingLeaseSites(lreq); len(sites) > 0 {
			k.startLeaseRevokes(fileID, of, sites)
		}
	}
	return of.locks.Lock(lreq)
}

// materializeLease turns a lease-hit access into an ordinary lock
// descriptor at the storage site: the requester skipped the lock message
// because its cached lease covered the range, so the real lock is taken
// here, atomically with the data access.  The materialized descriptor
// joins the transaction's group — prepare records, recovery, deadlock
// detection and commit-time release all see a perfectly ordinary lock,
// which is what keeps the section 5 invariants intact under leases.  A
// stale cache (the lease was reclaimed meanwhile) degrades gracefully:
// the request waits its turn like any implicit lock (section 3.1 allows
// implicit acquisition at access time).  Reports whether coverage now
// exists.
func (k *incarnation) materializeLease(of *openFile, from simnet.SiteID, fileID string, pid int, txn string, mode lockmgr.Mode, off, length int64) bool {
	if !k.cl.cfg.LockLeases || from == k.id || txn == "" || length <= 0 || off < 0 {
		return false
	}
	lreq := lockmgr.Request{
		Holder:   Holder(pid, txn),
		Mode:     mode,
		Off:      off,
		Len:      length,
		Wait:     true,
		Timeout:  k.cl.cfg.LockWaitTimeout,
		FromSite: int(from),
	}
	k.markOpenForUpdate(of)
	res, err := k.lockAt(of, fileID, lreq)
	if err != nil {
		return false
	}
	k.adoptUncommitted(of, txn, res.Off, res.Len)
	return true
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
			k.st.Add(stats.LeaseRevokes, int64(n))
			k.tr.Record(trace.LeaseRevoke, "", down.String(), int64(n))
		}
		k.leaseMetaDropSite(down)
		k.dropLeasesStoredAt(down)
	}
}
