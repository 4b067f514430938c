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
func (s *Site) leaseCacheAdd(fileID string, mode lockmgr.Mode, off, length int64, whole bool) {
	expiry := s.cl.cfg.Clock.Now().Add(s.cl.cfg.LeaseTTL)
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l := s.leases[fileID]
	if l == nil {
		l = &siteLease{}
		s.leases[fileID] = l
		s.leaseGauge.Add(1)
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
func (s *Site) leaseHit(fileID string, mode lockmgr.Mode, off, length int64) bool {
	now := s.cl.cfg.Clock.Now()
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	l := s.leases[fileID]
	if l == nil {
		return false
	}
	if !now.Before(l.expiry) {
		delete(s.leases, fileID)
		s.leaseGauge.Add(-1)
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
func (s *Site) leaseCacheDrop(fileID string) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if _, ok := s.leases[fileID]; ok {
		delete(s.leases, fileID)
		s.leaseGauge.Add(-1)
	}
}

// dropLeasesStoredAt forgets every cached lease on files the downed site
// stores: its lock table dies with it, so the coverage no longer exists.
func (s *Site) dropLeasesStoredAt(down simnet.SiteID) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for fileID := range s.leases {
		if site, err := s.cl.StorageSite(fileID); err == nil && site == down {
			delete(s.leases, fileID)
			s.leaseGauge.Add(-1)
		}
	}
}

// resetLeaseState forfeits both halves of the lease state (crash
// recovery: kernel memory is gone).
func (s *Site) resetLeaseState() {
	if !s.cl.cfg.LockLeases {
		return
	}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if n := len(s.leases); n > 0 {
		s.leaseGauge.Add(int64(-n))
	}
	s.leases = make(map[string]*siteLease)
	s.leaseMeta = make(map[string]map[simnet.SiteID]*leaseMeta)
}

// ---- storage-site lease book-keeping ----

// leaseGranted records a lock grant to a remote requester and decides
// whether a lease may piggyback on the reply.  No lease is granted while
// a revoke for the pair is in flight (the callback and the new grant
// would race); otherwise the grant count rises and the TTL deadline is
// pushed out.  escalate reports that the count reached the whole-file
// escalation threshold.
func (s *Site) leaseGranted(fileID string, from simnet.SiteID) (install, escalate bool) {
	now := s.cl.cfg.Clock.Now()
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	m := s.leaseMeta[fileID]
	if m == nil {
		m = make(map[simnet.SiteID]*leaseMeta)
		s.leaseMeta[fileID] = m
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
	lm.expiry = now.Add(s.cl.cfg.LeaseTTL)
	return true, lm.grants >= leaseEscalateThreshold
}

// leaseRevokeBegin marks a revoke in flight for the pair, returning the
// lease's TTL deadline (the fallback if the callback is undeliverable).
// A second conflicting request while one revoke is pending is deduped.
func (s *Site) leaseRevokeBegin(fileID string, holder simnet.SiteID) (time.Time, bool) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	m := s.leaseMeta[fileID]
	if m == nil {
		m = make(map[simnet.SiteID]*leaseMeta)
		s.leaseMeta[fileID] = m
	}
	lm := m[holder]
	if lm == nil {
		// A lease entry without meta (the meta died with a restart):
		// revoke with an already-expired deadline.
		lm = &leaseMeta{expiry: s.cl.cfg.Clock.Now()}
		m[holder] = lm
	}
	if lm.revoking {
		return time.Time{}, false
	}
	lm.revoking = true
	return lm.expiry, true
}

// leaseRevokeEnd retires the pair's meta once the lease is reclaimed.
func (s *Site) leaseRevokeEnd(fileID string, holder simnet.SiteID) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	if m := s.leaseMeta[fileID]; m != nil {
		delete(m, holder)
		if len(m) == 0 {
			delete(s.leaseMeta, fileID)
		}
	}
}

// leaseMetaDropSite forgets every pair involving the downed leaseholder.
func (s *Site) leaseMetaDropSite(down simnet.SiteID) {
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for fileID, m := range s.leaseMeta {
		delete(m, down)
		if len(m) == 0 {
			delete(s.leaseMeta, fileID)
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
func (s *Site) startLeaseRevokes(fileID string, of *openFile, sites []int) {
	for _, site := range sites {
		holder := simnet.SiteID(site)
		expiry, ok := s.leaseRevokeBegin(fileID, holder)
		if !ok {
			continue
		}
		site := site
		s.cl.cfg.Clock.Go(func() {
			if _, err := s.ep.CallRetry(holder, "leaseRevoke", leaseRevokeReq{FileID: fileID}, 0); err != nil {
				if rem := expiry.Sub(s.cl.cfg.Clock.Now()); rem > 0 {
					s.cl.cfg.Clock.Sleep(rem)
				}
			}
			s.leaseRevokeEnd(fileID, holder)
			if of.locks.RevokeLease(site) {
				s.st.Inc(stats.LeaseRevokes)
				s.tr.Record(trace.LeaseRevoke, "", fileID, int64(site))
			}
		})
	}
}

// lockAt runs one lock request against the file's lock list, firing the
// callback/revoke protocol first when lease entries stand in the way —
// the single choke point for both the explicit lock RPC (handleLock) and
// lease materialization (handleRead / handleWrite).
func (s *Site) lockAt(of *openFile, fileID string, lreq lockmgr.Request) (lockmgr.Result, error) {
	if s.cl.cfg.LockLeases {
		if sites := of.locks.BlockingLeaseSites(lreq); len(sites) > 0 {
			s.startLeaseRevokes(fileID, of, sites)
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
func (s *Site) materializeLease(of *openFile, from simnet.SiteID, fileID string, pid int, txn string, mode lockmgr.Mode, off, length int64) bool {
	if !s.cl.cfg.LockLeases || from == s.id || txn == "" || length <= 0 || off < 0 {
		return false
	}
	lreq := lockmgr.Request{
		Holder:   Holder(pid, txn),
		Mode:     mode,
		Off:      off,
		Len:      length,
		Wait:     true,
		Timeout:  s.cl.cfg.LockWaitTimeout,
		FromSite: int(from),
	}
	s.markOpenForUpdate(of)
	res, err := s.lockAt(of, fileID, lreq)
	if err != nil {
		return false
	}
	s.adoptUncommitted(of, txn, res.Off, res.Len)
	return true
}

// onTopology reclaims lease state when the failure detector announces a
// site loss (section 4.3): as storage site, this site reclaims the
// downed leaseholder's leases (its cache died with it, so no callback is
// owed); as requester, it forgets cached leases on files the downed site
// stores.
func (s *Site) onTopology(ev simnet.TopologyEvent) {
	if ev.Kind != simnet.SiteDown {
		return
	}
	for _, down := range ev.Sites {
		if down == s.id || !s.Up() {
			continue
		}
		if n := s.Locks().RevokeSiteLeases(int(down)); n > 0 {
			s.st.Add(stats.LeaseRevokes, int64(n))
			s.tr.Record(trace.LeaseRevoke, "", down.String(), int64(n))
		}
		s.leaseMetaDropSite(down)
		s.dropLeasesStoredAt(down)
	}
}
