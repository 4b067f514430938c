package cluster

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Request/response payloads for the file operations.  Data-carrying
// payloads report their own wire size (simnet.Sizer) so the cost model
// charges realistic wire bytes; the rest embed simnet.Small, the
// small-message default.

// pathReq names a file by its path: create, open, remove and replremove.
type pathReq struct {
	simnet.Small
	Path string
}

// fileReq names an open file: close and sync (for the process and
// transaction named), stat and leaseRevoke (the file alone).
type fileReq struct {
	simnet.Small
	FileID string
	PID    int
	Txn    string
}

type openResp struct {
	simnet.Small
	Size int64
}

type statResp struct {
	simnet.Small
	Size          int64
	CommittedSize int64
}

type readReq struct {
	FileID string
	Off    int64
	Len    int
	PID    int
	Txn    string
	Lock   bool // carries the implicit lock (FastPaths); the reply grants it
}

func (r readReq) WireSize() int { return 48 }

type readResp struct {
	Data []byte
	grant
}

func (r readResp) WireSize() int { return 32 + len(r.Data) }

type writeReq struct {
	FileID string
	Off    int64
	Data   []byte
	PID    int
	Txn    string
	Lock   bool // as readReq's
}

func (r writeReq) WireSize() int { return 48 + len(r.Data) }

type writeResp struct {
	simnet.Small
	N int
	grant
}

type lockReq struct {
	simnet.Small
	FileID string
	PID    int
	Txn    string
	Mode   lockmgr.Mode
	Off    int64
	Len    int64
	AtEOF  bool
	NonTxn bool
	Wait   bool
}

type lockResp struct {
	simnet.Small
	grant
}

// grant is what the storage site granted, as a reply carries it.
type grant struct {
	Off int64
	Len int64
	// Lease grant piggybacked on the reply (DESIGN.md section 13):
	// LeaseMode != ModeNone means the storage site installed a lease over
	// [LeaseOff, LeaseOff+LeaseLen) - the granted range, or the span an
	// escalation widened it to - which the requester caches until a
	// callback, a topology change or a crash drops it.
	LeaseMode lockmgr.Mode
	LeaseOff  int64
	LeaseLen  int64
}

type unlockReq struct {
	simnet.Small
	FileID string
	PID    int
	Txn    string
	Off    int64
	Len    int64
}

type unlockResp struct {
	simnet.Small
	Retained bool
}

type listReq struct {
	simnet.Small
	Volume string
}
type listResp struct {
	simnet.Small
	Names []string
}

// ---- storage-site handlers ----

func (k *incarnation) handleCreate(req pathReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	vs, err := k.volByName(volName)
	if err != nil {
		return err
	}
	_, err = vs.dirCreate(name, false)
	return err
}

// handleOpen resolves the name (the expensive name-mapping the paper
// separates from locking, section 3.2), brings the inode into memory, and
// returns the file's identity.
func (k *incarnation) handleOpen(req pathReq) (openResp, error) {
	if err := k.movingGuard(req.Path); err != nil {
		return openResp{}, err
	}
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return openResp{}, err
	}
	vs, err := k.volByName(volName)
	if err != nil {
		return openResp{}, err
	}
	ino, err := vs.dirLookup(name)
	if err != nil {
		return openResp{}, err
	}
	fileID := req.Path
	k.mu.Lock()
	defer k.mu.Unlock()
	of, ok := k.open[fileID]
	if !ok {
		file, err := shadow.Open(vs.vol, ino)
		if err != nil {
			return openResp{}, err
		}
		of = &openFile{id: fileID, vs: vs}
		of.file.Store(file)
		// The size function reads through the entry, not the file, so a
		// recovery-time refresh of of.file keeps append locks correct.
		of.locks = k.locks.File(fileID, func() int64 { return of.file.Load().Size() })
		k.open[fileID] = of
	}
	of.refs++
	return openResp{Size: of.file.Load().Size()}, nil
}

// handleClose drops one reference.  For a non-transaction process with
// uncommitted modifications, close commits them - the base Locus
// single-file atomic update on close.  A transaction's close commits
// nothing; its changes wait for the transaction's outcome.
func (k *incarnation) handleClose(req fileReq) error {
	if err := k.movingGuard(req.FileID); err != nil {
		return err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return err
	}
	if req.Txn == "" {
		owner := procOwner(req.PID)
		if of.file.Load().HasMods(owner) {
			if err := of.file.Load().CommitWith(owner, k.cl.cfg.FastPaths); err != nil {
				return err
			}
		}
		// A process's own locks die with its use of the file.
		of.locks.ReleaseGroup(lockmgr.Holder{PID: req.PID}.Group())
		k.dropLockCache(groupKey(req.PID, ""))
	}
	k.mu.Lock()
	of.refs--
	k.mu.Unlock()
	k.settle(req.FileID)
	return nil
}

// handleSync commits a non-transaction owner's modifications immediately
// (fsync-style), using the single-file commit mechanism.
func (k *incarnation) handleSync(req fileReq) error {
	if err := k.movingGuard(req.FileID); err != nil {
		return err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return err
	}
	if req.Txn != "" {
		return fmt.Errorf("cluster: sync inside a transaction commits at EndTrans")
	}
	owner := procOwner(req.PID)
	if !of.file.Load().HasMods(owner) {
		k.maybeSyncReplicas(of)
		return nil
	}
	if err := of.file.Load().CommitWith(owner, k.cl.cfg.FastPaths); err != nil {
		return err
	}
	k.maybeSyncReplicas(of)
	return nil
}

func (k *incarnation) handleStat(req fileReq) (statResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return statResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return statResp{}, err
	}
	return statResp{Size: of.file.Load().Size(), CommittedSize: of.file.Load().CommittedSize()}, nil
}

// handleRead validates the access per Figure 1 and returns the bytes.
// Transaction readers must hold (at least) a shared lock over the range:
// the requesting kernel acquires it implicitly, before the data request
// or, under FastPaths, carried in it (req.Lock).
func (k *incarnation) handleRead(from simnet.SiteID, req readReq) (readResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return readResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return readResp{}, err
	}
	k.recordHeat(req.FileID, from, req.Txn)
	var resp readResp
	h, length := Holder(req.PID, req.Txn), int64(req.Len)
	if req.Txn != "" {
		// The carried lock, or coverage by the transaction's locks or by
		// the process's own pre-transaction locks (usable within the
		// transaction without joining it, section 3.4), or a lease hit's.
		pre := Holder(req.PID, "")
		name := k.txnName(req.Txn)
		if req.Lock {
			if resp.grant, err = k.implicitLock(of, from, req.FileID, h, name, lockmgr.ModeShared, req.Off, length, true); err != nil {
				return readResp{}, err
			}
		} else if !of.locks.Covers(h, lockmgr.ModeShared, req.Off, length) &&
			!of.locks.Covers(pre, lockmgr.ModeShared, req.Off, length) {
			if _, err := k.implicitLock(of, from, req.FileID, h, name, lockmgr.ModeShared, req.Off, length, false); err != nil {
				return readResp{}, fmt.Errorf("%w: transaction read of %s [%d,%d) without lock",
					lockmgr.ErrAccessDenied, req.FileID, req.Off, req.Off+length)
			}
		}
		k.joinTxn(req.Txn, name)
	} else if err := of.locks.CheckAccess(h, false, req.Off, length); err != nil {
		return readResp{}, err
	}
	buf := make([]byte, req.Len)
	n, err := of.file.Load().ReadAt(buf, req.Off)
	if err != nil {
		return readResp{}, err
	}
	resp.Data = buf[:n]
	return resp, nil
}

// handleWrite validates and applies a write at the storage site.
func (k *incarnation) handleWrite(from simnet.SiteID, req writeReq) (writeResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return writeResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return writeResp{}, err
	}
	k.recordHeat(req.FileID, from, req.Txn)
	var resp writeResp
	var owner shadow.Owner
	h, length := Holder(req.PID, req.Txn), int64(len(req.Data))
	if req.Txn != "" {
		name := k.txnName(req.Txn)
		owner = shadow.Owner(name)
		if req.Lock {
			if resp.grant, err = k.implicitLock(of, from, req.FileID, h, name, lockmgr.ModeExclusive, req.Off, length, true); err != nil {
				return writeResp{}, err
			}
		} else if !of.locks.Covers(h, lockmgr.ModeExclusive, req.Off, length) {
			// A write under the process's own pre-transaction lock does
			// not join the transaction: the record belongs to the
			// process and commits at close/sync, not with the
			// transaction (section 3.4).
			pre := Holder(req.PID, "")
			if of.locks.Covers(pre, lockmgr.ModeExclusive, req.Off, length) {
				owner = procOwner(req.PID)
			} else if _, err := k.implicitLock(of, from, req.FileID, h, name, lockmgr.ModeExclusive, req.Off, length, false); err != nil {
				return writeResp{}, fmt.Errorf("%w: transaction write of %s [%d,%d) without exclusive lock",
					lockmgr.ErrAccessDenied, req.FileID, req.Off, req.Off+length)
			}
		}
		k.joinTxn(req.Txn, name)
	} else {
		owner = procOwner(req.PID)
		if err := of.locks.CheckAccess(h, true, req.Off, length); err != nil {
			return writeResp{}, err
		}
		// Unix semantics between unlocked processes: the later writer
		// wins; uncommitted bytes from other non-transaction processes
		// are taken over rather than conflicting.
		for _, or := range of.file.Load().UncommittedOverlapping(req.Off, length) {
			if or.Owner != owner && strings.HasPrefix(string(or.Owner), "proc:") {
				of.file.Load().TransferMods(or.Owner, owner, req.Off, length)
			}
		}
	}
	k.markOpenForUpdate(of)
	if resp.N, err = of.file.Load().WriteAt(owner, req.Data, req.Off); err != nil {
		return writeResp{}, err
	}
	return resp, nil
}

// handleLock processes an explicit lock request at the storage site
// (section 5.1).
func (k *incarnation) handleLock(from simnet.SiteID, req lockReq) (lockResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return lockResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return lockResp{}, err
	}
	g, err := k.lockAccess(of, req.FileID, lockmgr.Request{
		Holder:   Holder(req.PID, req.Txn),
		Mode:     req.Mode,
		Off:      req.Off,
		Len:      req.Len,
		AtEOF:    req.AtEOF,
		NonTxn:   req.NonTxn,
		Wait:     req.Wait,
		FromSite: int(from),
	}, true)
	return lockResp{grant: g}, err
}

// lockAccess is the storage site's one way to take a lock (section 5.1),
// for a lock request and for a data request's implicit lock.  A
// transaction's grant applies rule 2 of section 3.3 and, unless NonTxn,
// joins the transaction; with lease set, one to a remote requester may
// earn a lease (DESIGN.md section 13).
func (k *incarnation) lockAccess(of *openFile, fileID string, lreq lockmgr.Request, lease bool) (grant, error) {
	if lreq.Wait {
		lreq.Timeout = k.cl.cfg.LockWaitTimeout
	}
	if lreq.Holder.IsTxn() && lreq.Group == "" {
		lreq.Group = k.txnName(lreq.Holder.Txn) // a lock request's; a data request names it
	}
	k.markOpenForUpdate(of)
	res, err := k.lockAt(of, fileID, lreq)
	if err != nil {
		return grant{}, err
	}
	if of.vs.vol.PrefetchOnLock {
		of.file.Load().Prefetch(res.Off, res.Len) //nolint:errcheck // best-effort read-ahead
	}
	g := grant{Off: res.Off, Len: res.Len}
	if !lreq.Holder.IsTxn() {
		return g, nil
	}
	name := lreq.Group
	k.adoptUncommitted(of, name, res.Off, res.Len)
	if lreq.NonTxn {
		// A NonTxn-mode lock does not join the transaction (section
		// 3.4): on its own it brings this site no prepare and no
		// finishTxn.
		return g, nil
	}
	k.joinTxn(lreq.Holder.Txn, name)
	// A transactional grant to a remote requester earns a lease: the
	// coverage will outlive the transaction's release, so the requester's
	// next transaction can skip the lock message entirely.  Not where
	// this site leads the file's heat (placement on): the home's own next
	// conflicting access would revoke the lease before the requester came
	// back, so it would buy a callback and a wait, not a saved message.
	from := simnet.SiteID(lreq.FromSite)
	if !lease || !k.cl.cfg.LockLeases || from == k.id || k.heat.Leads(fileID, k.id) {
		return g, nil
	}
	if install, escalate := k.leaseGranted(fileID, from); install && of.locks.GrantLease(int(from), lreq.Mode, res.Off, res.Len) {
		g.LeaseMode, g.LeaseOff, g.LeaseLen = lreq.Mode, res.Off, res.Len
		k.tr.Record(trace.LeaseGrant, name, fileID, int64(from))
		if escalate {
			if span, ok := of.locks.TryEscalateLease(int(from), name, lreq.Mode); ok {
				k.st.Inc(stats.LeaseEscalations)
				k.tr.Record(trace.LockEscalate, name, fileID, int64(from))
				g.LeaseOff, g.LeaseLen = span.Off, span.Len
			}
		}
	}
	return g, nil
}

// adoptUncommitted applies rule 2 of section 3.3 after a grant to the
// transaction named name: modified-but-uncommitted non-transaction bytes
// under the granted range join the transaction, and the lock is forcibly
// transactional (retained).
func (k *incarnation) adoptUncommitted(of *openFile, name string, off, length int64) {
	for _, or := range of.file.Load().UncommittedOverlapping(off, length) {
		if strings.HasPrefix(string(or.Owner), "proc:") {
			of.file.Load().TransferMods(or.Owner, shadow.Owner(name), or.Off, or.Len)
			of.locks.ForceTransactional(name, off, length)
		}
	}
}

func (k *incarnation) handleUnlock(req unlockReq) (unlockResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return unlockResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return unlockResp{}, err
	}
	if req.Txn != "" {
		// Rule 2 of section 3.3 at release time: a NonTxn-mode lock the
		// transaction wrote under covers a modified-but-uncommitted
		// record, so it is retained.  An abort (applyFiles) relies on it:
		// every file holding the transaction's records is on its lock
		// index.
		name := k.txnName(req.Txn)
		for _, or := range of.file.Load().UncommittedOverlapping(req.Off, req.Len) {
			if or.Owner == shadow.Owner(name) {
				of.locks.ForceTransactional(name, req.Off, req.Len)
				break
			}
		}
	}
	retained, err := of.locks.Unlock(Holder(req.PID, req.Txn), req.Off, req.Len)
	if err != nil {
		return unlockResp{}, err
	}
	if req.Txn != "" {
		// Also release any of the process's own pre-transaction locks on
		// the range: they are not converted to transaction locks, so
		// unlocking them really frees them (section 3.4).
		if _, err := of.locks.Unlock(Holder(req.PID, ""), req.Off, req.Len); err != nil {
			return unlockResp{}, err
		}
	}
	if !retained {
		k.maybeSyncReplicas(of)
	}
	return unlockResp{Retained: retained}, nil
}

func (k *incarnation) handleList(req listReq) (listResp, error) {
	vs, err := k.volByName(req.Volume)
	if err != nil {
		return listResp{}, err
	}
	names := vs.dirList()
	// Files homed away from the mount site left this directory when they
	// moved; the namespace still lists them under their volume.
	if extra := k.cl.homesForVolume(req.Volume); len(extra) > 0 {
		have := make(map[string]bool, len(names))
		for _, n := range names {
			have[n] = true
		}
		for _, n := range extra {
			if !have[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
	}
	return listResp{Names: names}, nil
}

// handleRemove deletes a file: the directory entry goes first (the
// committed point of the removal), then the data pages and inode are
// reclaimed.  An open file cannot be removed.
func (k *incarnation) handleRemove(req pathReq) error {
	if err := k.movingGuard(req.Path); err != nil {
		return err
	}
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	vs, err := k.volByName(volName)
	if err != nil {
		return err
	}
	k.settle(req.Path) // an idle entry nobody references does not hold the file open
	k.mu.Lock()
	_, open := k.open[req.Path]
	if !open {
		delete(vs.files, name)
	}
	k.mu.Unlock()
	if open {
		return fmt.Errorf("cluster: %q is open; close it everywhere first", req.Path)
	}
	if err := vs.reclaimFile(name); err != nil {
		return err
	}
	k.cl.forget(req.Path)
	k.heat.Forget(req.Path)
	k.notifyReplicaRemove(req.Path, volName)
	return nil
}

// ---- requesting-site API (used by package core) ----

// callStorage sends op to b's storage site, the bound one unless the
// catalog moved on since b was resolved (Cluster.bind); a local target
// runs the handler directly with no network charge (simnet handles both).
// An errMoved refusal (the file's primary copy is mid-move) waits the move
// out and retries against the re-resolved home.  lockMsg charges
// stats.LockMsgs when the request leaves this site.
func callStorage[Resp, Req simnet.Sizer](m *machine, b *Binding, op string, req Req, lockMsg bool) (Resp, error) {
	for attempt := 0; ; attempt++ {
		site, err := m.cl.bind(b)
		if err != nil {
			var none Resp
			return none, err
		}
		if lockMsg && attempt == 0 && site != m.id {
			m.st.Inc(stats.LockMsgs)
		}
		resp, err := simnet.Exchange[Resp](m.ep, site, op, req)
		if err == nil || attempt >= movedRetries || !errors.Is(err, errMoved) {
			return resp, err
		}
		b.epoch = 0 // refused: resolve again
		m.cl.cfg.Clock.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
}

// Create makes an empty file at the path's storage site.
func (m *machine) Create(path string) error {
	m.st.Inc(stats.Syscalls)
	_, err := callStorage[none](m, &Binding{id: path}, "create", pathReq{Path: path}, false)
	return err
}

// Remove deletes a file and reclaims its storage.
func (m *machine) Remove(path string) error {
	m.st.Inc(stats.Syscalls)
	_, err := callStorage[none](m, &Binding{id: path}, "remove", pathReq{Path: path}, false)
	return err
}

// Open resolves the path and opens the file, returning its binding to
// the storage site and its current size.
func (m *machine) Open(path string) (*Binding, int64, error) {
	m.st.Inc(stats.Syscalls)
	b := &Binding{id: path}
	r, err := callStorage[openResp](m, b, "open", pathReq{Path: path}, false)
	if err != nil {
		return nil, 0, err
	}
	return b, r.Size, nil
}

// Close releases one open reference.
func (s *Site) Close(b *Binding, pid int, txn string) error {
	s.st.Inc(stats.Syscalls)
	_, err := callStorage[none](&s.machine, b, "close", fileReq{FileID: b.id, PID: pid, Txn: txn}, false)
	if txn == "" {
		// The storage site released the process's locks on the file with
		// the close; what this site cached of them is void.
		s.kernel().cacheTrim(b.id, groupKey(pid, ""), 0, math.MaxInt64)
	}
	return err
}

// Sync commits a non-transaction process's modifications immediately.
func (m *machine) Sync(b *Binding, pid int, txn string) error {
	m.st.Inc(stats.Syscalls)
	_, err := callStorage[none](m, b, "sync", fileReq{FileID: b.id, PID: pid, Txn: txn}, false)
	return err
}

// Stat returns the file's working and committed sizes.
func (m *machine) Stat(b *Binding) (size, committed int64, err error) {
	m.st.Inc(stats.Syscalls)
	r, err := callStorage[statResp](m, b, "stat", fileReq{FileID: b.id}, false)
	return r.Size, r.CommittedSize, err
}

// List returns a volume's file names.
func (m *machine) List(volume string) ([]string, error) {
	m.st.Inc(stats.Syscalls)
	r, err := callStorage[listResp](m, &Binding{id: volume + "/."}, "list", listReq{Volume: volume}, false)
	return r.Names, err
}

// Read reads from the file on behalf of the process.  For transaction
// processes the requesting kernel implicitly acquires the shared record
// lock (section 3.1: locks may be acquired implicitly at access time),
// consulting its lock cache to skip the lock when the transaction
// already holds coverage (section 5.1).  A miss sends the lock first or,
// under FastPaths, carries it in the read (ensureLocked).
func (s *Site) Read(b *Binding, pid int, txn string, off int64, n int) ([]byte, error) {
	s.st.Inc(stats.Syscalls)
	k := s.kernel() // a carried grant is cached by the kernel that asked for it
	req := readReq{FileID: b.id, Off: off, Len: n, PID: pid, Txn: txn}
	if txn != "" {
		var err error
		if req.Lock, err = s.ensureLocked(b, pid, txn, lockmgr.ModeShared, off, int64(n)); err != nil {
			return nil, err
		}
	} else if data, ok := k.replicaRead(b.id, off, n); ok {
		// Served by the closest available storage site: the local
		// replica (section 5.2).  Transaction reads always go to the
		// primary, where their locks live.
		return data, nil
	}
	r, err := callStorage[readResp](&s.machine, b, "read", req, false)
	if err == nil && req.Lock {
		k.cacheGrant(b.id, groupKey(pid, txn), lockmgr.ModeShared, r.grant)
	}
	return r.Data, err
}

// Write writes to the file on behalf of the process, implicitly acquiring
// the exclusive record lock for transactions as Read does.
func (s *Site) Write(b *Binding, pid int, txn string, off int64, data []byte) (int, error) {
	s.st.Inc(stats.Syscalls)
	k := s.kernel()
	req := writeReq{FileID: b.id, Off: off, Data: data, PID: pid, Txn: txn}
	if txn != "" {
		var err error
		if req.Lock, err = s.ensureLocked(b, pid, txn, lockmgr.ModeExclusive, off, int64(len(data))); err != nil {
			return 0, err
		}
	}
	r, err := callStorage[writeResp](&s.machine, b, "write", req, false)
	if err == nil && req.Lock {
		k.cacheGrant(b.id, groupKey(pid, txn), lockmgr.ModeExclusive, r.grant)
	}
	return r.N, err
}

// Lock issues an explicit lock request (the Lock(file,length,mode) call
// of section 3.2).  Granted locks are cached at the requesting site.
func (s *Site) Lock(b *Binding, pid int, txn string, mode lockmgr.Mode, off, length int64, atEOF, nonTxn, wait bool) (lockmgr.Result, error) {
	s.st.Inc(stats.Syscalls)
	k := s.kernel() // the grant is cached by the kernel that asked for it
	r, err := callStorage[lockResp](&s.machine, b, "lock", lockReq{
		FileID: b.id, PID: pid, Txn: txn, Mode: mode,
		Off: off, Len: length, AtEOF: atEOF, NonTxn: nonTxn, Wait: wait,
	}, true)
	if err != nil {
		return lockmgr.Result{}, err
	}
	k.cacheGrant(b.id, groupKey(pid, txn), mode, r.grant)
	return lockmgr.Result{Off: r.Off, Len: r.Len}, nil
}

// cacheGrant caches a grant: the group's lock, and the lease on it, if any.
func (k *incarnation) cacheGrant(fileID string, group lockmgr.Holder, mode lockmgr.Mode, g grant) {
	k.cacheAdd(fileID, group, mode, g.Off, g.Len)
	if g.LeaseMode != lockmgr.ModeNone {
		k.leaseCacheAdd(fileID, g.LeaseMode, g.LeaseOff, g.LeaseLen)
	}
}

// Unlock releases (or, for transactions, retains) the range.
func (s *Site) Unlock(b *Binding, pid int, txn string, off, length int64) (bool, error) {
	s.st.Inc(stats.Syscalls)
	r, err := callStorage[unlockResp](&s.machine, b, "unlock", unlockReq{FileID: b.id, PID: pid, Txn: txn, Off: off, Len: length}, true)
	if err != nil {
		return false, err
	}
	// The range leaves the cache whatever was retained: a transaction's
	// unlock may also release NonTxn parts of it, and an access the cache
	// still covered there would skip the lock the storage site no longer
	// holds.  A retained part is re-granted at once to its own group.
	s.kernel().cacheTrim(b.id, groupKey(pid, txn), off, length)
	return r.Retained, nil
}

// ensureLocked implicitly acquires the record lock for a transaction
// access, consulting the requester's lock cache first.  A miss sends the
// lock exchange (section 5.1) or, under FastPaths, reports carry: the data
// request carries the lock (DESIGN.md section 10).
func (s *Site) ensureLocked(b *Binding, pid int, txn string, mode lockmgr.Mode, off, length int64) (carry bool, err error) {
	k, fileID := s.kernel(), b.id
	if k.cacheCovers(fileID, groupKey(pid, txn), mode, off, length) ||
		k.cacheCovers(fileID, groupKey(pid, ""), mode, off, length) {
		s.st.Inc(stats.LockCacheHits)
		return false, nil
	}
	// The lease cache is consulted after the per-transaction cache: a
	// lease survives transaction boundaries, so a repeat access by a new
	// transaction hits here and sends no lock message at all.
	if s.cl.cfg.LockLeases && k.leaseHit(fileID, mode, off, length) {
		s.st.Inc(stats.LeaseHits)
		return false, nil
	}
	s.st.Inc(stats.LockCacheMisses)
	if s.cl.cfg.FastPaths {
		return true, nil
	}
	_, err = s.Lock(b, pid, txn, mode, off, length, false, false, true)
	return false, err
}

// ---- requesting-site lock cache (section 5.1) ----
//
// The cache lives as long as the transaction does at this site: every
// group's granted ranges sit in one list, a hit scans that site-wide
// handful, and a group's entries go when the transaction ends here
// (DropLockCache).  The list keeps its array, so caching costs no
// allocation once it has grown to the site's working size.

func (k *incarnation) cacheAdd(fileID string, group lockmgr.Holder, mode lockmgr.Mode, off, length int64) {
	k.cacheMu.Lock()
	k.lockCache = append(k.lockCache, cachedLock{group: group, fileID: fileID, mode: mode, off: off, len: length})
	k.cacheMu.Unlock()
}

func (k *incarnation) cacheCovers(fileID string, group lockmgr.Holder, mode lockmgr.Mode, off, length int64) bool {
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	return lockmgr.SpansCover(k.lockCache, off, length, func(c cachedLock) (int64, int64, bool) {
		return c.off, c.off + c.len, c.group == group && c.fileID == fileID && c.mode >= mode
	})
}

// cacheTrim removes [off, off+length) of fileID from the group's cached
// coverage: what a range keeps on either side of the cut is re-added.
func (k *incarnation) cacheTrim(fileID string, group lockmgr.Holder, off, length int64) {
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	cut := func(c cachedLock) bool {
		return c.group == group && c.fileID == fileID && c.off < off+length && off < c.off+c.len
	}
	for _, c := range k.lockCache {
		if !cut(c) {
			continue
		}
		if head := c; c.off < off {
			head.len = off - c.off
			k.lockCache = append(k.lockCache, head)
		}
		if tail := c; c.off+c.len > off+length {
			tail.off, tail.len = off+length, c.off+c.len-off-length
			k.lockCache = append(k.lockCache, tail)
		}
	}
	k.lockCache = slices.DeleteFunc(k.lockCache, cut)
}

// DropLockCache forgets every lock this site cached for the transaction -
// the end of the cache's life: the transaction committed or aborted, or
// its last member process here left it.  A storage site drops a group when
// it releases the group's locks; package core calls this at each site a
// transaction ran at.  Purely local: no message is sent.
func (s *Site) DropLockCache(txid string) { s.kernel().dropLockCache(groupKey(0, txid)) }

func (k *incarnation) dropLockCache(group lockmgr.Holder) {
	k.cacheMu.Lock()
	k.lockCache = slices.DeleteFunc(k.lockCache, func(c cachedLock) bool { return c.group == group })
	k.cacheMu.Unlock()
}
