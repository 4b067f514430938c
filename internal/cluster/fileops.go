package cluster

import (
	"errors"
	"fmt"
	"math"
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
// payloads implement simnet.Sizer so the cost model charges realistic
// wire bytes.

type createReq struct{ Path string }

type openReq struct{ Path string }
type openResp struct {
	FileID string
	Size   int64
}

type closeReq struct {
	FileID string
	PID    int
	Txn    string
}

type syncReq struct {
	FileID string
	PID    int
	Txn    string
}

type statReq struct{ FileID string }
type statResp struct {
	Size          int64
	CommittedSize int64
}

type readReq struct {
	FileID string
	Off    int64
	Len    int
	PID    int
	Txn    string
}

func (r readReq) WireSize() int { return 48 }

type readResp struct{ Data []byte }

func (r readResp) WireSize() int { return 32 + len(r.Data) }

type writeReq struct {
	FileID string
	Off    int64
	Data   []byte
	PID    int
	Txn    string
}

func (r writeReq) WireSize() int { return 48 + len(r.Data) }

type writeResp struct{ N int }

type lockReq struct {
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
	Off int64
	Len int64
	// Lease grant piggybacked on the reply (DESIGN.md section 13):
	// LeaseMode != ModeNone means the storage site installed a lease over
	// [LeaseOff, LeaseOff+LeaseLen) — the whole file when LeaseWhole —
	// which the requester may cache for Config.LeaseTTL.
	LeaseMode  lockmgr.Mode
	LeaseOff   int64
	LeaseLen   int64
	LeaseWhole bool
}

type unlockReq struct {
	FileID string
	PID    int
	Txn    string
	Off    int64
	Len    int64
}

type unlockResp struct{ Retained bool }

type listReq struct{ Volume string }
type listResp struct{ Names []string }

type removeReq struct{ Path string }

// ---- storage-site handlers ----

func (k *incarnation) handleCreate(req createReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	vs, err := k.volByName(volName)
	if err != nil {
		return err
	}
	_, err = vs.dirCreate(name)
	return err
}

// handleOpen resolves the name (the expensive name-mapping the paper
// separates from locking, section 3.2), brings the inode into memory, and
// returns the file's identity.
func (k *incarnation) handleOpen(req openReq) (openResp, error) {
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
		file.CleanCacheForDiff = k.cl.cfg.DiffFromBufferPool
		of = &openFile{
			id:   fileID,
			vs:   vs,
			file: file,
		}
		// The size function reads through the entry, not the file, so a
		// recovery-time refresh of of.file keeps append locks correct.
		of.locks = k.locks.File(fileID, func() int64 { return of.file.Size() })
		k.open[fileID] = of
	}
	of.refs++
	return openResp{FileID: fileID, Size: of.file.Size()}, nil
}

// handleClose drops one reference.  For a non-transaction process with
// uncommitted modifications, close commits them - the base Locus
// single-file atomic update on close.  A transaction's close commits
// nothing; its changes wait for the transaction's outcome.
func (k *incarnation) handleClose(req closeReq) error {
	if err := k.movingGuard(req.FileID); err != nil {
		return err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return err
	}
	if req.Txn == "" {
		owner := ownerFor(req.PID, "")
		if of.file.HasMods(owner) {
			if err := of.file.Commit(owner); err != nil {
				return err
			}
		}
		// A process's own locks die with its use of the file.
		of.locks.ReleaseGroup(lockmgr.Holder{PID: req.PID}.Group())
		k.dropLockCache(lockmgr.Holder{PID: req.PID}.Group())
	}
	k.mu.Lock()
	of.refs--
	k.mu.Unlock()
	k.settle(req.FileID)
	return nil
}

// handleSync commits a non-transaction owner's modifications immediately
// (fsync-style), using the single-file commit mechanism.
func (k *incarnation) handleSync(req syncReq) error {
	if err := k.movingGuard(req.FileID); err != nil {
		return err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return err
	}
	owner := ownerFor(req.PID, req.Txn)
	if req.Txn != "" {
		return fmt.Errorf("cluster: sync inside a transaction commits at EndTrans")
	}
	if !of.file.HasMods(owner) {
		k.maybeSyncReplicas(of)
		return nil
	}
	if err := of.file.Commit(owner); err != nil {
		return err
	}
	k.maybeSyncReplicas(of)
	return nil
}

func (k *incarnation) handleStat(req statReq) (statResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return statResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return statResp{}, err
	}
	return statResp{Size: of.file.Size(), CommittedSize: of.file.CommittedSize()}, nil
}

// handleRead validates the access per Figure 1 and returns the bytes.
// Transaction readers must hold (at least) a shared lock over the range:
// the requesting kernel acquires it implicitly before the data request,
// so a bare storage-site check suffices here.
func (k *incarnation) handleRead(from simnet.SiteID, req readReq) (readResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return readResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return readResp{}, err
	}
	k.recordHeat(req.FileID, from, req.Txn)
	h := Holder(req.PID, req.Txn)
	if req.Txn != "" {
		// Coverage by the transaction's locks, or by the process's own
		// pre-transaction locks (usable within the transaction without
		// joining it, section 3.4).  A remote requester that skipped the
		// lock message on a lease hit materializes the real descriptor
		// here instead.
		pre := Holder(req.PID, "")
		if !of.locks.Covers(h, lockmgr.ModeShared, req.Off, int64(req.Len)) &&
			!of.locks.Covers(pre, lockmgr.ModeShared, req.Off, int64(req.Len)) &&
			!k.materializeLease(of, from, req.FileID, req.PID, req.Txn, lockmgr.ModeShared, req.Off, int64(req.Len)) {
			return readResp{}, fmt.Errorf("%w: transaction read of %s [%d,%d) without lock",
				lockmgr.ErrAccessDenied, req.FileID, req.Off, req.Off+int64(req.Len))
		}
		k.joinTxn(req.Txn)
	} else if err := of.locks.CheckAccess(h, false, req.Off, int64(req.Len)); err != nil {
		return readResp{}, err
	}
	buf := make([]byte, req.Len)
	n, err := of.file.ReadAt(buf, req.Off)
	if err != nil {
		return readResp{}, err
	}
	return readResp{Data: buf[:n]}, nil
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
	h := Holder(req.PID, req.Txn)
	owner := ownerFor(req.PID, req.Txn)
	length := int64(len(req.Data))
	if req.Txn != "" {
		if !of.locks.Covers(h, lockmgr.ModeExclusive, req.Off, length) {
			// A write under the process's own pre-transaction lock does
			// not join the transaction: the record belongs to the
			// process and commits at close/sync, not with the
			// transaction (section 3.4).
			pre := Holder(req.PID, "")
			if of.locks.Covers(pre, lockmgr.ModeExclusive, req.Off, length) {
				owner = ownerFor(req.PID, "")
			} else if !k.materializeLease(of, from, req.FileID, req.PID, req.Txn, lockmgr.ModeExclusive, req.Off, length) {
				return writeResp{}, fmt.Errorf("%w: transaction write of %s [%d,%d) without exclusive lock",
					lockmgr.ErrAccessDenied, req.FileID, req.Off, req.Off+length)
			}
		}
		k.joinTxn(req.Txn)
	} else {
		if err := of.locks.CheckAccess(h, true, req.Off, length); err != nil {
			return writeResp{}, err
		}
		// Unix semantics between unlocked processes: the later writer
		// wins; uncommitted bytes from other non-transaction processes
		// are taken over rather than conflicting.
		for _, or := range of.file.UncommittedOverlapping(req.Off, length) {
			if or.Owner != owner && strings.HasPrefix(string(or.Owner), "proc:") {
				of.file.TransferMods(or.Owner, owner, req.Off, length)
			}
		}
	}
	k.markOpenForUpdate(of)
	n, err := of.file.WriteAt(owner, req.Data, req.Off)
	if err != nil {
		return writeResp{}, err
	}
	return writeResp{N: n}, nil
}

// handleLock processes a lock request at the storage site (section 5.1)
// and applies rule 2 of section 3.3: locking a record that carries
// modified-but-uncommitted non-transaction data pulls those bytes into
// the transaction, and the lock is forcibly transactional (retained).
func (k *incarnation) handleLock(from simnet.SiteID, req lockReq) (lockResp, error) {
	if err := k.movingGuard(req.FileID); err != nil {
		return lockResp{}, err
	}
	of, err := k.lookupOpen(req.FileID)
	if err != nil {
		return lockResp{}, err
	}
	lreq := lockmgr.Request{
		Holder:   Holder(req.PID, req.Txn),
		Mode:     req.Mode,
		Off:      req.Off,
		Len:      req.Len,
		AtEOF:    req.AtEOF,
		NonTxn:   req.NonTxn,
		Wait:     req.Wait,
		FromSite: int(from),
	}
	if req.Wait {
		lreq.Timeout = k.cl.cfg.LockWaitTimeout
	}
	k.markOpenForUpdate(of)
	res, err := k.lockAt(of, req.FileID, lreq)
	if err != nil {
		return lockResp{}, err
	}
	if k.cl.cfg.PrefetchOnLock {
		of.file.Prefetch(res.Off, res.Len) //nolint:errcheck // best-effort read-ahead
	}
	if req.Txn != "" {
		k.adoptUncommitted(of, req.Txn, res.Off, res.Len)
		if !req.NonTxn {
			// A NonTxn-mode lock does not join the transaction (section
			// 3.4): on its own it brings this site no prepare and no
			// finishTxn.
			k.joinTxn(req.Txn)
		}
	}
	resp := lockResp{Off: res.Off, Len: res.Len}
	// A transactional grant to a remote requester earns a lease: the
	// coverage will outlive the transaction's release, so the requester's
	// next transaction can skip the lock message entirely.
	if k.cl.cfg.LockLeases && from != k.id && req.Txn != "" && !req.NonTxn {
		if install, escalate := k.leaseGranted(req.FileID, from); install {
			if of.locks.GrantLease(int(from), req.Mode, res.Off, res.Len) {
				resp.LeaseMode = req.Mode
				resp.LeaseOff, resp.LeaseLen = res.Off, res.Len
				k.tr.Record(trace.LeaseGrant, TxnGroup(req.Txn), req.FileID, int64(from))
				if escalate && of.locks.TryEscalateLease(int(from), TxnGroup(req.Txn), req.Mode) {
					k.st.Inc(stats.LeaseEscalations)
					k.tr.Record(trace.LockEscalate, TxnGroup(req.Txn), req.FileID, int64(from))
					resp.LeaseWhole = true
				}
			}
		}
	}
	return resp, nil
}

// adoptUncommitted applies rule 2 of section 3.3 after a transactional
// lock grant: modified-but-uncommitted non-transaction bytes under the
// granted range join the transaction, and the lock is forcibly
// transactional (retained).
func (k *incarnation) adoptUncommitted(of *openFile, txn string, off, length int64) {
	txnOwner := TxnOwner(txn)
	for _, or := range of.file.UncommittedOverlapping(off, length) {
		if or.Owner != txnOwner && strings.HasPrefix(string(or.Owner), "proc:") {
			of.file.TransferMods(or.Owner, txnOwner, or.Off, or.Len)
			of.locks.ForceTransactional(TxnGroup(txn), off, length)
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
		owner := TxnOwner(req.Txn)
		for _, or := range of.file.UncommittedOverlapping(req.Off, req.Len) {
			if or.Owner == owner {
				of.locks.ForceTransactional(TxnGroup(req.Txn), req.Off, req.Len)
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
func (k *incarnation) handleRemove(req removeReq) error {
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
	k.mu.Unlock()
	if open {
		return fmt.Errorf("cluster: %q is open; close it everywhere first", req.Path)
	}
	if err := vs.reclaimFile(name); err != nil {
		return err
	}
	k.cl.clearFileHome(req.Path)
	k.heat.Forget(req.Path)
	k.notifyReplicaRemove(req.Path, volName)
	return nil
}

// ---- requesting-site API (used by package core) ----

// call routes an operation to the file's storage site; a local target
// runs the handler directly with no network charge (simnet handles both).
// An errMoved refusal (the file's primary copy is mid-move) waits the
// move out and retries against the re-resolved home.
func (m *machine) callStorage(path, op string, req any) (any, error) {
	for attempt := 0; ; attempt++ {
		site, err := m.cl.StorageSite(path)
		if err != nil {
			return nil, err
		}
		resp, err := m.ep.Call(site, op, req)
		if err == nil || attempt >= movedRetries || !errors.Is(err, errMoved) {
			return resp, err
		}
		m.cl.cfg.Clock.Sleep(time.Duration(attempt+1) * time.Millisecond)
	}
}

// Create makes an empty file at the path's storage site.
func (m *machine) Create(path string) error {
	m.st.Inc(stats.Syscalls)
	_, err := m.callStorage(path, "create", createReq{Path: path})
	return err
}

// Remove deletes a file and reclaims its storage.
func (m *machine) Remove(path string) error {
	m.st.Inc(stats.Syscalls)
	_, err := m.callStorage(path, "remove", removeReq{Path: path})
	return err
}

// Open resolves the path and opens the file, returning its file ID and
// current size.
func (m *machine) Open(path string) (string, int64, error) {
	m.st.Inc(stats.Syscalls)
	resp, err := m.callStorage(path, "open", openReq{Path: path})
	if err != nil {
		return "", 0, err
	}
	r := resp.(openResp)
	return r.FileID, r.Size, nil
}

// Close releases one open reference.
func (s *Site) Close(fileID string, pid int, txn string) error {
	s.st.Inc(stats.Syscalls)
	_, err := s.callStorage(fileID, "close", closeReq{FileID: fileID, PID: pid, Txn: txn})
	if txn == "" {
		// The storage site released the process's locks on the file with
		// the close; what this site cached of them is void.
		s.kernel().cacheTrim(fileID, Holder(pid, "").Group(), 0, math.MaxInt64)
	}
	return err
}

// Sync commits a non-transaction process's modifications immediately.
func (m *machine) Sync(fileID string, pid int, txn string) error {
	m.st.Inc(stats.Syscalls)
	_, err := m.callStorage(fileID, "sync", syncReq{FileID: fileID, PID: pid, Txn: txn})
	return err
}

// Stat returns the file's working and committed sizes.
func (m *machine) Stat(fileID string) (size, committed int64, err error) {
	m.st.Inc(stats.Syscalls)
	resp, err := m.callStorage(fileID, "stat", statReq{FileID: fileID})
	if err != nil {
		return 0, 0, err
	}
	r := resp.(statResp)
	return r.Size, r.CommittedSize, nil
}

// List returns a volume's file names.
func (m *machine) List(volume string) ([]string, error) {
	m.st.Inc(stats.Syscalls)
	resp, err := m.callStorage(volume+"/.", "list", listReq{Volume: volume})
	if err != nil {
		return nil, err
	}
	return resp.(listResp).Names, nil
}

// Read reads from the file on behalf of the process.  For transaction
// processes the requesting kernel implicitly acquires the shared record
// lock first (section 3.1: locks may be acquired implicitly at access
// time), consulting its lock cache to skip the extra exchange when the
// transaction already holds coverage (section 5.1).
func (s *Site) Read(fileID string, pid int, txn string, off int64, n int) ([]byte, error) {
	s.st.Inc(stats.Syscalls)
	if txn != "" {
		if err := s.ensureLocked(fileID, pid, txn, lockmgr.ModeShared, off, int64(n)); err != nil {
			return nil, err
		}
	} else if data, ok := s.kernel().replicaRead(fileID, off, n); ok {
		// Served by the closest available storage site: the local
		// replica (section 5.2).  Transaction reads always go to the
		// primary, where their locks live.
		return data, nil
	}
	resp, err := s.callStorage(fileID, "read", readReq{FileID: fileID, Off: off, Len: n, PID: pid, Txn: txn})
	if err != nil {
		return nil, err
	}
	return resp.(readResp).Data, nil
}

// Write writes to the file on behalf of the process, implicitly acquiring
// the exclusive record lock for transactions.
func (s *Site) Write(fileID string, pid int, txn string, off int64, data []byte) (int, error) {
	s.st.Inc(stats.Syscalls)
	if txn != "" {
		if err := s.ensureLocked(fileID, pid, txn, lockmgr.ModeExclusive, off, int64(len(data))); err != nil {
			return 0, err
		}
	}
	resp, err := s.callStorage(fileID, "write", writeReq{FileID: fileID, Off: off, Data: data, PID: pid, Txn: txn})
	if err != nil {
		return 0, err
	}
	return resp.(writeResp).N, nil
}

// Lock issues an explicit lock request (the Lock(file,length,mode) call
// of section 3.2).  Granted locks are cached at the requesting site.
func (s *Site) Lock(fileID string, pid int, txn string, mode lockmgr.Mode, off, length int64, atEOF, nonTxn, wait bool) (lockmgr.Result, error) {
	s.st.Inc(stats.Syscalls)
	k := s.kernel() // the grant is cached by the kernel that asked for it
	if site, err := s.cl.StorageSite(fileID); err == nil && site != s.id {
		s.st.Inc(stats.LockMsgs)
	}
	resp, err := s.callStorage(fileID, "lock", lockReq{
		FileID: fileID, PID: pid, Txn: txn, Mode: mode,
		Off: off, Len: length, AtEOF: atEOF, NonTxn: nonTxn, Wait: wait,
	})
	if err != nil {
		return lockmgr.Result{}, err
	}
	r := resp.(lockResp)
	k.cacheAdd(fileID, Holder(pid, txn).Group(), mode, r.Off, r.Len)
	if r.LeaseMode != lockmgr.ModeNone {
		k.leaseCacheAdd(fileID, r.LeaseMode, r.LeaseOff, r.LeaseLen, r.LeaseWhole)
	}
	return lockmgr.Result{Off: r.Off, Len: r.Len}, nil
}

// Unlock releases (or, for transactions, retains) the range.
func (s *Site) Unlock(fileID string, pid int, txn string, off, length int64) (bool, error) {
	s.st.Inc(stats.Syscalls)
	if site, err := s.cl.StorageSite(fileID); err == nil && site != s.id {
		s.st.Inc(stats.LockMsgs)
	}
	resp, err := s.callStorage(fileID, "unlock", unlockReq{FileID: fileID, PID: pid, Txn: txn, Off: off, Len: length})
	if err != nil {
		return false, err
	}
	// The retained lock remains reacquirable by the transaction, so the
	// cache entry stays valid for transactions; non-transaction holders
	// lose coverage.
	r := resp.(unlockResp)
	if !r.Retained {
		s.kernel().cacheTrim(fileID, Holder(pid, txn).Group(), off, length)
	}
	return r.Retained, nil
}

// ensureLocked implicitly acquires the record lock for a transaction
// access, consulting the requester's lock cache first (unless the E8
// ablation disabled it).
func (s *Site) ensureLocked(fileID string, pid int, txn string, mode lockmgr.Mode, off, length int64) error {
	group := Holder(pid, txn).Group()
	preGroup := Holder(pid, "").Group()
	k := s.kernel()
	if !s.cl.cfg.DisableLockCache &&
		(k.cacheCovers(fileID, group, mode, off, length) ||
			k.cacheCovers(fileID, preGroup, mode, off, length)) {
		s.st.Inc(stats.LockCacheHits)
		return nil
	}
	// The lease cache is consulted after the per-transaction cache: a
	// lease survives transaction boundaries, so a repeat access by a new
	// transaction hits here and sends no lock message at all.
	if s.cl.cfg.LockLeases && k.leaseHit(fileID, mode, off, length) {
		s.st.Inc(stats.LeaseHits)
		return nil
	}
	s.st.Inc(stats.LockCacheMisses)
	_, err := s.Lock(fileID, pid, txn, mode, off, length, false, false, true)
	return err
}

// ---- requesting-site lock cache (section 5.1) ----
//
// The cache lives as long as the transaction does at this site: entries
// are keyed by lock group first, so a hit scans one transaction's handful
// of ranges on one file, and the group is dropped whole - one map delete -
// when the transaction ends here (DropLockCache).

func (k *incarnation) cacheAdd(fileID, group string, mode lockmgr.Mode, off, length int64) {
	if k.cl.cfg.DisableLockCache {
		return
	}
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	files := k.lockCache[group]
	if files == nil {
		files = make(map[string][]cachedLock)
		k.lockCache[group] = files
	}
	files[fileID] = append(files[fileID], cachedLock{mode: mode, off: off, len: length})
}

func (k *incarnation) cacheCovers(fileID, group string, mode lockmgr.Mode, off, length int64) bool {
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	ranges := k.lockCache[group][fileID]
	// Coverage check against the cached ranges: greedy sweep.
	for need, end := off, off+length; need < end; {
		advanced := false
		for _, c := range ranges {
			if c.mode >= mode && c.off <= need && c.off+c.len > need {
				need = c.off + c.len
				advanced = true
			}
		}
		if !advanced {
			return false
		}
	}
	return true
}

func (k *incarnation) cacheTrim(fileID, group string, off, length int64) {
	k.cacheMu.Lock()
	defer k.cacheMu.Unlock()
	files := k.lockCache[group]
	var kept []cachedLock
	for _, c := range files[fileID] {
		if c.off+c.len <= off || off+length <= c.off {
			kept = append(kept, c)
			continue
		}
		if c.off < off {
			kept = append(kept, cachedLock{mode: c.mode, off: c.off, len: off - c.off})
		}
		if c.off+c.len > off+length {
			kept = append(kept, cachedLock{mode: c.mode, off: off + length, len: c.off + c.len - off - length})
		}
	}
	if len(kept) > 0 {
		files[fileID] = kept
		return
	}
	delete(files, fileID)
	if len(files) == 0 {
		delete(k.lockCache, group)
	}
}

// DropLockCache forgets every lock this site cached for the group - the
// end of the cache's life: the transaction committed or aborted, its last
// member process here left it, or the process closed the file.  A storage
// site calls it when it releases the group's locks; package core calls it
// at each site a transaction ran at.  Purely local: no message is sent.
func (s *Site) DropLockCache(group string) { s.kernel().dropLockCache(group) }

func (k *incarnation) dropLockCache(group string) {
	k.cacheMu.Lock()
	delete(k.lockCache, group)
	k.cacheMu.Unlock()
}
