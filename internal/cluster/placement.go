package cluster

// Locality-adaptive placement (DESIGN.md section 14): the kernel side of
// moving a file's primary copy to the site that actually uses it, and of
// routing a transaction's commit coordination to the site that stores
// all of its data.
//
// The ownership move is deliberately synchronous and inline: it runs
// from finishTxn at the storage site, after the triggering transaction's
// locks have released, so a fixed-seed run makes the same moves at the
// same points no matter how the host schedules goroutines - the property
// crashprobe and the chaos engine depend on.  The move itself reuses the
// machinery that already exists: the committed bytes ship exactly like a
// replica propagation, the target hosts them on a volume of the same
// name (so prepare records, recovery and lock lists work unchanged), and
// the source's copy is reclaimed with the same ordering handleRemove
// uses (directory entry first - the commit point - then pages and
// inode), which fs.Load's allocator rebuild makes crash-safe at every
// intermediate step.
//
// Crash safety of the repoint itself: the namespace override
// (Cluster.fileHomes) flips only after the target durably holds the
// full committed copy.  A crash before the flip leaves the source
// primary (the target's copy is unreferenced garbage its next restart
// purges); a crash after the flip leaves the target primary (the
// source's leftover copy is purged on its next restart).  Either way
// exactly one site resolves as the file's home.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/tpc"
	"repro/internal/trace"
)

// errMoved fences operations on a file whose primary copy is mid-move.
// It crosses the network as a simnet.RemoteError wrapping, so requesters
// match it with errors.Is and retry against the re-resolved home.
var errMoved = errors.New("cluster: file ownership moving")

// moveHolder owns the whole-file exclusive lock that fences a move.
var moveHolder = lockmgr.Holder{PID: -1}

// wholeFile is a lock length covering any possible file extent.
const wholeFile = int64(math.MaxInt64 / 2)

// ownerAdoptReq carries a file's committed contents to its new home.
type ownerAdoptReq struct {
	Path string
	Data []byte
	Size int64
	// Refs is the source's open reference count: live opens survive the
	// move (the new home inherits them; closes re-route there).
	Refs int
	// MoveID is the source's fence token for this move attempt.  The
	// target remembers it with the installed copy so a later purge can
	// name exactly which adoption it is disowning - a purge must never
	// delete the copy a NEWER move installed.
	MoveID uint64
}

func (r ownerAdoptReq) WireSize() int { return 64 + len(r.Data) }

// ownerPurgeReq asks a site to discard the copy adoption MoveID
// installed: the source abandoned that move (adopt call failed, or the
// source crashed before the repoint), so no repoint is coming, and
// without this the garbage copy would sit at the target until its next
// restart purge (which may never come).
type ownerPurgeReq struct {
	Path   string
	MoveID uint64
}

func (r ownerPurgeReq) WireSize() int { return 64 }

// coordCommitReq asks a site to coordinate a transaction whose data it
// stores, turning a remote two-phase commit into a local one (plus this
// one round trip).
type coordCommitReq struct {
	Txid  string
	Files []proc.FileRef
}

func (r coordCommitReq) WireSize() int {
	n := 64
	for _, f := range r.Files {
		n += len(f.FileID) + 16
	}
	return n
}

// movingGuard rejects an operation on a mid-move file.  Free when
// placement is off (s.moving is nil).
func (k *incarnation) movingGuard(path string) error {
	if k.moving == nil {
		return nil
	}
	k.placeMu.Lock()
	defer k.placeMu.Unlock()
	if _, ok := k.moving[path]; ok {
		return fmt.Errorf("%w: %s", errMoved, path)
	}
	return nil
}

// beginMove claims the move fence for path; false if already claimed.  The
// fence is kernel memory, forfeit in a crash with the lock table: a move
// blocked in a network call across the crash neither leaves its file
// fenced behind errMoved nor, unwinding, releases anyone else's claim.
func (k *incarnation) beginMove(path string) bool {
	k.placeMu.Lock()
	defer k.placeMu.Unlock()
	if _, ok := k.moving[path]; ok {
		return false
	}
	k.moving[path] = struct{}{}
	return true
}

// endMove releases the fence.
func (k *incarnation) endMove(path string) {
	k.placeMu.Lock()
	delete(k.moving, path)
	k.placeMu.Unlock()
}

// PlacementInFlight reports how many placement operations (moves,
// adoptions, purges) this site is currently running.  The chaos
// harness drains it to zero before auditing the single-primary
// invariant, which otherwise races the tail of an in-flight move.
func (m *machine) PlacementInFlight() int {
	return int(m.placeOps.Load())
}

// recordHeat feeds one transactional access into the heat tracker.
// Only transactional accesses count: they are the accesses whose
// locality the move can actually improve (and the only ones whose
// locking discipline makes the move's quiesce check airtight).
func (k *incarnation) recordHeat(path string, from simnet.SiteID, txn string) {
	if k.heat == nil || txn == "" {
		return
	}
	k.heat.Record(path, from)
}

// maybeMovePlacement runs after a transaction finishes at this storage
// site: any of its files now dominated by a remote accessor migrates
// there, synchronously, before the commit acknowledgment returns.  Best
// effort - a move that cannot proceed (file busy, target unreachable)
// is simply skipped; the heat survives and the next quiesce retries.
func (k *incarnation) maybeMovePlacement(fileIDs []string) {
	if k.heat == nil || len(fileIDs) == 0 {
		return
	}
	paths := append([]string(nil), fileIDs...)
	sort.Strings(paths)
	seen := make(map[string]bool, len(paths))
	for _, path := range paths {
		if seen[path] {
			continue
		}
		seen[path] = true
		if home, err := k.cl.StorageSite(path); err != nil || home != k.id {
			continue // no longer (or never) primary here
		}
		target, ok := k.heat.Dominant(path, k.id)
		if !ok {
			continue
		}
		k.moveFile(path, target) //nolint:errcheck // best effort; heat persists and the next commit retries
	}
}

// moveFile migrates path's primary copy to target.  The caller has
// established that this site is path's home and target its dominant
// accessor.
func (k *incarnation) moveFile(path string, target simnet.SiteID) error {
	if !k.beginMove(path) {
		return nil // concurrent move already running
	}
	defer k.endMove(path)
	tok := k.moveSeq.Add(1) // names this attempt to the target (ownerAdoptReq.MoveID)
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)

	// Quiesce check behind the fence: no uncommitted owners and no lock
	// entries means no transaction can be mid-flight on the file (every
	// transactional access locks first, and new lock requests are fenced
	// by errMoved).  The whole-file exclusive lock makes the check
	// atomic; anything else holding coverage - a retained lock of a
	// prepared transaction, an unrevoked lease, a non-transaction lock -
	// denies it and the move waits for a later quiesce.
	k.mu.Lock()
	of := k.open[path]
	k.mu.Unlock()
	refs := 0
	if of != nil {
		if len(of.file.Owners()) > 0 {
			return nil
		}
		if _, err := of.locks.Lock(lockmgr.Request{
			Holder: moveHolder, Mode: lockmgr.ModeExclusive, Off: 0, Len: wholeFile,
		}); err != nil {
			return nil
		}
		defer of.locks.ReleaseGroup(moveHolder.Group())
		refs = of.refs
	}

	// Ship the committed image.
	vs, name, data, err := k.committedImage(path)
	if err != nil {
		return err
	}
	if _, err := k.ep.Call(target, "owneradopt", ownerAdoptReq{Path: path, Data: data, Size: int64(len(data)), Refs: refs, MoveID: tok}); err != nil {
		// No repoint will happen, so whatever the target installed (the
		// call may have failed on the reply leg) is garbage; tell it so
		// rather than leaving the copy for a restart that may never come.
		// Async: the adoption may still be running over there (the call
		// timed out under it), and this goroutine sits on a commit path.
		k.spawnPurge(target, path, tok)
		return err
	}

	// Commit point of the move: the namespace now says target - but only
	// if this kernel is still alive.  A crash forfeited the lock table and
	// the fence this goroutine relied on; recovery may already have
	// admitted new transactions against the source copy, so repointing now
	// would migrate a stale image out from under them.  Taking k.mu
	// serializes the flip with Crash, so the crash/restart story stays the
	// two-case analysis in the package comment, with the restart purge as
	// the only healer.
	k.mu.Lock()
	alive := !k.dead.Load()
	if alive {
		k.cl.setFileHome(path, target)
	}
	k.mu.Unlock()
	if !alive {
		// The move is dead; disown the copy the target just installed.
		k.spawnPurge(target, path, tok)
		return nil
	}
	k.st.Inc(stats.OwnerMoves)
	k.tr.Record(trace.OwnerMove, "", path, int64(target))
	k.heat.NoteMove(path)
	k.heat.Forget(path)

	// Reclaim the source copy; every step below is redone by the restart
	// purge if a crash interrupts it (the namespace already points away).
	k.mu.Lock()
	if cur, ok := k.open[path]; ok && cur == of {
		delete(k.open, path)
		k.locks.Drop(path)
	}
	k.mu.Unlock()
	k.leaseCacheDrop(path)
	return vs.reclaimFile(name)
}

// handleOwnerAdopt installs a migrated file at its new home.  The file
// lands on a volume of the same name - created here on first adoption -
// so every path-keyed mechanism (prepare records, recovery, locks,
// replica propagation) works unchanged at the new site.
//
// Two hazards shape the code.  First, the source retries a move whose
// reply was lost, so a second adoption of the same path can arrive
// while leftovers of the first exist - possibly while the first handler
// is STILL RUNNING after a partition swallowed its reply.  The per-path
// fence serializes adoptions, and an orphaned open-file handle from an
// earlier adoption is written through rather than shadowed: two live
// shadow.File handles on one inode each cache a committed inode, and a
// commit through the stale one frees pages the durable state still
// references (which the allocator then hands to, say, the directory -
// the cross-file corruption the chaos audit catches as torn gob and
// double-referenced pages).  Second, a crash mid-adoption must fail the
// remainder of the adoption instead of letting old-generation inode
// numbers loose on the reloaded allocator: every durable step runs on
// this incarnation's volume handle, which Crash fences.
func (k *incarnation) handleOwnerAdopt(req ownerAdoptReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	if !k.beginMove(req.Path) {
		return fmt.Errorf("%w: %s", errMoved, req.Path)
	}
	defer k.endMove(req.Path)
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)
	vs, err := k.hostedVol(volName)
	if err != nil {
		return err
	}
	k.mu.Lock()
	of := k.open[req.Path]
	k.mu.Unlock()
	var f *shadow.File
	if of != nil {
		f = of.file
	} else if f, err = vs.openOrCreate(name); err != nil {
		return err
	}
	if err := installImage(f, req.Data); err != nil {
		return err
	}

	// A purge for this very adoption may have arrived while the installs
	// above were running (the source's adopt call timed out under us and
	// it already disowned the move): honor it now, before advertising
	// the copy anywhere.  A tombstone naming a different MoveID is
	// obsolete - the copy it described was replaced by this adoption.
	k.placeMu.Lock()
	pw, wanted := k.purgeWanted[req.Path]
	delete(k.purgeWanted, req.Path)
	if wanted && pw == req.MoveID {
		k.placeMu.Unlock()
		k.tr.Record(trace.OwnerPurge, "disown", req.Path, int64(req.MoveID))
		if err := vs.reclaimFile(name); err != nil {
			return err
		}
		return fmt.Errorf("cluster: adoption of %s disowned by source", req.Path)
	}
	k.adopted[req.Path] = req.MoveID
	k.placeMu.Unlock()
	k.st.Inc(stats.OwnerAdopts)
	k.tr.Record(trace.OwnerAdopt, "install", req.Path, int64(req.MoveID))

	if req.Refs > 0 {
		// Inherit the live opens: closes re-resolve the storage site and
		// arrive here expecting an open-file entry.
		k.mu.Lock()
		if cur, dup := k.open[req.Path]; dup {
			if cur.refs < req.Refs {
				cur.refs = req.Refs
			}
		} else {
			nf := &openFile{id: req.Path, vs: vs, file: f, refs: req.Refs}
			nf.locks = k.locks.File(req.Path, func() int64 { return nf.file.Size() })
			k.open[req.Path] = nf
		}
		k.mu.Unlock()
	}
	return nil
}

// handleOwnerPurge discards the copy adoption req.MoveID installed: the
// source abandoned that move, so no repoint is coming.  Three guards
// keep it from ever deleting a live primary: if the namespace homes the
// file here a repoint DID land and the copy is real; if the adoption is
// still running the purge is parked as a tombstone the handler honors
// when it finishes; and if the installed copy carries a different
// MoveID it belongs to a newer move whose verdict is not ours to give.
func (k *incarnation) handleOwnerPurge(req ownerPurgeReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)
	if home, herr := k.cl.StorageSite(req.Path); herr == nil && home == k.id {
		return nil
	}
	if !k.beginMove(req.Path) {
		k.placeMu.Lock()
		k.purgeWanted[req.Path] = req.MoveID
		k.placeMu.Unlock()
		k.tr.Record(trace.OwnerPurge, "tombstone-busy", req.Path, int64(req.MoveID))
		return nil
	}
	defer k.endMove(req.Path)
	k.placeMu.Lock()
	id, adoptedHere := k.adopted[req.Path]
	if adoptedHere && id == req.MoveID {
		delete(k.adopted, req.Path)
	} else {
		// Nothing this incarnation knows matches: the adoption may still
		// be in the network (its request outlived the source's patience),
		// already purged by a restart, or superseded by a newer move.  Leave
		// the tombstone so a late-arriving adoption with this MoveID is
		// discarded on installation instead of resurrecting the copy.
		k.purgeWanted[req.Path] = req.MoveID
	}
	k.placeMu.Unlock()
	if !adoptedHere || id != req.MoveID {
		k.tr.Record(trace.OwnerPurge, "tombstone-miss", req.Path, int64(req.MoveID))
		return nil
	}
	k.tr.Record(trace.OwnerPurge, "reclaim", req.Path, int64(req.MoveID))
	k.mu.Lock()
	vs := k.vols[volName]
	if _, live := k.open[req.Path]; live {
		delete(k.open, req.Path)
		k.locks.Drop(req.Path)
	}
	k.mu.Unlock()
	k.leaseCacheDrop(req.Path)
	if vs == nil {
		return nil
	}
	if _, err := vs.dirLookup(name); errors.Is(err, ErrNoSuchFile) {
		return nil
	}
	return vs.reclaimFile(name)
}

// spawnPurge disowns an abandoned move's adopted copy from a detached
// goroutine: the caller sits on a commit path and must not wait out a
// still-running adoption at the target.  Bounded patient retries cover
// transport failures; if the target stays unreachable its copy is
// garbage that site's own next restart purges anyway.
func (k *incarnation) spawnPurge(target simnet.SiteID, path string, moveID uint64) {
	k.placeOps.Add(1)
	k.cl.cfg.Clock.Go(func() {
		defer k.placeOps.Add(-1)
		for attempt := 0; attempt < movedRetries; attempt++ {
			if _, err := k.ep.Call(target, "ownerpurge", ownerPurgeReq{Path: path, MoveID: moveID}); err == nil {
				return
			}
			k.retryMovedWait(attempt)
		}
	})
}

// hostedVol returns the named volume at this site, creating a fresh one
// (on its own disk) the first time a file of that volume is adopted
// here.  The hosted volume joins k.vols under the canonical name and is
// indistinguishable from a mounted one to every other subsystem; it is
// NOT added to the cluster mount table - the mount stays where it was.
func (k *incarnation) hostedVol(volName string) (*volState, error) {
	if vs, err := k.volByName(volName); err == nil {
		return vs, nil
	}
	return k.addVolume(&disk{vol: volName, hosted: true})
}

// purgeForeignFiles runs during restart, after the volumes reload but
// before in-doubt recovery: any local file the namespace homes at
// another site is a leftover of an interrupted ownership move (either a
// source copy whose removal was cut short after the repoint, or an
// adopted copy whose repoint never happened) and is reclaimed here,
// restoring the exactly-one-primary invariant.  Prepared transactions
// cannot reference such a file: a move only proceeds through a fully
// quiesced lock list, so no prepare record and a foreign home can
// coexist.
func (k *incarnation) purgeForeignFiles() {
	for _, vs := range k.volStates(false) {
		for _, name := range vs.dirList() {
			path := vs.name + "/" + name
			home, err := k.cl.StorageSite(path)
			if err != nil || home == k.id {
				continue
			}
			vs.reclaimFile(name) //nolint:errcheck // load rebuilt the allocator; a re-crash just purges again
		}
	}
}

// HasLocalFile reports whether this site's copy of the named volume
// holds a directory entry for name - the crash-audit probe into the
// exactly-one-primary invariant (the namespace can say a file lives
// elsewhere while an interrupted move's garbage copy still exists here
// until the next restart purges it).
func (s *Site) HasLocalFile(volName, name string) (bool, error) {
	vs, err := s.kernel().volByName(volName)
	if err != nil {
		return false, nil
	}
	_, err = vs.dirLookup(name) // found, or ErrNoSuchFile
	return err == nil, nil
}

// retryMoved reports whether a storage call that failed with errMoved
// should be retried: the requester waits out the in-flight move, then
// re-resolves the storage site.  Bounded so a wedged move cannot hang a
// caller forever.
const movedRetries = 16

func (m *machine) retryMovedWait(attempt int) {
	m.cl.cfg.Clock.Sleep(time.Duration(attempt+1) * time.Millisecond)
}

// ---- routed commit (coordinator placement) ----

// handleCoordCommit coordinates a transaction at the request of the
// site where it began: this site stores all of the transaction's data,
// so prepare and phase two run locally (with FastPaths, as a one-phase
// commit) instead of crossing the network.
func (k *incarnation) handleCoordCommit(req coordCommitReq) error {
	coord, err := k.Coordinator()
	if err != nil {
		return err
	}
	return coord.CommitTransaction(req.Txid, req.Files)
}

// RouteCommit hands the coordinator role for txid to target.  On a
// transport failure the outcome is queried rather than presumed: if the
// target committed, the commit stands.  An unconfirmable outcome is
// returned as an error WITHOUT aborting - a unilateral abort could tear
// a commit the unreachable target already logged; recovery resolves the
// participant state when the partition heals.
func (m *machine) RouteCommit(target simnet.SiteID, txid string, files []proc.FileRef) error {
	_, err := m.ep.Call(target, "coordcommit", coordCommitReq{Txid: txid, Files: files})
	if err == nil {
		m.st.Inc(stats.RoutedCommits)
		m.tr.Record(trace.RoutedCommit, txid, "", int64(target))
		return nil
	}
	var re *simnet.RemoteError
	if errors.As(err, &re) && !errors.Is(err, ErrSiteDown) {
		// The coordinator ran and refused (prepare failure => it already
		// aborted everywhere, per the protocol).  A kernel that died
		// under the request refused nothing: that is a lost reply.
		return err
	}
	if st, qerr := m.QueryStatus(target, txid); qerr == nil && st == tpc.StatusCommitted {
		m.st.Inc(stats.RoutedCommits)
		m.tr.Record(trace.RoutedCommit, txid, "", int64(target))
		return nil
	}
	return fmt.Errorf("cluster: routed commit of %s to %v unconfirmed: %w", txid, target, err)
}

// RouteTarget reports the single remote site that stores every one of
// the transaction's files, if there is one - the condition under which
// handing it the coordinator role converts a cross-site two-phase
// commit into a local one.
func (c *Cluster) RouteTarget(self simnet.SiteID, files []proc.FileRef) (simnet.SiteID, bool) {
	var target simnet.SiteID
	for i, f := range files {
		site, err := c.StorageSite(f.FileID)
		if err != nil {
			return 0, false
		}
		if i == 0 {
			target = site
		} else if site != target {
			return 0, false
		}
	}
	if len(files) == 0 || target == self {
		return 0, false
	}
	return target, true
}
