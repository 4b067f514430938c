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

// registerPlacementHandlers installs the adaptive-placement protocol.
func (s *Site) registerPlacementHandlers() {
	s.ep.Handle("owneradopt", s.wrap(func(req any) (any, error) { return nil, s.handleOwnerAdopt(req.(ownerAdoptReq)) }))
	s.ep.Handle("ownerpurge", s.wrap(func(req any) (any, error) { return nil, s.handleOwnerPurge(req.(ownerPurgeReq)) }))
	s.ep.Handle("coordcommit", s.wrap(func(req any) (any, error) { return nil, s.handleCoordCommit(req.(coordCommitReq)) }))
}

// movingGuard rejects an operation on a mid-move file.  Free when
// placement is off (s.moving is nil).
func (s *Site) movingGuard(path string) error {
	if s.moving == nil {
		return nil
	}
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	if _, ok := s.moving[path]; ok {
		return fmt.Errorf("%w: %s", errMoved, path)
	}
	return nil
}

// beginMove claims the move fence for path; the returned token must be
// passed to endMove.  False if already claimed.
func (s *Site) beginMove(path string) (uint64, bool) {
	s.placeMu.Lock()
	defer s.placeMu.Unlock()
	if _, ok := s.moving[path]; ok {
		return 0, false
	}
	s.moveSeq++
	s.moving[path] = s.moveSeq
	return s.moveSeq, true
}

// endMove releases the fence, but only if path still carries this
// claim's token: a crash wipes the fence table (resetMoving), so a
// pre-crash move goroutine unwinding afterwards must not delete a fence
// some post-restart move has since claimed.
func (s *Site) endMove(path string, tok uint64) {
	s.placeMu.Lock()
	if cur, ok := s.moving[path]; ok && cur == tok {
		delete(s.moving, path)
	}
	s.placeMu.Unlock()
}

// resetMoving forfeits the placement fence tables at restart: they are
// kernel memory, and the goroutines that claimed entries died with the
// crash (or, if still unwinding, are token-fenced out of endMove).
// Without this, a move blocked in a network call across the final crash
// leaves its file permanently fenced behind errMoved.  The adopted and
// purgeWanted maps go with it - any on-disk copy they described was
// either purged by this restart (foreign home) or is the legitimate
// primary.
func (s *Site) resetMoving() {
	if s.moving == nil {
		return
	}
	s.placeMu.Lock()
	s.moving = make(map[string]uint64)
	s.adopted = make(map[string]uint64)
	s.purgeWanted = make(map[string]uint64)
	s.placeMu.Unlock()
}

// PlacementInFlight reports how many placement operations (moves,
// adoptions, purges) this site is currently running.  The chaos
// harness drains it to zero before auditing the single-primary
// invariant, which otherwise races the tail of an in-flight move.
func (s *Site) PlacementInFlight() int {
	return int(s.placeOps.Load())
}

// recordHeat feeds one transactional access into the heat tracker.
// Only transactional accesses count: they are the accesses whose
// locality the move can actually improve (and the only ones whose
// locking discipline makes the move's quiesce check airtight).
func (s *Site) recordHeat(path string, from simnet.SiteID, txn string) {
	if s.heat == nil || txn == "" {
		return
	}
	s.heat.Record(path, from)
}

// maybeMovePlacement runs after a transaction finishes at this storage
// site: any of its files now dominated by a remote accessor migrates
// there, synchronously, before the commit acknowledgment returns.  Best
// effort - a move that cannot proceed (file busy, target unreachable)
// is simply skipped; the heat survives and the next quiesce retries.
func (s *Site) maybeMovePlacement(fileIDs []string) {
	if s.heat == nil || len(fileIDs) == 0 {
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
		if home, err := s.cl.StorageSite(path); err != nil || home != s.id {
			continue // no longer (or never) primary here
		}
		target, ok := s.heat.Dominant(path, s.id)
		if !ok {
			continue
		}
		s.moveFile(path, target) //nolint:errcheck // best effort; heat persists and the next commit retries
	}
}

// moveFile migrates path's primary copy to target.  The caller has
// established that this site is path's home and target its dominant
// accessor.
func (s *Site) moveFile(path string, target simnet.SiteID) error {
	tok, ok := s.beginMove(path)
	if !ok {
		return nil // concurrent move already running
	}
	defer s.endMove(path, tok)
	s.placeOps.Add(1)
	defer s.placeOps.Add(-1)

	// Quiesce check behind the fence: no uncommitted owners and no lock
	// entries means no transaction can be mid-flight on the file (every
	// transactional access locks first, and new lock requests are fenced
	// by errMoved).  The whole-file exclusive lock makes the check
	// atomic; anything else holding coverage - a retained lock of a
	// prepared transaction, an unrevoked lease, a non-transaction lock -
	// denies it and the move waits for a later quiesce.
	s.mu.Lock()
	if !s.up {
		s.mu.Unlock()
		return nil
	}
	epoch := s.epoch
	of := s.open[path]
	s.mu.Unlock()
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
	vs, name, data, err := s.committedImage(path)
	if err != nil {
		return err
	}
	if _, err := s.ep.Call(target, "owneradopt", ownerAdoptReq{Path: path, Data: data, Size: int64(len(data)), Refs: refs, MoveID: tok}); err != nil {
		// No repoint will happen, so whatever the target installed (the
		// call may have failed on the reply leg) is garbage; tell it so
		// rather than leaving the copy for a restart that may never come.
		// Async: the adoption may still be running over there (the call
		// timed out under it), and this goroutine sits on a commit path.
		s.spawnPurge(target, path, tok)
		return err
	}

	// Commit point of the move: the namespace now says target - but only
	// if this site has not crashed since the quiesce check.  A crash
	// wiped the lock table and the fence this goroutine relied on;
	// recovery may already have admitted new transactions against the
	// source copy, so repointing now would migrate a stale image out
	// from under them.  Refusing leaves the target's adopted copy as
	// unreferenced garbage its next restart purges.
	if !s.repointIfCurrent(path, target, epoch) {
		// This site crashed since the quiesce check, so the move is dead;
		// disown the copy the target just installed.
		s.spawnPurge(target, path, tok)
		return nil
	}
	s.st.Inc(stats.OwnerMoves)
	s.tr.Record(trace.OwnerMove, "", path, int64(target))
	s.heat.NoteMove(path)
	s.heat.Forget(path)

	// Reclaim the source copy; every step below is redone by the restart
	// purge if a crash interrupts it (the namespace already points away).
	s.mu.Lock()
	if cur, ok := s.open[path]; ok && cur == of {
		delete(s.open, path)
		s.locks.Drop(path)
	}
	s.mu.Unlock()
	s.leaseCacheDrop(path)
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
// double-referenced pages).  Second, a crash-restart mid-adoption
// reloads the volume, so every durable step runs against one pinned
// handle: the reload's invalidation then fails the remainder of the
// adoption instead of letting old-generation inode numbers loose on the
// reloaded allocator.
func (s *Site) handleOwnerAdopt(req ownerAdoptReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	tok, ok := s.beginMove(req.Path)
	if !ok {
		return fmt.Errorf("%w: %s", errMoved, req.Path)
	}
	defer s.endMove(req.Path, tok)
	s.placeOps.Add(1)
	defer s.placeOps.Add(-1)
	vs, err := s.hostedVol(volName)
	if err != nil {
		return err
	}
	vol := vs.pinVol()
	s.mu.Lock()
	of := s.open[req.Path]
	s.mu.Unlock()
	var f *shadow.File
	if of != nil {
		f = of.file
	} else if f, err = vs.openOrCreateOn(vol, name); err != nil {
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
	s.placeMu.Lock()
	pw, wanted := s.purgeWanted[req.Path]
	delete(s.purgeWanted, req.Path)
	if wanted && pw == req.MoveID {
		s.placeMu.Unlock()
		s.tr.Record(trace.OwnerPurge, "disown", req.Path, int64(req.MoveID))
		if err := vs.reclaimFile(name); err != nil {
			return err
		}
		return fmt.Errorf("cluster: adoption of %s disowned by source", req.Path)
	}
	s.adopted[req.Path] = req.MoveID
	s.placeMu.Unlock()
	s.st.Inc(stats.OwnerAdopts)
	s.tr.Record(trace.OwnerAdopt, "install", req.Path, int64(req.MoveID))

	if req.Refs > 0 {
		// Inherit the live opens: closes re-resolve the storage site and
		// arrive here expecting an open-file entry.
		s.mu.Lock()
		if cur, dup := s.open[req.Path]; dup {
			if cur.refs < req.Refs {
				cur.refs = req.Refs
			}
		} else {
			nf := &openFile{id: req.Path, vs: vs, file: f, refs: req.Refs}
			nf.locks = s.locks.File(req.Path, func() int64 { return nf.file.Size() })
			s.open[req.Path] = nf
		}
		s.mu.Unlock()
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
func (s *Site) handleOwnerPurge(req ownerPurgeReq) error {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return err
	}
	s.placeOps.Add(1)
	defer s.placeOps.Add(-1)
	if home, herr := s.cl.StorageSite(req.Path); herr == nil && home == s.id {
		return nil
	}
	tok, ok := s.beginMove(req.Path)
	if !ok {
		s.placeMu.Lock()
		s.purgeWanted[req.Path] = req.MoveID
		s.placeMu.Unlock()
		s.tr.Record(trace.OwnerPurge, "tombstone-busy", req.Path, int64(req.MoveID))
		return nil
	}
	defer s.endMove(req.Path, tok)
	s.placeMu.Lock()
	id, adoptedHere := s.adopted[req.Path]
	if adoptedHere && id == req.MoveID {
		delete(s.adopted, req.Path)
	} else {
		// Nothing this epoch matches: the adoption may still be in the
		// network (its request outlived the source's patience), already
		// purged by a restart, or superseded by a newer move.  Leave the
		// tombstone so a late-arriving adoption with this MoveID is
		// discarded on installation instead of resurrecting the copy.
		s.purgeWanted[req.Path] = req.MoveID
	}
	s.placeMu.Unlock()
	if !adoptedHere || id != req.MoveID {
		s.tr.Record(trace.OwnerPurge, "tombstone-miss", req.Path, int64(req.MoveID))
		return nil
	}
	s.tr.Record(trace.OwnerPurge, "reclaim", req.Path, int64(req.MoveID))
	s.mu.Lock()
	vs := s.vols[volName]
	if _, live := s.open[req.Path]; live {
		delete(s.open, req.Path)
		s.locks.Drop(req.Path)
	}
	s.mu.Unlock()
	s.leaseCacheDrop(req.Path)
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
func (s *Site) spawnPurge(target simnet.SiteID, path string, moveID uint64) {
	s.placeOps.Add(1)
	s.cl.cfg.Clock.Go(func() {
		defer s.placeOps.Add(-1)
		for attempt := 0; attempt < movedRetries; attempt++ {
			if _, err := s.ep.Call(target, "ownerpurge", ownerPurgeReq{Path: path, MoveID: moveID}); err == nil {
				return
			}
			s.retryMovedWait(attempt)
		}
	})
}

// hostedVol returns the named volume at this site, creating a fresh one
// (on its own disk) the first time a file of that volume is adopted
// here.  The hosted volume joins s.vols under the canonical name and is
// indistinguishable from a mounted one to every other subsystem; it is
// NOT added to the cluster mount table - the mount stays where it was.
func (s *Site) hostedVol(volName string) (*volState, error) {
	s.mu.Lock()
	if vs, ok := s.vols[volName]; ok {
		s.mu.Unlock()
		return vs, nil
	}
	s.mu.Unlock()

	vs, err := s.formatVolume(volName, fmt.Sprintf("%s@%v", volName, s.id))
	if err != nil {
		return nil, err
	}
	vs.hosted = true
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.vols[volName]; ok {
		return cur, nil // lost a creation race
	}
	s.vols[volName] = vs
	return vs, nil
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
func (s *Site) purgeForeignFiles() {
	for _, vs := range s.volStates() {
		for _, name := range vs.dirList() {
			path := vs.name + "/" + name
			home, err := s.cl.StorageSite(path)
			if err != nil || home == s.id {
				continue
			}
			vs.reclaimFile(name) //nolint:errcheck // load rebuilt the allocator; a re-crash just purges again
		}
	}
}

// repointIfCurrent flips path's namespace home to target iff this site
// has not crashed since epoch was observed.  Holding s.mu across the
// flip serializes it with Crash, so a move a crash interrupted can
// never repoint afterwards: the crash/restart story stays the two-case
// analysis in the package comment, with the restart purge as the only
// healer.
func (s *Site) repointIfCurrent(path string, target simnet.SiteID, epoch uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.up || s.epoch != epoch {
		return false
	}
	s.cl.setFileHome(path, target)
	return true
}

// HasLocalFile reports whether this site's copy of the named volume
// holds a directory entry for name - the crash-audit probe into the
// exactly-one-primary invariant (the namespace can say a file lives
// elsewhere while an interrupted move's garbage copy still exists here
// until the next restart purges it).
func (s *Site) HasLocalFile(volName, name string) (bool, error) {
	s.mu.Lock()
	vs, ok := s.vols[volName]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	_, err := vs.dirLookup(name)
	if errors.Is(err, ErrNoSuchFile) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// retryMoved reports whether a storage call that failed with errMoved
// should be retried: the requester waits out the in-flight move, then
// re-resolves the storage site.  Bounded so a wedged move cannot hang a
// caller forever.
const movedRetries = 16

func (s *Site) retryMovedWait(attempt int) {
	s.cl.cfg.Clock.Sleep(time.Duration(attempt+1) * time.Millisecond)
}

// ---- routed commit (coordinator placement) ----

// handleCoordCommit coordinates a transaction at the request of the
// site where it began: this site stores all of the transaction's data,
// so prepare and phase two run locally (with FastPaths, as a one-phase
// commit) instead of crossing the network.
func (s *Site) handleCoordCommit(req coordCommitReq) error {
	coord, err := s.Coordinator()
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
func (s *Site) RouteCommit(target simnet.SiteID, txid string, files []proc.FileRef) error {
	_, err := s.ep.Call(target, "coordcommit", coordCommitReq{Txid: txid, Files: files})
	if err == nil {
		s.st.Inc(stats.RoutedCommits)
		s.tr.Record(trace.RoutedCommit, txid, "", int64(target))
		return nil
	}
	var re *simnet.RemoteError
	if errors.As(err, &re) {
		// The coordinator ran and refused (prepare failure => it already
		// aborted everywhere, per the protocol).
		return err
	}
	if st, qerr := s.QueryStatus(target, txid); qerr == nil && st == tpc.StatusCommitted {
		s.st.Inc(stats.RoutedCommits)
		s.tr.Record(trace.RoutedCommit, txid, "", int64(target))
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
