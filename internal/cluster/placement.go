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
// Who decides a move: the catalog, once.  The source registers the move
// pending (proposeMove) before it ships the image.  The target decides
// commit: it installs the copy, then flips the file's home in the
// catalog (commitMove) - only if the move is still pending and its own
// incarnation is alive - before it replies.  The source decides abort:
// after its call returns, error or not, it settles (settleMove), which
// aborts a move still pending and otherwise tells it the target
// committed.  A crash of the source aborts too - a move whose source
// incarnation is dead can no longer commit.  The first decision wins, and
// both sides learn it rather than guess it from a reply: a refused
// adoption reclaims its own copy before answering, and a source whose
// reply was lost still reclaims its copy once the catalog says "moved".
// Only a crash can leave a second copy, only on the crashed site, and
// that site's restart purge (purgeForeignFiles) reclaims it.

import (
	"errors"
	"fmt"
	"math"
	"sort"

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

// errMoveDecided refuses an adoption whose move the catalog no longer
// holds pending: the source gave up or crashed, or this is a duplicate of
// an adoption that already committed.
var errMoveDecided = errors.New("cluster: ownership move already decided")

// ownerAdoptReq carries a file's committed contents to its new home.
type ownerAdoptReq struct {
	Path string
	Data []byte
	// Refs is the source's open reference count: live opens survive the
	// move (the new home inherits them; closes re-route there).
	Refs int
	// MoveID names the move in the catalog, together with the sending site.
	MoveID uint64
}

func (r ownerAdoptReq) WireSize() int { return 64 + len(r.Data) }

// moveKey names one ownership move: its source site and the MoveID the
// source drew from moveSeq, which no crash resets.
type moveKey struct {
	from simnet.SiteID
	id   uint64
}

// move is one ownership move as the catalog holds it, from the source's
// proposal to its settle.
type move struct {
	src       *incarnation // the source's kernel: its crash aborts the move
	path      string
	to        simnet.SiteID
	committed bool
}

// pending reports whether the move is still undecided.  Called under c.mu.
func (mv *move) pending() bool {
	return mv != nil && !mv.committed && !mv.src.dead.Load()
}

// proposeMove registers src's move of path to target as pending, before
// the source ships the image.
func (c *Cluster) proposeMove(src *incarnation, id uint64, path string, to simnet.SiteID) moveKey {
	key := moveKey{src.id, id}
	c.mu.Lock()
	c.moves[key] = &move{src: src, path: path, to: to}
	c.mu.Unlock()
	return key
}

// movePending reports whether an adoption for the move may install.
func (c *Cluster) movePending(key moveKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.moves[key].pending()
}

// commitMove is the commit point of a move and the only flip of a moved
// file's home: if the move is still pending the catalog names its target
// from now on (a file back at its volume's mount site drops its override -
// the mount is canonical again).  It reports whether the move is
// committed; false means the source, or its crash, aborted it first.
// Crash marks the source dead before its restart reads the catalog, so a
// restarted source never serves a copy the catalog moved away.
func (c *Cluster) commitMove(key moveKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	mv := c.moves[key]
	if mv.pending() {
		mv.committed = true
		if vol, _, _ := splitPath(mv.path); c.mounts[vol] == mv.to {
			delete(c.fileHomes, mv.path)
		} else {
			c.fileHomes[mv.path] = mv.to
		}
	}
	return mv != nil && mv.committed
}

// settleMove retires the move once the source's call has returned, error
// or not: a move still pending is aborted here.  It reports whether the
// target committed it.
func (c *Cluster) settleMove(key moveKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	mv := c.moves[key]
	delete(c.moves, key)
	return mv != nil && mv.committed
}

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

// PlacementInFlight reports how many placement operations (moves and
// adoptions) this site is currently running.  The chaos harness drains it
// to zero before auditing the single-primary invariant, which otherwise
// races the tail of an in-flight move.
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
	tok := k.moveSeq.Add(1) // names this attempt in the catalog (ownerAdoptReq.MoveID)
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
	key := k.cl.proposeMove(k, tok, path, target)
	_, err = k.ep.Call(target, "owneradopt", ownerAdoptReq{Path: path, Data: data, Refs: refs, MoveID: tok})
	// Error or not, the catalog has the verdict.  A lost reply does not
	// mean a lost move: the target may have committed it before answering.
	if !k.cl.settleMove(key) {
		return err
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
// The adoption decides the move's commit (package comment): it installs
// only a move the catalog still holds pending - a duplicate of an
// adoption that committed, or one whose source gave up or crashed, finds
// nothing to do - and the per-path fence keeps every other operation on
// the file out until the verdict.  An open-file handle already here is
// written through rather than shadowed: two live shadow.File handles on
// one inode each cache a committed inode, and a commit through the stale
// one frees pages the durable state still references (the cross-file
// corruption the chaos audit catches as torn gob and double-referenced
// pages).  A crash mid-adoption fails the remainder instead of letting
// old-generation inode numbers loose on the reloaded allocator: every
// durable step runs on this incarnation's volume handle, which Crash
// fences.
func (k *incarnation) handleOwnerAdopt(from simnet.SiteID, req ownerAdoptReq) (none, error) {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return none{}, err
	}
	if !k.beginMove(req.Path) {
		return none{}, fmt.Errorf("%w: %s", errMoved, req.Path)
	}
	defer k.endMove(req.Path)
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)
	key := moveKey{from, req.MoveID}
	if !k.cl.movePending(key) {
		return none{}, fmt.Errorf("%w: %s", errMoveDecided, req.Path)
	}
	vs, err := k.hostedVol(volName)
	if err != nil {
		return none{}, err
	}
	k.mu.Lock()
	of := k.open[req.Path]
	k.mu.Unlock()
	var f *shadow.File
	if of != nil {
		f = of.file
	} else if f, err = vs.openOrCreate(name); err != nil {
		return none{}, err
	}
	err = installImage(f, req.Data)

	// Commit the move under k.mu, where Crash marks this incarnation dead:
	// the catalog names this site only for a copy a live kernel finished
	// installing, which its restart purge will keep.  Then, still behind
	// the fence, inherit the live opens (closes re-resolve the storage
	// site and arrive here expecting an open-file entry).
	k.mu.Lock()
	if err == nil && (k.dead.Load() || !k.cl.commitMove(key)) {
		err = fmt.Errorf("%w: %s", errMoveDecided, req.Path)
	}
	cur, dup := k.open[req.Path]
	switch {
	case err != nil:
		delete(k.open, req.Path)
		k.locks.Drop(req.Path)
	case dup:
		cur.refs = max(cur.refs, req.Refs)
	case req.Refs > 0:
		nf := &openFile{id: req.Path, vs: vs, file: f, refs: req.Refs}
		nf.locks = k.locks.File(req.Path, func() int64 { return nf.file.Size() })
		k.open[req.Path] = nf
	}
	k.mu.Unlock()
	if err != nil {
		// Refused (or never installed): the copy is this site's to reclaim.
		k.tr.Record(trace.OwnerPurge, "refused", req.Path, int64(req.MoveID))
		vs.reclaimFile(name) //nolint:errcheck // a crash leaves it to the restart purge
		return none{}, err
	}
	k.st.Inc(stats.OwnerAdopts)
	k.tr.Record(trace.OwnerAdopt, "install", req.Path, int64(req.MoveID))
	return none{}, nil
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
// another site is a leftover of an ownership move this site's crash
// interrupted (either a source copy whose removal was cut short after the
// target committed, or an adopted copy the crash kept from committing)
// and is reclaimed here, restoring the exactly-one-primary invariant.  Prepared transactions
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

// movedRetries bounds how often a storage call that failed with errMoved
// is retried (callStorage): the requester waits out the in-flight move,
// then re-resolves the storage site.  Bounded so a wedged move cannot hang
// a caller forever.
const movedRetries = 16

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
	if errors.As(err, new(*simnet.RemoteError)) {
		// The coordinator ran and refused (prepare failure => it already
		// aborted everywhere, per the protocol).
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
