package cluster

// The copy catalog, its one copy primitive, and locality-adaptive placement
// (DESIGN.md sections 5.2 and 14).
//
// The catalog (Cluster) records every copy of a file: its home - the
// volume's mount site, or where adaptive placement moved its primary - and
// the committed version each replica site's copy holds (replica.go).  A
// copy is made one way: the primary's holder ships the committed image
// (ship) and the target lands it on its one volume of that name, created
// by its first install (handleInstall), where prepare records, recovery,
// lock lists and replica reads work unchanged.  A move and a replica sync
// differ only in the verdict: a move flips the home, a sync records the
// version its target holds.
//
// The catalog decides each install once.  The source registers it pending
// (propose) before the call; the target commits it (verdict) under its
// k.mu while alive, before it replies; the source's settle after the call,
// reply or not, aborts it if still pending, as does the source's crash.  A
// source whose reply was lost still learns "moved" and reclaims its copy.
// One rule says which copies stand - a site keeps a copy iff the catalog
// records one there (holdsCopy) - applied by a refused install before it
// answers and by every boot to the whole disk (reclaimUnrecorded).
//
// A move runs inline from finishTxn at the storage site, after the
// triggering transaction's locks released, so a fixed-seed run makes the
// same moves at the same points.  The source's copy is reclaimed in
// handleRemove's order (directory entry first - the commit point - then
// pages and inode), which fs.Load's allocator rebuild makes crash-safe.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/lockmgr"
	"repro/internal/proc"
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

// errInstallDecided refuses an install the catalog no longer holds
// pending.
var errInstallDecided = errors.New("cluster: install already decided")

// installReq carries a file's committed image to the site that is to hold
// a copy of it.  Refs is the source's open count when the copy becomes
// the primary: live opens survive a move (closes re-route to the new
// home).  ID names the install in the catalog, with the sending site.
type installReq struct {
	Path string
	Data []byte
	Refs int
	ID   uint64
}

func (r installReq) WireSize() int { return 64 + len(r.Data) }

// installKey names one install: its source and the ID the source drew
// from installSeq, which no crash resets.
type installKey struct {
	from simnet.SiteID
	id   uint64
}

// install is one shipped copy as the catalog holds it from proposal to
// settle: a move, or a replica sync of version.
type install struct {
	src       *incarnation // the source's kernel: its crash aborts the install
	path      string
	to        simnet.SiteID
	move      bool
	version   uint64
	committed bool
}

// fileCopies is the catalog's record of a file of a replicated volume: its
// version, which every open for update advances, and the version each
// replica site's copy holds.
type fileCopies struct {
	version uint64
	held    map[simnet.SiteID]uint64
}

// propose registers in, drawn as id, pending before its source ships it.
func (c *Cluster) propose(in *install, id uint64) installKey {
	key := installKey{in.src.id, id}
	c.mu.Lock()
	c.installs[key] = in
	c.mu.Unlock()
	return key
}

// verdict returns the install if it may still commit - undecided, source
// alive, and a sync to a site that is not the home and holds no newer copy
// of a file not removed since - and with commit set commits it: a move
// makes its target the home (back at its mount: no override) and no
// replica, a sync records its version.  Crash marks the source dead before
// its restart reads the catalog, so it never serves a copy moved away.
func (c *Cluster) verdict(key installKey, commit bool) *install {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.installs[key]
	if in == nil || in.committed || in.src.dead.Load() {
		return nil
	}
	vol, _, _ := splitPath(in.path)
	fc := c.copies[in.path]
	if !in.move {
		if home, _ := c.homeLocked(in.path, vol); home == in.to || fc == nil {
			return nil
		}
		if v, ok := fc.held[in.to]; ok && v >= in.version {
			return nil
		}
	}
	switch {
	case !commit:
		return in
	case !in.move:
		fc.held[in.to] = in.version
	case c.mounts[vol] == in.to:
		delete(c.fileHomes, in.path)
	default:
		c.fileHomes[in.path] = in.to
	}
	if in.move && fc != nil {
		delete(fc.held, in.to)
	}
	in.committed = true
	return in
}

// settle retires the install once its source's call has returned, aborting
// it if still pending, and reports whether the target committed it.
func (c *Cluster) settle(key installKey) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	in := c.installs[key]
	delete(c.installs, key)
	return in != nil && in.committed
}

// holdsCopy is the copy rule: site keeps a copy of path iff the catalog
// records one there, its home or a replica's.
func (c *Cluster) holdsCopy(path string, site simnet.SiteID) bool {
	home, err := c.StorageSite(path)
	recorded, _ := c.ReplicaCopy(path, site)
	return err == nil && home == site || recorded
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
// placement is off: nothing moves, and only a file's home serves it.
func (k *incarnation) movingGuard(path string) error {
	if k.heat == nil {
		return nil
	}
	k.fenceMu.Lock()
	defer k.fenceMu.Unlock()
	if _, ok := k.fenced[path]; ok {
		return fmt.Errorf("%w: %s", errMoved, path)
	}
	return nil
}

// fence claims the install fence for path; false if already claimed.  It
// is kernel memory, forfeit in a crash: an install blocked in a network
// call across the crash neither leaves its file fenced nor, unwinding,
// releases anyone else's claim.
func (k *incarnation) fence(path string) bool {
	k.fenceMu.Lock()
	defer k.fenceMu.Unlock()
	if _, ok := k.fenced[path]; ok {
		return false
	}
	k.fenced[path] = struct{}{}
	return true
}

func (k *incarnation) unfence(path string) {
	k.fenceMu.Lock()
	delete(k.fenced, path)
	k.fenceMu.Unlock()
}

// PlacementInFlight reports how many copy operations (moves, and installs
// shipped or landing) this site is running.  The harness drains it to
// zero before auditing the single-primary invariant.
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

// ship installs path's committed image at in.to - as its primary or as a
// replica copy at in.version - and returns the catalog's verdict, which a
// lost reply does not change: committed image, propose, call, settle.
func (k *incarnation) ship(in install, refs int) (bool, error) {
	_, _, data, err := k.committedImage(in.path)
	if err != nil {
		return false, err
	}
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)
	in.src = k
	id := k.installSeq.Add(1)
	key := k.cl.propose(&in, id)
	_, err = k.ep.Call(in.to, "install", installReq{Path: in.path, Data: data, Refs: refs, ID: id})
	return k.cl.settle(key), err
}

// moveFile migrates path's primary copy to target.  The caller has
// established that this site is path's home and target its dominant
// accessor.
func (k *incarnation) moveFile(path string, target simnet.SiteID) error {
	if !k.fence(path) {
		return nil // concurrent move already running
	}
	defer k.unfence(path)
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

	if moved, err := k.ship(install{path: path, to: target, move: true}, refs); !moved {
		return err
	}
	k.st.Inc(stats.OwnerMoves)
	k.tr.Record(trace.OwnerMove, "", path, int64(target))
	k.heat.NoteMove(path)
	k.heat.Forget(path)

	// Reclaim the source copy; a crash that interrupts it leaves the rest
	// to the boot rule (the catalog already records no copy here).
	vs, err := k.volFor(path)
	if err != nil {
		return err
	}
	_, name, _ := splitPath(path)
	k.mu.Lock()
	if cur, ok := k.open[path]; ok && cur == of {
		delete(k.open, path)
		k.locks.Drop(path)
	}
	delete(vs.files, name)
	k.mu.Unlock()
	k.leaseCacheDrop(path)
	return vs.reclaimFile(name)
}

// handleInstall lands a shipped image as this site's copy of the file,
// behind the per-path fence, while the catalog holds the install pending.
// It writes through the one handle this site has on the file (an open
// entry's, else volState.files'): two live handles on one inode each cache
// a committed inode, and a commit through the stale one frees pages the
// durable state still references.  Crash fences the volume handle every
// durable step runs on, so a crash fails the remainder.
func (k *incarnation) handleInstall(from simnet.SiteID, req installReq) (none, error) {
	volName, name, err := splitPath(req.Path)
	if err != nil {
		return none{}, err
	}
	if !k.fence(req.Path) {
		return none{}, fmt.Errorf("%w: %s", errMoved, req.Path)
	}
	defer k.unfence(req.Path)
	k.placeOps.Add(1)
	defer k.placeOps.Add(-1)
	key := installKey{from, req.ID}
	in := k.cl.verdict(key, false)
	if in == nil {
		return none{}, fmt.Errorf("%w: %s", errInstallDecided, req.Path)
	}
	vs, err := k.volByName(volName)
	if err != nil { // the first install here: a volume of the name, not mounted
		vs, err = k.addVolume(&disk{vol: volName})
	}
	if err != nil {
		return none{}, err
	}
	k.mu.Lock()
	f := vs.files[name]
	if of := k.open[req.Path]; of != nil {
		f = of.file
	}
	k.mu.Unlock()
	if f == nil {
		f, err = vs.openOrCreate(name)
	}
	if err == nil {
		err = installImage(f, req.Data)
	}

	// The verdict commits under k.mu, where Crash marks this incarnation
	// dead: the catalog records a copy only a live kernel wrote.  A new
	// home inherits the live opens (closes re-route here); a refused
	// install reclaims its copy unless the catalog records one here.
	keep := true
	k.mu.Lock()
	if err == nil && (k.dead.Load() || k.cl.verdict(key, true) == nil) {
		err = fmt.Errorf("%w: %s", errInstallDecided, req.Path)
	}
	switch cur, dup := k.open[req.Path]; {
	case err != nil:
		if keep = k.cl.holdsCopy(req.Path, k.id); !keep {
			delete(k.open, req.Path)
			k.locks.Drop(req.Path)
			delete(vs.files, name)
		}
	case dup:
		cur.refs = max(cur.refs, req.Refs)
	case req.Refs > 0:
		nf := &openFile{id: req.Path, vs: vs, file: f, refs: req.Refs}
		nf.locks = k.locks.File(req.Path, func() int64 { return nf.file.Size() })
		k.open[req.Path] = nf
	}
	if err == nil {
		vs.files[name] = f
	}
	k.mu.Unlock()
	switch {
	case in.move && err != nil:
		k.tr.Record(trace.OwnerPurge, "refused", req.Path, int64(req.ID))
	case in.move:
		k.st.Inc(stats.OwnerAdopts)
		k.tr.Record(trace.OwnerAdopt, "install", req.Path, int64(req.ID))
	}
	if !keep {
		vs.reclaimFile(name) //nolint:errcheck // a crash leaves it to the boot rule
	}
	return none{}, err
}

// reclaimUnrecorded is the copy rule at boot (newIncarnation): it reclaims
// every local copy the catalog records none of here - a moved file's
// source copy or an install a crash cut short, a replica copy of a file
// removed meanwhile.
func (k *incarnation) reclaimUnrecorded() {
	for _, vs := range k.volStates() {
		for _, name := range vs.dirList() {
			if !k.cl.holdsCopy(vs.name+"/"+name, k.id) {
				vs.reclaimFile(name) //nolint:errcheck // load rebuilt the allocator; a re-crash just reclaims again
			}
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
