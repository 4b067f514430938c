package cluster

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/lockmgr"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/telemetry"
	"repro/internal/tpc"
	"repro/internal/trace"
)

// Transaction protocol payloads.

type prepareReq struct {
	Txid    string
	FileIDs []string
	Coord   simnet.SiteID
}

func (r prepareReq) WireSize() int {
	n := 64
	for _, f := range r.FileIDs {
		n += len(f) + 8
	}
	return n
}

// prepareResp carries the participant's vote on the prepare exchanges
// ("prepare", "prepareCommit").
type prepareResp struct{ Vote tpc.Vote }

func (prepareResp) WireSize() int { return 16 }

// txnReq names a transaction: commit2, abortTxn and status.
type txnReq struct {
	simnet.Small
	Txid string
}

type statusResp struct {
	simnet.Small
	Status tpc.Status
}

// siteTransport adapts the site's endpoint to tpc.Transport.  Prepare is
// a single exchange: a lost prepare is treated as a refusal and aborts
// the transaction (section 4.3).  Commit and abort messages are
// idempotent (temporally-unique txids, section 4.4), so they ride
// ExchangeRetry's backoff to shrug off transient loss without waiting for
// the coordinating site's recovery loop, which a delivery that still
// failed kicks.
type siteTransport struct{ *incarnation }

func (t *siteTransport) SendPrepare(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (tpc.Vote, error) {
	return t.vote("prepare", site, prepareReq{Txid: txid, FileIDs: fileIDs, Coord: coord})
}

func (t *siteTransport) SendPrepareCommit(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (tpc.Vote, error) {
	return t.vote("prepareCommit", site, prepareReq{Txid: txid, FileIDs: fileIDs, Coord: coord})
}

// vote sends a first-phase op and returns the participant's vote.
func (t *siteTransport) vote(op string, site simnet.SiteID, req prepareReq) (tpc.Vote, error) {
	resp, err := simnet.Exchange[prepareResp](t.ep, site, op, req)
	if err != nil {
		return tpc.VoteCommit, err
	}
	return resp.Vote, nil
}

func (t *siteTransport) SendCommit(site simnet.SiteID, txid string) error {
	_, err := simnet.ExchangeRetry[none](t.ep, site, "commit2", txnReq{Txid: txid})
	if err != nil {
		t.kickRecovery()
	}
	return err
}

func (t *siteTransport) SendAbort(site simnet.SiteID, txid string) error {
	_, err := simnet.ExchangeRetry[none](t.ep, site, "abortTxn", txnReq{Txid: txid})
	return err
}

// prof returns the cluster's critical-path profiler; nil (profiling
// off) makes every charge a cheap no-op.
func (m *machine) prof() *telemetry.Profiler {
	return m.st.Registry().Profiler()
}

// volPrep is one volume's share of a transaction's prepare payload.
// Under FastPaths pages holds the files' shadow pages that are not yet
// durable, for the force of the commit point to carry.
type volPrep struct {
	vs    *volState
	files []tpc.PreparedFile
	locks []tpc.LockInfo
	pages []int
}

// prepScratch is one prepare call's payload, kept with every array in it
// (the intentions lists' too) for the next call it serves: gatherPrepare
// takes one from prepScratches, and the caller puts it back once the
// records are written - tpc encodes a record into its own buffer, which
// the log copies.  It belongs to the call, not the site: two prepares at
// one site interleave at their forced writes.
type prepScratch struct {
	preps []volPrep // in volume-name order
	held  []lockmgr.EntryInfo
}

var prepScratches = sync.Pool{New: func() any { return new(prepScratch) }}

// gatherPrepare flushes the transaction's modified records and collects
// per-volume prepare payloads (intentions lists and lock lists, section
// 4.2 step 2) into a scratch (on an error the scratch is simply dropped).
// Under FastPaths it flushes nothing: it collects the pages instead, and
// they ride in the force of the commit point, the prepare record or the
// file's inode (the one-force rule, DESIGN.md section 10).
// hasMods reports whether any gathered file carries uncommitted
// modifications - the write half of the read-only test.
func (k *incarnation) gatherPrepare(req prepareReq) (_ *prepScratch, hasMods bool, err error) {
	name := k.txnName(req.Txid)
	owner := shadow.Owner(name)
	sc := prepScratches.Get().(*prepScratch)
	sc.preps = sc.preps[:0]
	for _, fileID := range req.FileIDs {
		vs, err := k.volFor(fileID)
		if err != nil {
			return nil, false, err
		}
		i := slices.IndexFunc(sc.preps, func(vp volPrep) bool { return vp.vs == vs })
		if i < 0 {
			i = len(sc.preps)
			sc.preps = slices.Grow(sc.preps, 1)[:i+1] // a reused slot keeps its arrays
			vp := &sc.preps[i]
			vp.vs, vp.files, vp.locks, vp.pages = vs, vp.files[:0], vp.locks[:0], vp.pages[:0]
		}
		vp := &sc.preps[i]
		of, err := k.lookupOpen(fileID)
		if err != nil {
			return nil, false, err
		}
		if k.cl.cfg.FastPaths {
			vp.pages = of.file.Load().AppendUnflushed(vp.pages, owner)
		} else if err := of.file.Load().Flush(owner); err != nil {
			return nil, false, err
		}
		hasMods = hasMods || of.file.Load().HasMods(owner)
		vp.files = slices.Grow(vp.files, 1)[:len(vp.files)+1]
		pf := &vp.files[len(vp.files)-1]
		pf.FileID = fileID
		of.file.Load().IntentionsFor(owner, &pf.Intentions)
		sc.held = of.locks.GroupEntries(sc.held[:0], name)
		for _, e := range sc.held {
			vp.locks = append(vp.locks, tpc.LockInfo{
				FileID: fileID, Mode: e.Mode, Off: e.Off, Len: e.Len,
			})
		}
	}
	k.mu.Lock()
	_, known := k.txns[req.Txid]
	k.mu.Unlock()
	if !known {
		// Every file a prepare names was locked, read or written here by the
		// transaction, and each grant left its mark (joinTxn).  No mark means
		// this site crashed and restarted since, and the locks and
		// modifications went with it: vote no.  Holding nothing is not the
		// test - an access under the process's own pre-transaction lock, or
		// under a NonTxn lock released early (section 3.4), joins the file to
		// the transaction and leaves neither lock nor record in its name.
		// (A crash after this request arrived is not this test's business:
		// the force then fails on the handle Crash fenced.)
		return nil, false, fmt.Errorf("cluster: txn %s is unknown at %v (state lost in a crash)", req.Txid, k.id)
	}
	slices.SortFunc(sc.preps, func(a, b volPrep) int { return strings.Compare(a.vs.name, b.vs.name) })
	return sc, hasMods, nil
}

// writePrepareRecords forces the prepare log: one record per volume, or
// per file on a volume with the footnote-10 option.  A volume's gathered
// pages ride in the force of its first record, ahead of it.
// onePhaseTotal is zero for ordinary two-phase prepares; for a one-phase
// commit it is the total record count, stamped into every record so
// recovery can tell a complete (committed) set from a torn (aborted) one.
// The time the force takes is the transaction's prepare-force charge.
func (k *incarnation) writePrepareRecords(req prepareReq, preps []volPrep, onePhaseTotal int) error {
	clk := k.cl.cfg.Clock
	t0 := clk.Now()
	defer func() { k.prof().Charge(req.Txid, telemetry.ResPrepareForce, clk.Now().Sub(t0)) }()
	for _, vp := range preps {
		rec := tpc.PrepareRecord{
			Txid: req.Txid, CoordSite: req.Coord, OnePhaseTotal: onePhaseTotal,
			Files: vp.files, Locks: vp.locks,
		}
		if !vp.vs.vol.PerFilePrepareLogs {
			if err := tpc.WritePrepareRecord(vp.vs.vol, rec, "", vp.pages...); err != nil {
				return err
			}
			continue
		}
		// Footnote 10: one prepare record per file per transaction.
		flush := vp.pages
		for i, pf := range vp.files {
			rec.Files = vp.files[i : i+1]
			if err := tpc.WritePrepareRecord(vp.vs.vol, rec, pf.FileID, flush...); err != nil {
				return err
			}
			flush = nil
		}
	}
	return nil
}

// prepareRecordCount is the number of log records writePrepareRecords
// will force for this payload.
func (k *incarnation) prepareRecordCount(preps []volPrep) int {
	n := 0
	for _, vp := range preps {
		if vp.vs.vol.PerFilePrepareLogs {
			n += len(vp.files)
		} else {
			n++
		}
	}
	return n
}

// setPrepared installs (or, with nil, forgets) the site's memory of a
// prepared transaction.
func (k *incarnation) setPrepared(txid string, pt *preparedTxn) {
	k.mu.Lock()
	if pt == nil {
		delete(k.prepared, txid)
	} else {
		k.prepared[txid] = pt
	}
	k.mu.Unlock()
}

// beginPrepare opens the participant's first phase (section 4.2), whichever
// op asked for it: flush the transaction's modified records and gather the
// prepare payload (intentions lists and lock lists).
//
// With FastPaths (DESIGN.md section 10) a participant at which the
// transaction was read-only answers VoteReadOnly instead of forcing a
// record: its locks release at once - phase two has nothing to deliver
// here - and the coordinator drops the site from the outcome distribution.
// Read-only means nothing here for phase two to make durable: no
// uncommitted modification in any gathered file, and no lock stronger than
// ModeShared (an exclusive range could have been the basis of a read
// another site's write depends on, so only pure readers take the exit).
// A VoteReadOnly return means the exit was taken and the site is done.
func (k *incarnation) beginPrepare(req prepareReq) (*prepScratch, tpc.Vote, error) {
	clk := k.cl.cfg.Clock
	t0 := clk.Now()
	sc, hasMods, err := k.gatherPrepare(req)
	k.prof().Charge(req.Txid, telemetry.ResDataFlush, clk.Now().Sub(t0))
	if err != nil {
		return nil, tpc.VoteCommit, err
	}
	if k.cl.cfg.FastPaths && !hasMods && k.locks.GroupSummary(k.txnName(req.Txid)).MaxMode <= lockmgr.ModeShared {
		// No prepare record exists, so finishTxn costs no log I/O: it
		// releases the read locks and retires idle opens.
		prepScratches.Put(sc)
		return nil, tpc.VoteReadOnly, k.finishTxn(req.Txid, req.FileIDs)
	}
	return sc, tpc.VoteCommit, nil
}

// prepare is the two-phase first phase, behind the "prepare" op: write
// the prepare log (one record per volume - or per file under footnote
// 10), then remember the prepared state.
func (k *incarnation) prepare(req prepareReq) (prepareResp, error) {
	sc, vote, err := k.beginPrepare(req)
	if err != nil || vote == tpc.VoteReadOnly {
		return prepareResp{Vote: vote}, err
	}
	err = k.writePrepareRecords(req, sc.preps, 0)
	prepScratches.Put(sc)
	if err != nil {
		return prepareResp{}, err
	}
	pt := &preparedTxn{coord: req.Coord}
	pt.fileIDs = append(pt.fileBuf[:0], req.FileIDs...)
	k.setPrepared(req.Txid, pt)
	return prepareResp{Vote: tpc.VoteCommit}, nil
}

// handlePrepareCommit executes a one-phase commit (DESIGN.md section
// 10): prepare and phase two collapse into one message.  The coordinator
// delegated the commit point to this - the only - participant.
//
// When exactly one gathered file carries modifications, that file's own
// single-file commit (shadow.File.CommitWith, sections 4-5) is the commit
// point: its pages ride in the force of its inode write, which decides
// the outcome, so no prepare record is written.  A crash before that
// write leaves nothing logged - presumed abort, and the load scan frees
// the shadow pages - and one after it leaves the file committed.
// The other files were only read or locked, and release in finishTxn.
//
// Otherwise the force of the last prepare record is the commit point,
// and every record carries the set's total so recovery commits iff the
// complete set survived.
//
// After the commit point the outcome is applied and cleaned up exactly as
// a phase-two commit would be; a failure there leaves the entry (no
// longer applying) so recovery or a later resolution pass re-drives the
// commit - the outcome can no longer be abort.
//
// It is kept apart from prepare because the two differ in when the entry
// is registered and in who cleans up a failed force, and both orders are
// safety properties.
func (k *incarnation) handlePrepareCommit(req prepareReq) (prepareResp, error) {
	sc, vote, err := k.beginPrepare(req)
	if err != nil || vote == tpc.VoteReadOnly {
		return prepareResp{Vote: vote}, err
	}
	// Register the prepared entry (applying: an outcome delivery is
	// already in progress - a racing abort must be refused, not
	// interleaved) before the write that is the commit point.
	pt := &preparedTxn{coord: req.Coord, onePhase: true, applying: true}
	pt.fileIDs = append(pt.fileBuf[:0], req.FileIDs...)
	k.setPrepared(req.Txid, pt)
	oneFile := modifiedFiles(sc.preps) == 1
	if !oneFile {
		err = k.writePrepareRecords(req, sc.preps, k.prepareRecordCount(sc.preps))
	}
	if err != nil {
		// Before the commit point: scrub any partial record set (best
		// effort - a torn set self-resolves to abort by count) and
		// refuse, which the coordinator turns into an abort.
		for _, vp := range sc.preps {
			tpc.DeletePrepareRecords(vp.vs.vol, req.Txid) //nolint:errcheck // incomplete set aborts by count
		}
		k.setPrepared(req.Txid, nil)
	}
	prepScratches.Put(sc)
	if err != nil {
		return prepareResp{}, err
	}
	clk := k.cl.cfg.Clock
	t0 := clk.Now()
	if err := k.apply(req.Txid, pt, true); err != nil {
		if oneFile && !errors.Is(err, shadow.ErrPastCommitPoint) {
			// The inode write did not land (with no record, finishTxn
			// writes nothing): roll back under the claimed entry, then
			// drop it, so none is left that resolve would read as
			// committed.  The refusal becomes the coordinator's abort.
			k.apply(req.Txid, pt, false) //nolint:errcheck // the coordinator's abort retries the rollback
			k.setPrepared(req.Txid, nil)
		}
		return prepareResp{}, err
	}
	k.prof().Charge(req.Txid, telemetry.ResOnePhaseApply, clk.Now().Sub(t0))
	return prepareResp{Vote: tpc.VoteCommit}, nil
}

// modifiedFiles counts the gathered files that carry intentions.
func modifiedFiles(preps []volPrep) int {
	n := 0
	for _, vp := range preps {
		for _, pf := range vp.files {
			if len(pf.Intentions.Entries) > 0 {
				n++
			}
		}
	}
	return n
}

// handleCommit2 is the participant's second phase: deliver the commit.
func (k *incarnation) handleCommit2(req txnReq) error {
	clk := k.cl.cfg.Clock
	t0 := clk.Now()
	err := k.deliver(req.Txid, true)
	// Participant phase-two work; the coordinator's attribution only
	// counts it toward latency when phase two ran synchronously.
	k.prof().Charge(req.Txid, telemetry.ResPhase2Apply, clk.Now().Sub(t0))
	return err
}

// handleAbortTxn rolls back everything the transaction touched at this
// site.  It is idempotent, as required for duplicate abort messages.
func (k *incarnation) handleAbortTxn(req txnReq) error {
	return k.deliver(req.Txid, false)
}

// deliver brings a transaction's outcome to this site - the phase-two
// commit, an abort, or what the recovery loop concluded.  It claims the
// prepared entry and applies the outcome to it.  Duplicates are harmless
// (section 4.4): a commit for an unknown transaction acknowledges
// silently, its work already done, and an abort rolls back whatever the
// transaction still has here - in-memory modifications and locks, whether
// or not it ever prepared.
func (k *incarnation) deliver(txid string, commit bool) error {
	k.mu.Lock()
	pt := k.prepared[txid]
	if pt != nil {
		if pt.applying {
			k.mu.Unlock()
			// A duplicate racing the first delivery: make the sender retry
			// rather than ack an outcome that may yet fail.
			return fmt.Errorf("cluster: txn %s outcome already in progress", txid)
		}
		if !commit && pt.onePhase && k.resolve(txid, pt) == tpc.StatusCommitted {
			// The one-phase commit point was reached; a late abort (e.g.
			// the coordinator lost the ack) must not tear it down.
			k.mu.Unlock()
			return fmt.Errorf("cluster: txn %s already past its one-phase commit point", txid)
		}
		pt.applying = true
	}
	k.mu.Unlock()
	if pt == nil {
		if commit {
			return nil // duplicate or already-finished: idempotent ack
		}
		pt = &preparedTxn{} // never prepared here: nothing logged, no entry to forget
	}
	return k.apply(txid, pt, commit)
}

// apply carries out the outcome on a claimed (applying) prepared entry:
// commit or roll back every file, from the working state or - when the
// entry was recovered from the log, its in-memory working state having
// died with the crash - from the logged intentions; then finish and
// forget.  The entry stays in the table until the outcome has fully
// applied, the prepare-record deletion of finishTxn included: a failure
// releases the claim and leaves the entry for the coordinator's retry
// (already-committed files are skipped by the HasMods check, so the retry
// is idempotent), and only after the finish is durable is the ack (nil
// return) sent.
func (k *incarnation) apply(txid string, pt *preparedTxn, commit bool) error {
	err := k.applyFiles(txid, pt, commit)
	if err == nil {
		err = k.finishTxn(txid, pt.fileIDs)
	}
	k.mu.Lock()
	if err != nil {
		pt.applying = false
	} else {
		delete(k.prepared, txid)
	}
	k.mu.Unlock()
	if err == nil && commit {
		k.tr.Record(trace.CommitApplied, txid, "", int64(len(pt.fileIDs)))
	}
	return err
}

// applyFiles is the per-file step of apply.
func (k *incarnation) applyFiles(txid string, pt *preparedTxn, commit bool) error {
	if pt.recovered {
		for _, rec := range pt.records {
			for _, pf := range rec.Files {
				vs, err := k.volFor(pf.FileID)
				if err != nil {
					return err
				}
				if commit {
					err = shadow.ApplyIntentions(vs.vol, pf.Intentions)
				} else {
					err = shadow.DiscardIntentions(vs.vol, pf.Intentions)
				}
				if err != nil {
					return fmt.Errorf("cluster: resolving logged intentions for %s: %w", pf.FileID, err)
				}
				k.dropOpen(pf.FileID)
			}
		}
		return nil
	}
	name := k.txnName(txid)
	ids := pt.fileIDs
	if !commit {
		// A transaction's records lie under locks it still holds (a write
		// needs one; handleUnlock retains any it wrote under), so roll back
		// the files its group is indexed on, plus the prepared list.
		ids = append(k.locks.GroupFileIDs(name), ids...)
	}
	owner := shadow.Owner(name)
	for _, id := range ids {
		of, err := k.lookupOpen(id)
		if err != nil {
			if commit {
				return err
			}
			continue // nothing of the transaction's is open under that name
		}
		if !of.file.Load().HasMods(owner) {
			continue
		}
		if commit {
			err = of.file.Load().CommitWith(owner, k.cl.cfg.FastPaths)
		} else {
			err = of.file.Load().Abort(owner)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// finishTxn durably clears the transaction's prepare records at this
// site, then releases its locks.  That order is load-bearing: the moment
// the retained locks release, other transactions may commit over the
// ranges, and a stale prepare record surviving a later crash would let
// recovery replay this transaction's old intentions on top of their
// newer committed data.  A deletion failure is returned - not swallowed -
// so the participant's phase-two ack can only be sent once nothing is
// left on disk for recovery to re-resolve.
func (k *incarnation) finishTxn(txid string, fileIDs []string) error {
	for _, vs := range k.volStates() {
		if err := tpc.DeletePrepareRecords(vs.vol, txid); err != nil {
			return fmt.Errorf("cluster: clearing prepare records for %s on %s: %w", txid, vs.name, err)
		}
	}
	released := k.locks.ReleaseGroup(k.txnName(txid))
	k.dropLockCache(groupKey(0, txid))
	k.mu.Lock()
	k.txnMu.Lock()
	delete(k.txns, txid)
	k.txnMu.Unlock()
	k.mu.Unlock()
	// Propagate committed contents to replicas of the transaction's files
	// that quiesced, and retire the idle opens it was keeping alive: the
	// files it named, plus any it held locks on without naming (an aborted
	// or recovered transaction has no file list; NonTxn-mode locks never
	// join one).
	for _, id := range fileIDs {
		k.settle(id)
	}
	for _, fl := range released {
		if !slices.Contains(fileIDs, fl.ID()) {
			k.settle(fl.ID())
		}
	}
	// Adaptive placement: with the transaction's locks gone, any of its
	// files now dominated by a remote accessor migrates there (no-op
	// unless Config.AdaptivePlacement).
	k.maybeMovePlacement(fileIDs)
	return nil
}

// settle runs the end-of-use duties for one file some holder just let go
// of: push the committed contents to the replicas if it quiesced, and
// retire the open-file entry once nothing references it.
func (k *incarnation) settle(fileID string) {
	k.mu.Lock()
	of := k.open[fileID]
	k.mu.Unlock()
	if of == nil {
		return
	}
	k.maybeSyncReplicas(of)
	k.mu.Lock()
	if k.open[fileID] == of && of.refs <= 0 && !of.file.Load().Modified() && !of.locks.Held(true) {
		delete(k.open, fileID)
		k.locks.Drop(fileID)
	}
	k.mu.Unlock()
}

// handleStatus answers an in-doubt participant's query against this
// site's coordinator state (section 4.4).
func (k *incarnation) handleStatus(req txnReq) (statusResp, error) {
	coord, err := k.Coordinator()
	if err != nil {
		return statusResp{}, err
	}
	return statusResp{Status: coord.StatusOf(req.Txid)}, nil
}

// QueryStatus asks a remote coordinator for a transaction's outcome.
func (m *machine) QueryStatus(coordSite simnet.SiteID, txid string) (tpc.Status, error) {
	resp, err := simnet.Exchange[statusResp](m.ep, coordSite, "status", txnReq{Txid: txid})
	if err != nil {
		return tpc.StatusUnknown, err
	}
	return resp.Status, nil
}

// WaitEdges collects wait-for edges from every reachable site - the data
// source for the user-level deadlock detector (section 3.1).
func (c *Cluster) WaitEdges() []lockmgr.WaitEdge {
	var out []lockmgr.WaitEdge
	for _, id := range c.Sites() {
		if k := c.Site(id).kernel(); !k.dead.Load() {
			out = append(out, k.locks.WaitEdges()...)
		}
	}
	return out
}

// AbortEverywhere broadcasts a transaction abort to every site,
// implementing the cascade's data side (the process-tree side is driven
// by package core), and reports whether every site heard it.  A down
// site rolls back during its own recovery (section 4.3); one a partition
// cut off holds the transaction's locks until the abort reaches it.
func (m *machine) AbortEverywhere(txid string) (heard bool) {
	heard = true
	for _, id := range m.cl.Sites() {
		if _, err := simnet.Exchange[none](m.ep, id, "abortTxn", txnReq{Txid: txid}); err != nil {
			heard = false
		}
	}
	return heard
}

// dropOpen refreshes a cached open file whose on-disk inode changed
// behind its back (recovery path): live handles keep working against the
// reloaded descriptor.
func (k *incarnation) dropOpen(fileID string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	of, ok := k.open[fileID]
	if !ok {
		return
	}
	if f, err := shadow.Open(of.vs.vol, of.file.Load().Ino()); err == nil {
		of.file.Store(f)
	} else {
		delete(k.open, fileID)
	}
}

// ReapProcess discards a dead non-transaction process's uncommitted
// modifications and releases its locks at every reachable site - the
// kernel-level cleanup behind process death ("its open files will be
// closed and changes aborted by the underlying system protocols",
// section 4.3, applied to the non-transaction case without the commit a
// live close performs).
func (c *Cluster) ReapProcess(pid int) {
	for _, id := range c.Sites() {
		if k := c.Site(id).kernel(); !k.dead.Load() {
			k.reapLocal(pid)
		}
	}
}

func (k *incarnation) reapLocal(pid int) {
	owner := procOwner(pid)
	k.mu.Lock()
	files := make([]*openFile, 0, len(k.open))
	for _, of := range k.open {
		files = append(files, of)
	}
	k.mu.Unlock()
	slices.SortFunc(files, func(a, b *openFile) int { return strings.Compare(a.id, b.id) })
	var touched []*openFile
	for _, of := range files {
		if of.file.Load().HasMods(owner) {
			of.file.Load().Abort(owner) //nolint:errcheck // best-effort reaping of a dead process
			touched = append(touched, of)
		}
	}
	for _, fl := range k.locks.ReleaseGroup(lockmgr.Holder{PID: pid}.Group()) {
		if of, err := k.lookupOpen(fl.ID()); err == nil {
			touched = append(touched, of)
		}
	}
	k.dropLockCache(groupKey(pid, ""))
	for _, of := range touched {
		k.maybeSyncReplicas(of)
	}
}
