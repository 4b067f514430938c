package cluster

import (
	"fmt"
	"slices"
	"strings"

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

// prepareResp carries the participant's vote on the fast-path prepare
// exchanges ("preparev", "prepareCommit").  The classic "prepare" op
// keeps its empty response so fast-paths-off runs are wire-identical.
type prepareResp struct{ Vote tpc.Vote }

func (prepareResp) WireSize() int { return 16 }

type commit2Req struct{ Txid string }
type abortTxnReq struct{ Txid string }
type statusReq struct{ Txid string }
type statusResp struct{ Status tpc.Status }
type waitEdgesResp struct{ Edges []lockmgr.WaitEdge }

// registerHandlers installs every kernel message handler for the site.
func (s *Site) registerHandlers() {
	s.registerFileHandlers()
	s.registerProcHandlers()
	s.registerReplicaHandlers()
	s.registerPlacementHandlers()
	s.ep.Handle("prepare", s.wrap(func(req any) (any, error) { return nil, s.handlePrepare(req.(prepareReq)) }))
	s.ep.Handle("preparev", s.wrap(func(req any) (any, error) {
		v, err := s.handlePrepareVote(req.(prepareReq))
		return prepareResp{Vote: v}, err
	}))
	s.ep.Handle("prepareCommit", s.wrap(func(req any) (any, error) {
		v, err := s.handlePrepareCommit(req.(prepareReq))
		return prepareResp{Vote: v}, err
	}))
	s.ep.Handle("commit2", s.wrap(func(req any) (any, error) { return nil, s.handleCommit2(req.(commit2Req)) }))
	s.ep.Handle("abortTxn", s.wrap(func(req any) (any, error) { return nil, s.handleAbortTxn(req.(abortTxnReq)) }))
	s.ep.Handle("status", s.wrap(func(req any) (any, error) { return s.handleStatus(req.(statusReq)) }))
	s.ep.Handle("waitedges", s.wrap(func(req any) (any, error) {
		return waitEdgesResp{Edges: s.locks.WaitEdges()}, nil
	}))
}

// siteTransport adapts the site's endpoint to tpc.Transport.  Prepare is
// a single exchange: a lost prepare is treated as a refusal and aborts
// the transaction (section 4.3).  Commit and abort messages are
// idempotent (temporally-unique txids, section 4.4), so they ride
// CallRetry's backoff to shrug off transient loss without waiting for
// the coarse phase-two retry timer.
type siteTransport struct{ s *Site }

func (t *siteTransport) SendPrepare(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (tpc.Vote, error) {
	if !t.s.cl.cfg.FastPaths {
		// Paper-exact mode keeps the original wire exchange (empty
		// response) so fixed-seed runs stay byte-identical.
		_, err := t.s.ep.Call(site, "prepare", prepareReq{Txid: txid, FileIDs: fileIDs, Coord: coord})
		return tpc.VoteCommit, err
	}
	resp, err := t.s.ep.Call(site, "preparev", prepareReq{Txid: txid, FileIDs: fileIDs, Coord: coord})
	if err != nil {
		return tpc.VoteCommit, err
	}
	return resp.(prepareResp).Vote, nil
}

func (t *siteTransport) SendPrepareCommit(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (tpc.Vote, error) {
	resp, err := t.s.ep.Call(site, "prepareCommit", prepareReq{Txid: txid, FileIDs: fileIDs, Coord: coord})
	if err != nil {
		return tpc.VoteCommit, err
	}
	return resp.(prepareResp).Vote, nil
}

func (t *siteTransport) SendCommit(site simnet.SiteID, txid string) error {
	_, err := t.s.ep.CallRetry(site, "commit2", commit2Req{Txid: txid}, 0)
	return err
}

func (t *siteTransport) SendAbort(site simnet.SiteID, txid string) error {
	_, err := t.s.ep.CallRetry(site, "abortTxn", abortTxnReq{Txid: txid}, 0)
	return err
}

// prof returns the cluster's critical-path profiler; nil (profiling
// off) makes every charge a cheap no-op.
func (s *Site) prof() *telemetry.Profiler {
	return s.st.Registry().Profiler()
}

// volPrep is one volume's share of a transaction's prepare payload.
type volPrep struct {
	vs    *volState
	files []tpc.PreparedFile
	locks []tpc.LockInfo
}

// gatherPrepare flushes the transaction's modified records and collects
// per-volume prepare payloads (intentions lists and lock lists, section
// 4.2 step 2), in volume-name order.  hasMods reports whether any
// gathered file carries uncommitted modifications - the write half of the
// read-only test.
func (s *Site) gatherPrepare(req prepareReq) (preps []*volPrep, hasMods bool, err error) {
	owner := TxnOwner(req.Txid)
	group := TxnGroup(req.Txid)
	var held []lockmgr.EntryInfo
	for _, fileID := range req.FileIDs {
		of, err := s.lookupOpen(fileID)
		if err != nil {
			return nil, false, err
		}
		if err := of.file.Flush(owner); err != nil {
			return nil, false, err
		}
		if of.file.HasMods(owner) {
			hasMods = true
		}
		i := slices.IndexFunc(preps, func(vp *volPrep) bool { return vp.vs.name == of.vs.name })
		if i < 0 {
			i = len(preps)
			preps = append(preps, &volPrep{vs: of.vs})
		}
		vp := preps[i]
		il := of.file.IntentionsFor(owner)
		vp.files = append(vp.files, tpc.PreparedFile{FileID: fileID, Intentions: il})
		held = of.locks.GroupEntries(held[:0], group)
		for _, e := range held {
			vp.locks = append(vp.locks, tpc.LockInfo{
				FileID: fileID, Mode: e.Mode, Off: e.Off, Len: e.Len,
			})
		}
	}
	slices.SortFunc(preps, func(a, b *volPrep) int { return strings.Compare(a.vs.name, b.vs.name) })
	return preps, hasMods, nil
}

// writePrepareRecords forces the prepare log: one record per volume, or
// per file under the footnote-10 option.  onePhaseTotal is zero for
// ordinary two-phase prepares; for a one-phase commit it is the total
// record count, stamped into every record so recovery can tell a
// complete (committed) set from a torn (aborted) one.
func (s *Site) writePrepareRecords(req prepareReq, preps []*volPrep, onePhaseTotal int) error {
	for _, vp := range preps {
		if s.cl.cfg.PerFilePrepareLogs {
			// Footnote 10: one prepare record per file per transaction.
			for _, pf := range vp.files {
				rec := tpc.PrepareRecord{
					Txid: req.Txid, CoordSite: req.Coord,
					OnePhaseTotal: onePhaseTotal,
					Files:         []tpc.PreparedFile{pf},
					Locks:         vp.locks,
				}
				if err := tpc.WritePrepareRecord(vp.vs.vol, rec, pf.FileID); err != nil {
					return err
				}
			}
			continue
		}
		rec := tpc.PrepareRecord{
			Txid: req.Txid, CoordSite: req.Coord,
			OnePhaseTotal: onePhaseTotal,
			Files:         vp.files, Locks: vp.locks,
		}
		if err := tpc.WritePrepareRecord(vp.vs.vol, rec, ""); err != nil {
			return err
		}
	}
	return nil
}

// prepareRecordCount is the number of log records writePrepareRecords
// will force for this payload.
func (s *Site) prepareRecordCount(preps []*volPrep) int {
	if !s.cl.cfg.PerFilePrepareLogs {
		return len(preps)
	}
	n := 0
	for _, vp := range preps {
		n += len(vp.files)
	}
	return n
}

// handlePrepare is the participant's first phase (section 4.2): flush the
// transaction's modified records, write the prepare log (intentions lists
// and lock lists, one record per volume - or per file under the
// footnote-10 option), and remember the prepared state.
func (s *Site) handlePrepare(req prepareReq) error {
	clk := s.cl.cfg.Clock
	t0 := clk.Now()
	preps, _, err := s.gatherPrepare(req)
	s.prof().Charge(req.Txid, telemetry.ResDataFlush, clk.Now().Sub(t0))
	if err != nil {
		return err
	}
	t0 = clk.Now()
	err = s.writePrepareRecords(req, preps, 0)
	s.prof().Charge(req.Txid, telemetry.ResPrepareForce, clk.Now().Sub(t0))
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.prepared[req.Txid] = &preparedTxn{coord: req.Coord, fileIDs: append([]string(nil), req.FileIDs...)}
	s.mu.Unlock()
	return nil
}

// readOnlyHere reports whether the transaction did no work at this site
// that phase two would have to make durable: no uncommitted
// modifications in any gathered file, and no lock stronger than
// ModeShared (an exclusive range could have been the basis of a read
// another site's write depends on, so only pure readers take the fast
// exit).
func (s *Site) readOnlyHere(txid string, hasMods bool) bool {
	if hasMods {
		return false
	}
	return s.locks.GroupSummary(TxnGroup(txid)).MaxMode <= lockmgr.ModeShared
}

// handlePrepareVote is the fast-path first phase (DESIGN.md section 10):
// like handlePrepare, but a participant whose transaction turned out to
// be read-only at this site answers VoteReadOnly instead of forcing a
// prepare record.  Its locks release immediately - there is nothing for
// phase two to deliver here - and the coordinator drops the site from
// the outcome distribution.
func (s *Site) handlePrepareVote(req prepareReq) (tpc.Vote, error) {
	clk := s.cl.cfg.Clock
	t0 := clk.Now()
	preps, hasMods, err := s.gatherPrepare(req)
	s.prof().Charge(req.Txid, telemetry.ResDataFlush, clk.Now().Sub(t0))
	if err != nil {
		return tpc.VoteCommit, err
	}
	if s.readOnlyHere(req.Txid, hasMods) {
		// No prepare record exists, so finishTxn costs no log I/O: it
		// releases the read locks and retires idle opens.
		if err := s.finishTxn(req.Txid, req.FileIDs); err != nil {
			return tpc.VoteCommit, err
		}
		return tpc.VoteReadOnly, nil
	}
	t0 = clk.Now()
	err = s.writePrepareRecords(req, preps, 0)
	s.prof().Charge(req.Txid, telemetry.ResPrepareForce, clk.Now().Sub(t0))
	if err != nil {
		return tpc.VoteCommit, err
	}
	s.mu.Lock()
	s.prepared[req.Txid] = &preparedTxn{coord: req.Coord, fileIDs: append([]string(nil), req.FileIDs...)}
	s.mu.Unlock()
	return tpc.VoteCommit, nil
}

// handlePrepareCommit executes a one-phase commit (DESIGN.md section
// 10): the coordinator has delegated the commit point to this - the
// only - participant, so prepare and phase two collapse into one
// message.  The force of the last prepare record is the commit point;
// every record carries the set's total so recovery commits iff the
// complete set survived.  After the force the outcome is applied and
// cleaned up exactly as a phase-two commit would be.
func (s *Site) handlePrepareCommit(req prepareReq) (tpc.Vote, error) {
	clk := s.cl.cfg.Clock
	t0 := clk.Now()
	preps, hasMods, err := s.gatherPrepare(req)
	s.prof().Charge(req.Txid, telemetry.ResDataFlush, clk.Now().Sub(t0))
	if err != nil {
		return tpc.VoteCommit, err
	}
	if s.readOnlyHere(req.Txid, hasMods) {
		if err := s.finishTxn(req.Txid, req.FileIDs); err != nil {
			return tpc.VoteCommit, err
		}
		return tpc.VoteReadOnly, nil
	}

	// Register the prepared entry (applying: an outcome delivery is
	// already in progress - a racing abort must be refused, not
	// interleaved) before the force, then write the records.
	pt := &preparedTxn{
		coord:    req.Coord,
		fileIDs:  append([]string(nil), req.FileIDs...),
		onePhase: true,
		applying: true,
	}
	s.mu.Lock()
	s.prepared[req.Txid] = pt
	s.mu.Unlock()
	total := s.prepareRecordCount(preps)
	t0 = clk.Now()
	err = s.writePrepareRecords(req, preps, total)
	s.prof().Charge(req.Txid, telemetry.ResPrepareForce, clk.Now().Sub(t0))
	if err != nil {
		// Before the commit point: scrub any partial record set (best
		// effort - a torn set self-resolves to abort by count) and
		// refuse, which the coordinator turns into an abort.
		for _, vp := range preps {
			tpc.DeletePrepareRecords(vp.vs.vol, req.Txid) //nolint:errcheck // incomplete set aborts by count
		}
		s.mu.Lock()
		delete(s.prepared, req.Txid)
		s.mu.Unlock()
		return tpc.VoteCommit, err
	}

	// Commit point passed.  Apply and clean up; a failure here leaves
	// the entry (no longer applying) so recovery or a later resolution
	// pass re-drives the commit - the outcome can no longer be abort.
	applyT0 := clk.Now()
	owner := TxnOwner(req.Txid)
	fail := func(err error) (tpc.Vote, error) {
		s.mu.Lock()
		pt.applying = false
		s.mu.Unlock()
		return tpc.VoteCommit, err
	}
	for _, fileID := range pt.fileIDs {
		of, err := s.lookupOpen(fileID)
		if err != nil {
			return fail(err)
		}
		if of.file.HasMods(owner) {
			if err := of.file.Commit(owner); err != nil {
				return fail(err)
			}
		}
	}
	if err := s.finishTxn(req.Txid, pt.fileIDs); err != nil {
		return fail(err)
	}
	s.prof().Charge(req.Txid, telemetry.ResOnePhaseApply, clk.Now().Sub(applyT0))
	s.mu.Lock()
	delete(s.prepared, req.Txid)
	s.mu.Unlock()
	s.tr.Record(trace.CommitApplied, req.Txid, "", int64(len(pt.fileIDs)))
	return tpc.VoteCommit, nil
}

// handleCommit2 is the participant's second phase: apply the single-file
// commit for every prepared file, release the transaction's retained
// locks, and clear the prepare log.  Duplicate commit messages are
// harmless: an unknown transaction acknowledges silently (its work is
// already done), per section 4.4.
func (s *Site) handleCommit2(req commit2Req) error {
	clk := s.cl.cfg.Clock
	t0 := clk.Now()
	defer func() {
		// Participant phase-two work; the coordinator's attribution only
		// counts it toward latency when phase two ran synchronously.
		s.prof().Charge(req.Txid, telemetry.ResPhase2Apply, clk.Now().Sub(t0))
	}()
	s.mu.Lock()
	pt, ok := s.prepared[req.Txid]
	if ok {
		if pt.applying {
			s.mu.Unlock()
			// A duplicate racing the first delivery: make the coordinator
			// retry rather than ack an outcome that may yet fail.
			return fmt.Errorf("cluster: txn %s commit already in progress", req.Txid)
		}
		pt.applying = true
	}
	s.mu.Unlock()
	if !ok {
		return nil // duplicate or already-finished: idempotent ack
	}
	owner := TxnOwner(req.Txid)

	// The prepared entry stays in the table until the outcome has fully
	// applied; a mid-apply failure leaves it for the coordinator's retry
	// (already-committed files are skipped by the HasMods check, so the
	// retry is idempotent).
	fail := func(err error) error {
		s.mu.Lock()
		pt.applying = false
		s.mu.Unlock()
		return err
	}
	if pt.recovered {
		// The in-memory working state died with the crash; apply the
		// logged intentions instead.
		if err := s.applyRecovered(pt); err != nil {
			return fail(err)
		}
	} else {
		for _, fileID := range pt.fileIDs {
			of, err := s.lookupOpen(fileID)
			if err != nil {
				return fail(err)
			}
			if of.file.HasMods(owner) {
				if err := of.file.Commit(owner); err != nil {
					return fail(err)
				}
			}
		}
	}
	// The prepared entry also survives a failed finish (prepare-record
	// deletion), so a coordinator retry re-drives it; only after the
	// finish is durable is the ack (nil return) sent.
	if err := s.finishTxn(req.Txid, pt.fileIDs); err != nil {
		return fail(err)
	}
	s.mu.Lock()
	delete(s.prepared, req.Txid)
	s.mu.Unlock()
	s.tr.Record(trace.CommitApplied, req.Txid, "", int64(len(pt.fileIDs)))
	return nil
}

// handleAbortTxn rolls back everything the transaction touched at this
// site: in-memory modifications in every open file, prepared state, and
// locks.  It is idempotent, as required for duplicate abort messages.
func (s *Site) handleAbortTxn(req abortTxnReq) error {
	owner := TxnOwner(req.Txid)

	s.mu.Lock()
	pt := s.prepared[req.Txid]
	if pt != nil {
		if pt.applying {
			s.mu.Unlock()
			return fmt.Errorf("cluster: txn %s outcome already in progress", req.Txid)
		}
		if pt.onePhaseCommitted() {
			// The one-phase commit point was reached; a late abort (e.g.
			// the coordinator lost the ack) must not tear it down.
			s.mu.Unlock()
			return fmt.Errorf("cluster: txn %s already past its one-phase commit point", req.Txid)
		}
		pt.applying = true
	}
	// A transaction's records lie under locks it still holds (a write
	// needs one; handleUnlock retains any it wrote under), so roll back
	// the files its group is indexed on, plus the prepared list.
	ids := s.locks.GroupFileIDs(TxnGroup(req.Txid))
	if pt != nil {
		ids = append(ids, pt.fileIDs...)
	}
	files := make([]*openFile, 0, len(ids))
	for _, id := range ids {
		if of := s.open[id]; of != nil {
			files = append(files, of)
		}
	}
	s.mu.Unlock()

	// As in handleCommit2, the prepared entry survives a failed rollback
	// so the coordinator's retry finds it again.
	fail := func(err error) error {
		if pt != nil {
			s.mu.Lock()
			pt.applying = false
			s.mu.Unlock()
		}
		return err
	}
	if pt != nil && pt.recovered {
		if err := s.discardRecovered(pt); err != nil {
			return fail(err)
		}
	} else {
		for _, of := range files {
			if of.file.HasMods(owner) {
				if err := of.file.Abort(owner); err != nil {
					return fail(err)
				}
			}
		}
	}
	var fileIDs []string
	if pt != nil {
		fileIDs = pt.fileIDs
	}
	if err := s.finishTxn(req.Txid, fileIDs); err != nil {
		return fail(err)
	}
	if pt != nil {
		s.mu.Lock()
		delete(s.prepared, req.Txid)
		s.mu.Unlock()
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
func (s *Site) finishTxn(txid string, fileIDs []string) error {
	s.mu.Lock()
	vols := make([]*volState, 0, len(s.vols))
	for _, vs := range s.vols {
		vols = append(vols, vs)
	}
	s.mu.Unlock()
	for _, vs := range vols {
		if err := tpc.DeletePrepareRecords(vs.vol, txid); err != nil {
			return fmt.Errorf("cluster: clearing prepare records for %s on %s: %w", txid, vs.name, err)
		}
	}
	group := TxnGroup(txid)
	released := s.locks.ReleaseGroup(group)
	s.DropLockCache(group)
	// Propagate committed contents to replicas of the transaction's files
	// that quiesced, and retire the idle opens it was keeping alive: the
	// files it named, plus any it held locks on without naming (an aborted
	// or recovered transaction has no file list; NonTxn-mode locks never
	// join one).
	for _, id := range fileIDs {
		s.settle(id)
	}
	for _, fl := range released {
		if !slices.Contains(fileIDs, fl.ID()) {
			s.settle(fl.ID())
		}
	}
	// Adaptive placement: with the transaction's locks gone, any of its
	// files now dominated by a remote accessor migrates there (no-op
	// unless Config.AdaptivePlacement).
	s.maybeMovePlacement(fileIDs)
	return nil
}

// settle runs the end-of-use duties for one file some holder just let go
// of: push the committed contents to the replicas if it quiesced, and
// retire the open-file entry once nothing references it.
func (s *Site) settle(fileID string) {
	s.mu.Lock()
	of := s.open[fileID]
	s.mu.Unlock()
	if of == nil {
		return
	}
	s.maybeSyncReplicas(of)
	s.mu.Lock()
	if s.open[fileID] == of && of.refs <= 0 && !of.file.Modified() && !of.locks.Held(true) {
		delete(s.open, fileID)
		s.locks.Drop(fileID)
	}
	s.mu.Unlock()
}

// handleStatus answers an in-doubt participant's query against this
// site's coordinator state (section 4.4).
func (s *Site) handleStatus(req statusReq) (statusResp, error) {
	coord, err := s.Coordinator()
	if err != nil {
		return statusResp{}, err
	}
	return statusResp{Status: coord.StatusOf(req.Txid)}, nil
}

// QueryStatus asks a remote coordinator for a transaction's outcome.
func (s *Site) QueryStatus(coordSite simnet.SiteID, txid string) (tpc.Status, error) {
	resp, err := s.ep.Call(coordSite, "status", statusReq{Txid: txid})
	if err != nil {
		return tpc.StatusUnknown, err
	}
	return resp.(statusResp).Status, nil
}

// WaitEdges collects wait-for edges from every reachable site - the data
// source for the user-level deadlock detector (section 3.1).
func (c *Cluster) WaitEdges() []lockmgr.WaitEdge {
	var out []lockmgr.WaitEdge
	for _, id := range c.Sites() {
		s := c.Site(id)
		if s == nil || !s.Up() {
			continue
		}
		out = append(out, s.locks.WaitEdges()...)
	}
	return out
}

// AbortEverywhere broadcasts a transaction abort to every reachable site,
// implementing the cascade's data side (the process-tree side is driven
// by package core).  Unreachable sites clean up during their own
// recovery.
func (s *Site) AbortEverywhere(txid string) {
	for _, id := range s.cl.Sites() {
		s.ep.Call(id, "abortTxn", abortTxnReq{Txid: txid}) //nolint:errcheck // down sites roll back on restart (section 4.3)
	}
}

// applyRecovered replays logged intentions for a transaction committed
// after this site crashed between prepare and phase two.
func (s *Site) applyRecovered(pt *preparedTxn) error {
	for _, vr := range pt.records {
		vs, err := s.volByName(vr.volume)
		if err != nil {
			return err
		}
		for _, pf := range vr.rec.Files {
			if err := shadow.ApplyIntentions(vs.vol, pf.Intentions); err != nil {
				return fmt.Errorf("cluster: apply intentions for %s: %w", pf.FileID, err)
			}
			s.dropOpen(pf.FileID)
		}
	}
	return nil
}

// discardRecovered releases the shadow pages of an aborted recovered
// transaction.
func (s *Site) discardRecovered(pt *preparedTxn) error {
	for _, vr := range pt.records {
		vs, err := s.volByName(vr.volume)
		if err != nil {
			return err
		}
		for _, pf := range vr.rec.Files {
			if err := shadow.DiscardIntentions(vs.vol, pf.Intentions); err != nil {
				return fmt.Errorf("cluster: discard intentions for %s: %w", pf.FileID, err)
			}
			s.dropOpen(pf.FileID)
		}
	}
	return nil
}

// dropOpen refreshes a cached open file whose on-disk inode changed
// behind its back (recovery path): live handles keep working against the
// reloaded descriptor.
func (s *Site) dropOpen(fileID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	of, ok := s.open[fileID]
	if !ok {
		return
	}
	if f, err := shadow.Open(of.vs.vol, of.file.Ino()); err == nil {
		of.file = f
	} else {
		delete(s.open, fileID)
	}
}

// reapReq cleans up after a dead non-transaction process.
type reapReq struct{ PID int }

// ReapProcess discards a dead non-transaction process's uncommitted
// modifications and releases its locks at every reachable site - the
// kernel-level cleanup behind process death ("its open files will be
// closed and changes aborted by the underlying system protocols",
// section 4.3, applied to the non-transaction case without the commit a
// live close performs).
func (c *Cluster) ReapProcess(pid int) {
	for _, id := range c.Sites() {
		s := c.Site(id)
		if s == nil || !s.Up() {
			continue
		}
		s.reapLocal(pid)
	}
}

func (s *Site) reapLocal(pid int) {
	owner := ownerFor(pid, "")
	group := lockmgr.Holder{PID: pid}.Group()
	s.mu.Lock()
	files := make([]*openFile, 0, len(s.open))
	for _, of := range s.open {
		files = append(files, of)
	}
	s.mu.Unlock()
	var touched []*openFile
	for _, of := range files {
		if of.file.HasMods(owner) {
			of.file.Abort(owner) //nolint:errcheck // best-effort reaping of a dead process
			touched = append(touched, of)
		}
	}
	for _, fl := range s.locks.ReleaseGroup(group) {
		if of, err := s.lookupOpen(fl.ID()); err == nil {
			touched = append(touched, of)
		}
	}
	s.DropLockCache(group)
	for _, of := range touched {
		s.maybeSyncReplicas(of)
	}
}
