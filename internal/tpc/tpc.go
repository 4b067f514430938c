// Package tpc implements the distributed two-phase commit of sections
// 4.2-4.4: the coordinator state machine, the three levels of logging
// (coordinator log, per-volume prepare logs, and the per-file shadow
// pages underneath), the abort paths, and the coordinator's crash recovery
// (a participant's is Site.Restart and its recovery loop in internal/cluster).
//
// The protocol, exactly as the paper lays it out:
//
//  1. the coordinator writes its log record - transaction id, the list of
//     participating files with their storage sites, status "unknown";
//  2. prepare messages go to every participant site; each flushes the
//     transaction's modified records, writes its prepare log (intentions
//     lists and lock lists), and replies prepared;
//  3. on all replies the coordinator flips its log's status marker to
//     "committed" in one write - the commit point;
//  4. a kernel process asynchronously sends commit messages; participants
//     run the single-file commit (one inode write per file), release the
//     retained locks, and clear their prepare logs;
//  5. the coordinator log is retained until every participant has
//     acknowledged phase two, then deleted.
//
// Failures before a site prepares are treated as aborts.  Transaction
// identifiers are temporally unique, so duplicated commit or abort
// messages during recovery are harmless (section 4.4).
//
// The participant's file-level work (what "prepare this file" means) is
// supplied by the embedding layer (internal/cluster) through small
// interfaces; tpc owns the logs and the state machine.
package tpc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/fs"
	"repro/internal/lockmgr"
	"repro/internal/proc"
	"repro/internal/shadow"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Status is a transaction's outcome as recorded in the coordinator log,
// one byte there.
type Status uint8

// Transaction statuses.
const (
	StatusUnknown Status = iota // logged, commit point not reached
	StatusCommitted
	StatusAborted
)

// String names the status.
func (s Status) String() string {
	switch s {
	case StatusUnknown:
		return "unknown"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Errors returned by the commit machinery.
var (
	// ErrPrepareFailed aborts a commit because a participant could not
	// prepare (unreachable, storage failure, or explicit refusal).
	ErrPrepareFailed = errors.New("tpc: participant failed to prepare")
	// ErrTxnExists rejects reusing a live transaction id.
	ErrTxnExists = errors.New("tpc: transaction already in progress")
)

// LockInfo is one retained lock recorded in a prepare log so the lock can
// be re-established if the participant crashes between prepare and phase
// two (the record must stay protected until the outcome arrives).
type LockInfo struct {
	FileID string
	Mode   lockmgr.Mode
	Off    int64
	Len    int64
}

// PreparedFile is one file's portion of a prepare log record.
type PreparedFile struct {
	FileID     string
	Intentions shadow.IntentionsList
}

// PrepareRecord is a participant site's prepare log entry for one
// transaction on one volume.
type PrepareRecord struct {
	Txid      string
	CoordSite simnet.SiteID
	Files     []PreparedFile
	Locks     []LockInfo
	// OnePhaseTotal marks a one-phase commit record (DESIGN.md section
	// 10): zero for an ordinary two-phase prepare, else the total number
	// of prepare records the transaction wrote at this site.  The force
	// of the last such record is the commit point, so recovery treats a
	// complete set as committed without consulting the coordinator and an
	// incomplete set (the final force never landed) as aborted.
	OnePhaseTotal int
}

// CoordRecord is the coordinator log entry: the file list with storage
// sites and the status marker.
type CoordRecord struct {
	Txid   string
	Files  []proc.FileRef
	Status Status
}

// ---- log record encoding ----
// (hand-rolled binary codec with pooled staging buffers; see codec.go)

// A log key is its kind's prefix and the txid: "coord:<txid>",
// "prep:<txid>", or "prep:<txid>:<fileID>" (see prepKey).
const coordPrefix, prepPrefix = "coord:", "prep:"

// coordKey cuts the coordinator log key of a record about to be
// written from v's log store, which keeps it (fs.LogStore.Key).
func coordKey(v *fs.Volume, txid string) string { return v.Log().Key(coordPrefix, txid) }

// prepKey cuts the prepare log key the same way.  In the paper's intended
// design there is one prepare record per transaction per volume; the
// footnote-10 "current implementation" writes one per file (see
// PerFilePrepare).
func prepKey(v *fs.Volume, txid, suffix string) string {
	if suffix == "" {
		return v.Log().Key(prepPrefix, txid)
	}
	return v.Log().Key(prepPrefix, txid, ":", suffix)
}

// WriteCoordRecord writes (or overwrites) the coordinator log record.
// Overwriting with an equal-size payload is a single I/O: the status
// marker flip that defines the commit point.
func WriteCoordRecord(v *fs.Volume, rec CoordRecord) error {
	return putCoordRecord(v, coordKey(v, rec.Txid), &rec)
}

func putCoordRecord(v *fs.Volume, key string, rec *CoordRecord) error {
	return putRecord(v, key, fs.KindCoordinator, func(b []byte) []byte { return appendCoordRecord(b, rec) })
}

// readRecords decodes every record of one kind in the volume's log.
func readRecords[T any](v *fs.Volume, kind fs.LogKind, what string, decode func([]byte) (T, error)) ([]T, error) {
	recs, err := v.Log().Records()
	if err != nil {
		return nil, err
	}
	var out []T
	for _, r := range recs {
		if r.Kind != kind {
			continue
		}
		rec, err := decode(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("tpc: corrupt %s record %q: %v", what, r.Key, err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// ReadCoordRecords returns every coordinator record in the volume's log.
func ReadCoordRecords(v *fs.Volume) ([]CoordRecord, error) {
	return readRecords(v, fs.KindCoordinator, "coordinator", decodeCoordRecord)
}

// DeleteCoordRecord removes the coordinator log record once all commit or
// abort processing has completed (section 4.4).
func DeleteCoordRecord(v *fs.Volume, txid string) error {
	return v.Log().Delete(coordPrefix + txid)
}

// WritePrepareRecord writes a participant's prepare log entry.  suffix
// distinguishes per-file records in footnote-10 mode ("" otherwise).
// flush names the shadow pages the record's intentions point at that are
// not yet durable: they land in the record's own force, ahead of it
// (DESIGN.md section 10, the one-force rule).
func WritePrepareRecord(v *fs.Volume, rec PrepareRecord, suffix string, flush ...int) error {
	return putRecord(v, prepKey(v, rec.Txid, suffix), fs.KindPrepare, func(b []byte) []byte { return appendPrepareRecord(b, &rec) }, flush...)
}

// ReadPrepareRecords returns every prepare record in the volume's log.
func ReadPrepareRecords(v *fs.Volume) ([]PrepareRecord, error) {
	return readRecords(v, fs.KindPrepare, "prepare", decodePrepareRecord)
}

// DeletePrepareRecords removes every prepare record for txid, in key
// order: the volume's one record, "prep:<txid>", and any footnote-10
// per-file records, "prep:<txid>:<fileID>", found by one prefix lookup.
func DeletePrepareRecords(v *fs.Volume, txid string) error {
	whole := prepPrefix + txid
	var found [4]string
	for _, key := range v.Log().AppendKeysWithPrefix(found[:0], whole) {
		if key != whole && !strings.HasPrefix(key, whole+":") {
			continue // another transaction's id extends this one's
		}
		if err := v.Log().Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// PinPreparedPages re-reserves every shadow page named by the volume's
// surviving prepare records.  It must run immediately after fs.Load,
// before any page allocation, or recovery could hand prepared pages to
// new writers.
func PinPreparedPages(v *fs.Volume) error {
	recs, err := ReadPrepareRecords(v)
	if err != nil {
		return err
	}
	for _, pr := range recs {
		for _, pf := range pr.Files {
			for _, ent := range pf.Intentions.Entries {
				if !v.PageAllocated(ent.Shadow) {
					if err := v.ReservePage(ent.Shadow); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ---- Coordinator ----

// Vote is a participant's answer to a successful prepare.
type Vote int

// Prepare votes.
const (
	// VoteCommit: the participant forced its prepare record and awaits
	// the outcome in phase two.
	VoteCommit Vote = iota
	// VoteReadOnly: the transaction did only shared-mode reads at the
	// participant, which therefore wrote nothing, released its locks on
	// the spot, and drops out of phase two (DESIGN.md section 10).
	VoteReadOnly
)

// Transport carries the commit protocol messages to participant sites.
// Implementations must be safe for concurrent use.  SendPrepare and
// SendAbort are synchronous request/response exchanges; SendCommit is the
// phase-two message and must return an error if the participant did not
// acknowledge, so the coordinator can retry.  SendPrepareCommit is the
// combined one-phase message for single-site transactions: on success the
// participant has already committed (its prepare-record force was the
// commit point), so no phase two follows.  Transports for coordinators
// running with FastPaths off may return VoteCommit unconditionally and
// reject SendPrepareCommit.
type Transport interface {
	SendPrepare(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (Vote, error)
	SendPrepareCommit(site simnet.SiteID, txid string, fileIDs []string, coord simnet.SiteID) (Vote, error)
	SendCommit(site simnet.SiteID, txid string) error
	SendAbort(site simnet.SiteID, txid string) error
}

// Config tunes the coordinator.
type Config struct {
	// SyncPhase2 makes CommitTransaction drive phase two before
	// returning, instead of the paper's asynchronous kernel process.
	// Deterministic tests and the I/O-counting benchmarks use this.
	SyncPhase2 bool
	// FastPaths enables the commit fast paths of DESIGN.md section 10:
	// read-only participants vote VoteReadOnly and skip phase two, a
	// transaction whose participants all voted read-only skips the
	// commit-record force, and a single-site transaction commits with
	// one combined prepare-and-commit message.  Off (the default) runs
	// the paper-exact protocol.
	FastPaths bool
	// Clock paces the fan-out goroutines.  Nil means the real-time clock.
	Clock vtime.Clock
}

// pendingTxn is the coordinator's one record of a live transaction:
// undecided (status is StatusUnknown while votes are collected), or
// decided with its outcome not yet delivered and acknowledged everywhere.
// It is its fan-outs' argument, sized for one or two files at one site,
// and never reused: a pass may still hold it after finish forgets it.
type pendingTxn struct {
	c      *Coordinator
	txid   string
	key    string // its coordinator log record's key, for finish to reclaim; "" when none is written
	status Status
	// passing marks a phase-two pass in flight, under c.mu: a second pass
	// would re-send what the first is still delivering, and a participant
	// refuses such a duplicate.
	passing bool
	// parts is every participant site, ascending.  Once the transaction is
	// decided it is the prefix phase two must still reach (the unacked
	// sites, still ascending), and each pass trims it under c.mu.
	parts   []participant
	partBuf [1]participant
	idBuf   [2]string
}

// Coordinator runs two-phase commit for transactions whose top-level
// process resides at this site (section 4.2).
type Coordinator struct {
	site simnet.SiteID
	vol  *fs.Volume // holds the coordinator log
	tr   Transport
	st   *stats.Set
	trc  *trace.Tracer // nil disables 2PC phase tracing
	cfg  Config
	clk  vtime.Clock

	mu      sync.Mutex
	pending map[string]*pendingTxn
}

// NewCoordinator creates a coordinator logging to vol.  It owns no
// goroutine: whoever embeds it re-drives an unacknowledged phase two
// through RetryPending.
func NewCoordinator(site simnet.SiteID, vol *fs.Volume, tr Transport, st *stats.Set, cfg Config) *Coordinator {
	clk := cfg.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	return &Coordinator{
		site: site, vol: vol, tr: tr, st: st, cfg: cfg, clk: clk,
		pending: make(map[string]*pendingTxn),
	}
}

// SetTracer attaches an event tracer; the coordinator stamps the 2PC
// phases (PrepareSent, Voted, TxnCommit/TxnAbort) through it.  Call
// before the coordinator sees traffic.
func (c *Coordinator) SetTracer(t *trace.Tracer) { c.trc = t }

// Close does nothing: a coordinator owns no goroutine to stop.  It is
// kept for callers that tear a coordinator down.
func (c *Coordinator) Close() {}

// prof returns the critical-path profiler hanging off the shared
// registry; nil (profiling off) makes every call a cheap no-op.
func (c *Coordinator) prof() *telemetry.Profiler {
	return c.st.Registry().Profiler()
}

// recordLocality accounts a committed transaction's placement quality by
// how many of its participant sites are away from the coordinator.  A
// commit with none is the placement policies' target metric
// (local_commits / txn_commits = local commit fraction).
func (c *Coordinator) recordLocality(parts []participant) {
	remote := 0
	for _, p := range parts {
		if p.site != c.site {
			remote++
		}
	}
	if remote == 0 {
		c.st.Inc(stats.LocalCommits)
	} else {
		c.st.Add(stats.RemoteParticipants, int64(remote))
	}
	c.st.Registry().Histogram("txn_participant_sites", telemetry.SizeBuckets()).Observe(int64(len(parts)))
}

// participant is one storage site of a transaction with its files there,
// and what the site answered the last message the coordinator sent it.
type participant struct {
	site  simnet.SiteID
	files []string // sorted
	vote  Vote
	err   error
}

// newPending makes txid's record, grouping the file list by storage site,
// ascending by site: the order every per-site trace event and bookkeeping
// step follows, so a fixed-seed run's event sequence does not depend on
// goroutine scheduling.  The sites' file lists share one array.
func (c *Coordinator) newPending(txid string, files []proc.FileRef) *pendingTxn {
	pt := &pendingTxn{c: c, txid: txid}
	parts := pt.partBuf[:0]
	for i, f := range files {
		if !slices.ContainsFunc(files[:i], func(g proc.FileRef) bool { return g.StorageSite == f.StorageSite }) {
			parts = append(parts, participant{site: f.StorageSite})
		}
	}
	slices.SortFunc(parts, func(a, b participant) int { return int(a.site) - int(b.site) })
	ids := slices.Grow(pt.idBuf[:0], len(files))
	for i := range parts {
		start := len(ids)
		for _, f := range files {
			if f.StorageSite == parts[i].site {
				ids = append(ids, f.FileID)
			}
		}
		parts[i].files = ids[start:len(ids):len(ids)]
		slices.Sort(parts[i].files)
	}
	pt.parts = parts
	return pt
}

// logStatus writes the transaction's coordinator record with the given
// status marker: step 1 when new, the in-place one-write flip after.
func (c *Coordinator) logStatus(key string, rec *CoordRecord, st Status) error {
	rec.Status = st
	t0 := c.clk.Now()
	err := putCoordRecord(c.vol, key, rec)
	c.prof().Charge(rec.Txid, telemetry.ResCoordLog, c.clk.Now().Sub(t0))
	return err
}

// CommitTransaction runs the full protocol for txid over the merged file
// list.  It returns nil once the commit point is durable (or, with
// SyncPhase2, once phase two has fully completed).  A prepare failure
// aborts the transaction everywhere and returns ErrPrepareFailed.
func (c *Coordinator) CommitTransaction(txid string, files []proc.FileRef) error {
	pt := c.newPending(txid, files)
	parts := pt.parts
	// One-phase fast path: a single participant site stores every file,
	// so the commit point can be delegated to that site's prepare-record
	// force and the coordinator log skipped entirely.
	onePhase := c.cfg.FastPaths && len(parts) == 1
	if !onePhase {
		pt.key = coordKey(c.vol, txid)
	}
	c.mu.Lock()
	if _, ok := c.pending[txid]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTxnExists, txid)
	}
	c.pending[txid] = pt
	c.mu.Unlock()
	if onePhase {
		return c.commitOnePhase(pt)
	}

	// Step 1: coordinator log, status unknown.
	rec := CoordRecord{Txid: txid, Files: files}
	if err := c.logStatus(pt.key, &rec, StatusUnknown); err != nil {
		// The record never landed, so recovery reads the transaction as
		// aborted (presumed abort).  The participants were never
		// contacted, but they already hold the transaction's retained
		// locks and uncommitted modifications from its data operations:
		// the abort must be distributed now or those leak forever.
		c.abort(pt, len(parts))
		return err
	}

	// Step 2: prepare at every participant, in parallel: a slow site delays
	// only the return.  Bookkeeping and trace events stay outside the
	// fan-out, in site order, so they do not depend on scheduling.
	for _, p := range parts {
		c.trc.Record(trace.PrepareSent, txid, p.site.String(), int64(len(p.files)))
	}
	prepT0 := c.clk.Now()
	vtime.Fan(c.clk, len(parts), pt, sendPrepare)
	c.prof().Window(txid, telemetry.WinPrepare, c.clk.Now().Sub(prepT0))
	// Read-only voters released their locks at prepare time and hold no
	// prepare records: they drop out of the protocol here, receiving
	// neither the phase-two commit nor an abort.  The others move to the
	// front, in site order: parts[:n2].
	var prepErr error
	n2 := 0
	for i, p := range parts {
		if p.err == nil && p.vote == VoteReadOnly {
			c.st.Inc(stats.ReadOnlyVotes)
			c.trc.Record(trace.VotedReadOnly, txid, p.site.String(), int64(len(p.files)))
			continue
		}
		parts[n2], parts[i] = p, parts[n2]
		n2++
		yes := int64(1)
		if p.err != nil {
			yes = 0
			if prepErr == nil {
				prepErr = fmt.Errorf("%w: %s: %v", ErrPrepareFailed, p.site, p.err)
			}
		}
		c.trc.Record(trace.Voted, txid, p.site.String(), yes)
	}
	if prepErr != nil {
		// Abort: flip the marker, tell everyone, clean up.  If the
		// marker write fails the record still reads StatusUnknown -
		// commit point not reached, an abort to any recovery query -
		// so distributing the abort stays mandatory and sound: without
		// it, participants that voted yes keep their prepare records
		// and retained locks forever.
		rec.Status = StatusAborted
		markErr := putCoordRecord(c.vol, pt.key, &rec)
		c.abort(pt, n2)
		return errors.Join(prepErr, markErr)
	}

	// All participants read-only: nothing anywhere to redo, so the
	// commit-record force (and all of phase two) is unnecessary - the
	// unanimous vote is the decision, and the step-1 record can simply be
	// reclaimed.  Recovery stays sound: a crash before this point leaves
	// a StatusUnknown record that resolves to abort, which no participant
	// can contradict because none holds any transaction state.
	if n2 == 0 {
		c.decided(pt, StatusCommitted, 0, 0)
		return nil
	}

	// Step 3: the commit point - one in-place status flip.
	if err := c.logStatus(pt.key, &rec, StatusCommitted); err != nil {
		// The outcome is undecided on disk; treat as abort.
		c.abort(pt, n2)
		return err
	}
	c.decided(pt, StatusCommitted, n2, n2)

	// Step 4: phase two.  The window is measured only when the
	// coordinator drives it synchronously: an asynchronous phase two is
	// off the transaction's critical path and must not be attributed to
	// its latency.
	if c.cfg.SyncPhase2 {
		p2T0 := c.clk.Now()
		runPhase2(pt, 0)
		c.prof().Window(txid, telemetry.WinPhase2, c.clk.Now().Sub(p2T0))
	} else {
		vtime.GoArg(c.clk, pt, runPhase2)
	}
	return nil
}

// sendPrepare is the phase-one fan-out's member: prepare site i of record arg.
func sendPrepare(arg any, i int) {
	pt := arg.(*pendingTxn)
	p := &pt.parts[i]
	p.vote, p.err = pt.c.tr.SendPrepare(p.site, pt.txid, p.files, pt.c.site)
}

// commitOnePhase commits a single-site transaction with one combined
// prepare-and-commit exchange.  The participant's prepare-record force is
// the commit point (the record carries its one-phase mark, so the
// participant's recovery resolves it without a coordinator), which makes
// the coordinator log - and both its forced writes - unnecessary.
func (c *Coordinator) commitOnePhase(pt *pendingTxn) error {
	txid, site, ids := pt.txid, pt.parts[0].site, pt.parts[0].files
	c.trc.Record(trace.PrepareSent, txid, site.String(), int64(len(ids)))
	prepT0 := c.clk.Now()
	vote, err := c.tr.SendPrepareCommit(site, txid, ids, c.site)
	c.prof().Window(txid, telemetry.WinPrepare, c.clk.Now().Sub(prepT0))
	if err != nil {
		// No ack: the participant either never prepared (the abort below
		// rolls its working state back) or already committed and the ack
		// was lost - in which case the abort finds nothing to undo, the
		// participant's one-phase record resolves itself, and the caller
		// learns only that the outcome was not confirmed.
		c.trc.Record(trace.Voted, txid, site.String(), 0)
		c.abort(pt, 1)
		return fmt.Errorf("%w: %s: %v", ErrPrepareFailed, site, err)
	}
	if vote == VoteReadOnly {
		c.st.Inc(stats.ReadOnlyVotes)
		c.trc.Record(trace.VotedReadOnly, txid, site.String(), int64(len(ids)))
	} else {
		c.trc.Record(trace.Voted, txid, site.String(), 1)
	}
	c.st.Inc(stats.OnePhaseCommits)
	c.trc.Record(trace.OnePhaseCommit, txid, site.String(), int64(len(ids)))
	c.decided(pt, StatusCommitted, 0, 1)
	return nil
}

// decided is the one place the coordinator records a transaction's
// outcome: the live status in-doubt queries hear from here on, the
// counter, and the trace event (value holders: the participant sites
// that have the outcome to apply).  The first unacked of pt.parts are the
// sites phase two must still reach; with none, the transaction is
// finished on the spot, else they become pt.parts once recordLocality is
// done with it, since a phase-two pass may trim that array from then on.
func (c *Coordinator) decided(pt *pendingTxn, st Status, unacked, holders int) {
	if unacked == 0 {
		c.finish(pt)
	}
	if st != StatusCommitted {
		c.st.Inc(stats.TxnAborts)
		c.trc.Record(trace.TxnAbort, pt.txid, "", 0)
		return
	}
	c.st.Inc(stats.TxnCommits)
	c.recordLocality(pt.parts)
	c.trc.Record(trace.TxnCommit, pt.txid, "", int64(holders))
	if unacked > 0 {
		c.mu.Lock()
		pt.status = st
		pt.parts = pt.parts[:unacked]
		c.mu.Unlock()
	}
}

// abort is the abort decision: from here on an in-doubt query hears
// "aborted" rather than "undecided", the first n sites of pt.parts are
// told, and the transaction is finished.
func (c *Coordinator) abort(pt *pendingTxn, n int) {
	c.mu.Lock()
	pt.status = StatusAborted
	c.mu.Unlock()
	vtime.Fan(c.clk, n, pt, sendAbort)
	c.decided(pt, StatusAborted, 0, 0)
}

// sendAbort is the abort fan-out's member: tell site i of record arg to
// roll back.  Best effort: a site that misses it asks (presumed abort).
func sendAbort(arg any, i int) {
	pt := arg.(*pendingTxn)
	pt.c.tr.SendAbort(pt.parts[i].site, pt.txid) //nolint:errcheck // best effort
}

// phase2Pass is one runPhase2 pass, its fan-out argument: the sites it
// sends the commit to, copied from the record's unacked ones (a concurrent
// pass may trim those meanwhile), and what each answered.
type phase2Pass struct {
	pt    *pendingTxn
	sends []participant
	buf   [2]participant // two sites' sends without a second allocation
}

// runPhase2 is a phase-two pass over record arg: it drives commit messages
// until every participant acknowledges, then releases the coordinator log.
// A partitioned participant stalls only its own ack, not commit delivery
// to healthy sites.
func runPhase2(arg any, _ int) {
	pt := arg.(*pendingTxn)
	c := pt.c
	c.mu.Lock()
	if c.pending[pt.txid] != pt || pt.passing {
		c.mu.Unlock()
		return
	}
	pt.passing = true
	ps := &phase2Pass{pt: pt}
	ps.sends = append(ps.buf[:0], pt.parts...)
	c.mu.Unlock()

	vtime.Fan(c.clk, len(ps.sends), ps, sendCommit)

	c.mu.Lock()
	pt.passing = false
	pt.parts = slices.DeleteFunc(pt.parts, func(p participant) bool {
		i := slices.IndexFunc(ps.sends, func(s participant) bool { return s.site == p.site })
		return i >= 0 && ps.sends[i].err == nil
	})
	remaining := len(pt.parts)
	c.mu.Unlock()
	if remaining == 0 {
		c.finish(pt)
	}
}

// sendCommit is a phase-two fan-out's member: commit site i of pass arg.
func sendCommit(arg any, i int) {
	ps := arg.(*phase2Pass)
	s := &ps.sends[i]
	s.err = ps.pt.c.tr.SendCommit(s.site, ps.pt.txid)
}

// finish retires the transaction: its coordinator log record, if one was
// written, is deleted, and the coordinator forgets it (see StatusOf).
func (c *Coordinator) finish(pt *pendingTxn) {
	if pt.key != "" {
		c.vol.Log().Delete(pt.key) //nolint:errcheck // stale records are re-resolved by Recover
	}
	c.mu.Lock()
	delete(c.pending, pt.txid)
	c.mu.Unlock()
}

// RetryPending re-drives phase two for every committed transaction with
// unacknowledged participants and returns how many are still
// unacknowledged.  Independent transactions retry concurrently, so one
// transaction stuck behind a partition cannot delay the rest of the
// backlog.  A transaction whose pass is still in flight is left to that
// pass (runPhase2) and counted as unacknowledged.
func (c *Coordinator) RetryPending() int {
	c.mu.Lock()
	var pts []*pendingTxn
	for _, pt := range c.pending {
		if pt.status == StatusCommitted {
			pts = append(pts, pt)
		}
	}
	c.mu.Unlock()
	// The fan-out's start order, and so the interleaving, follows the ids.
	slices.SortFunc(pts, func(a, b *pendingTxn) int { return strings.Compare(a.txid, b.txid) })
	vtime.Fan(c.clk, len(pts), pts, func(arg any, i int) { runPhase2(arg.([]*pendingTxn)[i], 0) })
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(slices.DeleteFunc(pts, func(pt *pendingTxn) bool { return c.pending[pt.txid] != pt }))
}

// PendingCount returns the number of transactions awaiting full phase-two
// acknowledgement.
func (c *Coordinator) PendingCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// StatusOf answers a participant's in-doubt query (section 4.4).  The
// order matters: live state, then the durable log, then presumed abort -
// the log is only deleted after every participant acknowledged, each once
// its prepare record was durably gone, so an absent record means nobody
// is in doubt of a commit.  StatusUnknown answers exactly one case, a live
// transaction still collecting votes, and means "undecided, ask again":
// the asker voted yes and this coordinator may yet commit.  A logged
// record still marked unknown is another thing: its coordinator crashed
// before the commit point, and that is an abort.
func (c *Coordinator) StatusOf(txid string) Status {
	c.mu.Lock()
	if pt, live := c.pending[txid]; live {
		st := pt.status
		c.mu.Unlock()
		return st
	}
	c.mu.Unlock()
	recs, err := ReadCoordRecords(c.vol)
	if err == nil {
		for _, r := range recs {
			if r.Txid == txid && r.Status == StatusCommitted {
				return StatusCommitted
			}
		}
	}
	return StatusAborted
}

// Recover replays the coordinator log after a crash (section 4.4): a
// record with a commit mark re-enters phase two; anything else - unknown
// (crashed before the commit point) or aborted - gets abort processing.
// Both run behind the return, as an asynchronous phase two does; every
// record is registered (and answers StatusOf) before it.  Duplicate
// messages to participants are safe.
func (c *Coordinator) Recover() error {
	recs, err := ReadCoordRecords(c.vol)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		pt := c.newPending(rec.Txid, rec.Files)
		pt.key = coordKey(c.vol, rec.Txid)
		pt.status = StatusAborted
		if rec.Status == StatusCommitted {
			pt.status = StatusCommitted
		}
		c.mu.Lock()
		_, live := c.pending[rec.Txid]
		if !live {
			c.pending[rec.Txid] = pt
		}
		c.mu.Unlock()
		if live {
			// Not a survivor of the crash: a client reached this coordinator
			// between its site's restart and this replay, and the record is
			// the one its CommitTransaction just wrote and is still driving.
			// Aborting it here would tell participants to roll back a
			// transaction that goes on to commit.
			continue
		}
		if pt.status == StatusCommitted {
			vtime.GoArg(c.clk, pt, runPhase2)
		} else {
			vtime.GoArg(c.clk, pt, abortLogged)
		}
	}
	return nil
}

// abortLogged distributes a recovered record's abort and retires it.
func abortLogged(arg any, _ int) {
	pt := arg.(*pendingTxn)
	vtime.Fan(pt.c.clk, len(pt.parts), pt, sendAbort)
	pt.c.finish(pt)
}
