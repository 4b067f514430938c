// Package tpc implements the distributed two-phase commit of sections
// 4.2-4.4: the coordinator state machine, the three levels of logging
// (coordinator log, per-volume prepare logs, and the per-file shadow
// pages underneath), the abort paths, and the coordinator's crash recovery
// (a participant's is Site.Restart and ResolveInDoubt in internal/cluster).
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
	"sort"
	"strings"
	"sync"
	"time"

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

// Status is a transaction's outcome as recorded in the coordinator log.
type Status int

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

func coordKey(txid string) string { return "coord:" + txid }

// prepKey builds the prepare log key.  In the paper's intended design
// there is one prepare record per transaction per volume; the footnote-10
// "current implementation" writes one per file (see PerFilePrepare).
func prepKey(txid, suffix string) string {
	if suffix == "" {
		return "prep:" + txid
	}
	return "prep:" + txid + ":" + suffix
}

// WriteCoordRecord writes (or overwrites) the coordinator log record.
// Overwriting with an equal-size payload is a single I/O: the status
// marker flip that defines the commit point.
func WriteCoordRecord(v *fs.Volume, rec CoordRecord) error {
	return putCoordRecord(v, coordKey(rec.Txid), &rec)
}

func putCoordRecord(v *fs.Volume, key string, rec *CoordRecord) error {
	return v.Log().Put(key, fs.KindCoordinator, encodeCoordRecord(rec))
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
	return v.Log().Delete(coordKey(txid))
}

// WritePrepareRecord writes a participant's prepare log entry.  suffix
// distinguishes per-file records in footnote-10 mode ("" otherwise).
func WritePrepareRecord(v *fs.Volume, rec PrepareRecord, suffix string) error {
	return v.Log().Put(prepKey(rec.Txid, suffix), fs.KindPrepare, encodePrepareRecord(&rec))
}

// ReadPrepareRecords returns every prepare record in the volume's log.
func ReadPrepareRecords(v *fs.Volume) ([]PrepareRecord, error) {
	return readRecords(v, fs.KindPrepare, "prepare", decodePrepareRecord)
}

// DeletePrepareRecords removes every prepare record for txid (all
// suffixes).
func DeletePrepareRecords(v *fs.Volume, txid string) error {
	whole := prepKey(txid, "")
	for _, key := range v.Log().Keys() {
		if key == whole || strings.HasPrefix(key, whole+":") {
			if err := v.Log().Delete(key); err != nil {
				return err
			}
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
	// RetryInterval spaces automatic phase-two retries to unreachable
	// participants.  Zero disables the timer; RetryPending still works.
	RetryInterval time.Duration
	// FastPaths enables the commit fast paths of DESIGN.md section 10:
	// read-only participants vote VoteReadOnly and skip phase two, a
	// transaction whose participants all voted read-only skips the
	// commit-record force, and a single-site transaction commits with
	// one combined prepare-and-commit message.  Off (the default) runs
	// the paper-exact protocol.
	FastPaths bool
	// Clock paces the retry timer and the fan-out goroutines.  Nil
	// means the real-time clock.
	Clock vtime.Clock
}

// pendingTxn tracks a live transaction: undecided (status is
// StatusUnknown while votes are collected), or decided with its outcome
// not yet delivered and acknowledged everywhere.
type pendingTxn struct {
	status  Status
	logged  bool            // a coordinator log record may exist for finish to reclaim
	unacked []simnet.SiteID // ascending
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
	done    map[string]Status // completed this incarnation (for StatusOf)

	stopCh chan struct{} // cap 1; Close's signal to the retry loop
}

// NewCoordinator creates a coordinator logging to vol.  A coordinator
// with a retry timer owns a goroutine; Close it when the site shuts down
// or crashes.
func NewCoordinator(site simnet.SiteID, vol *fs.Volume, tr Transport, st *stats.Set, cfg Config) *Coordinator {
	clk := cfg.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	c := &Coordinator{
		site: site, vol: vol, tr: tr, st: st, cfg: cfg, clk: clk,
		pending: make(map[string]*pendingTxn),
		done:    make(map[string]Status),
		stopCh:  make(chan struct{}, 1),
	}
	if cfg.RetryInterval > 0 {
		clk.Go(c.retryLoop)
	}
	return c
}

// SetTracer attaches an event tracer; the coordinator stamps the 2PC
// phases (PrepareSent, Voted, TxnCommit/TxnAbort) through it.  Call
// before the coordinator sees traffic.
func (c *Coordinator) SetTracer(t *trace.Tracer) { c.trc = t }

// Close stops the phase-two retry timer.  It is idempotent and safe on a
// coordinator created without one.  Pending phase-two work is not lost:
// the coordinator log survives, and Recover (or a fresh coordinator's
// RetryPending) re-drives it - exactly the crash path of section 4.4.
func (c *Coordinator) Close() {
	vtime.NotifySend(c.clk, c.stopCh, struct{}{})
}

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

// participant is one storage site of a transaction with its files there.
type participant struct {
	site  simnet.SiteID
	files []string // sorted
}

// participants groups the file list by storage site, ascending by site:
// the order every per-site trace event and bookkeeping step follows, so a
// fixed-seed run's event sequence does not depend on goroutine scheduling.
func participants(files []proc.FileRef) []participant {
	var parts []participant
	for _, f := range files {
		i := slices.IndexFunc(parts, func(p participant) bool { return p.site == f.StorageSite })
		if i < 0 {
			i = len(parts)
			parts = append(parts, participant{site: f.StorageSite})
		}
		parts[i].files = append(parts[i].files, f.FileID)
	}
	slices.SortFunc(parts, func(a, b participant) int { return int(a.site) - int(b.site) })
	for _, p := range parts {
		sort.Strings(p.files)
	}
	return parts
}

// sitesOf lists the participants' sites (ascending, as parts is).
func sitesOf(parts []participant) []simnet.SiteID {
	sites := make([]simnet.SiteID, len(parts))
	for i, p := range parts {
		sites[i] = p.site
	}
	return sites
}

// fanOut runs send(0..n-1) concurrently and returns when all have: the
// one fan-out behind prepare, abort distribution, phase two and the retry
// backlog.  A slow or unreachable site delays only the return, never the
// delivery to the others.  It is unbounded: n is a transaction's sites or
// the unacknowledged commits, and a simulated send holds no descriptor.
// Callers keep bookkeeping and trace events outside it, in site order, so
// a fixed-seed run's event sequence does not depend on scheduling.
func (c *Coordinator) fanOut(n int, send func(i int)) {
	g := vtime.NewGroup(c.clk)
	for i := 0; i < n; i++ {
		g.Go(func() { send(i) })
	}
	g.Wait()
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
	parts := participants(files)
	// One-phase fast path: a single participant site stores every file,
	// so the commit point can be delegated to that site's prepare-record
	// force and the coordinator log skipped entirely.
	onePhase := c.cfg.FastPaths && len(parts) == 1
	c.mu.Lock()
	if _, ok := c.pending[txid]; ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTxnExists, txid)
	}
	pt := &pendingTxn{logged: !onePhase}
	c.pending[txid] = pt
	c.mu.Unlock()
	if onePhase {
		return c.commitOnePhase(txid, pt, parts)
	}

	// Step 1: coordinator log, status unknown.
	key := coordKey(txid)
	rec := CoordRecord{Txid: txid, Files: files}
	if err := c.logStatus(key, &rec, StatusUnknown); err != nil {
		// The record never landed, so recovery reads the transaction as
		// aborted (presumed abort).  The participants were never
		// contacted, but they already hold the transaction's retained
		// locks and uncommitted modifications from its data operations:
		// the abort must be distributed now or those leak forever.
		c.abort(txid, pt, parts)
		return err
	}

	// Step 2: prepare at every participant, in parallel.
	for _, p := range parts {
		c.trc.Record(trace.PrepareSent, txid, p.site.String(), int64(len(p.files)))
	}
	votes := make([]struct {
		vote Vote
		err  error
	}, len(parts))
	prepT0 := c.clk.Now()
	c.fanOut(len(parts), func(i int) {
		votes[i].vote, votes[i].err = c.tr.SendPrepare(parts[i].site, txid, parts[i].files, c.site)
	})
	c.prof().Window(txid, telemetry.WinPrepare, c.clk.Now().Sub(prepT0))
	// Read-only voters released their locks at prepare time and hold no
	// prepare records: they drop out of the protocol here, receiving
	// neither the phase-two commit nor an abort.
	var prepErr error
	p2parts := make([]participant, 0, len(parts))
	for i, p := range parts {
		if votes[i].err == nil && votes[i].vote == VoteReadOnly {
			c.st.Inc(stats.ReadOnlyVotes)
			c.trc.Record(trace.VotedReadOnly, txid, p.site.String(), int64(len(p.files)))
			continue
		}
		p2parts = append(p2parts, p)
		yes := int64(1)
		if votes[i].err != nil {
			yes = 0
			if prepErr == nil {
				prepErr = fmt.Errorf("%w: %s: %v", ErrPrepareFailed, p.site, votes[i].err)
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
		markErr := putCoordRecord(c.vol, key, &rec)
		c.abort(txid, pt, p2parts)
		return errors.Join(prepErr, markErr)
	}

	// All participants read-only: nothing anywhere to redo, so the
	// commit-record force (and all of phase two) is unnecessary - the
	// unanimous vote is the decision, and the step-1 record can simply be
	// reclaimed.  Recovery stays sound: a crash before this point leaves
	// a StatusUnknown record that resolves to abort, which no participant
	// can contradict because none holds any transaction state.
	if len(p2parts) == 0 {
		c.decided(txid, pt, StatusCommitted, parts, nil, 0)
		return nil
	}

	// Step 3: the commit point - one in-place status flip.
	if err := c.logStatus(key, &rec, StatusCommitted); err != nil {
		// The outcome is undecided on disk; treat as abort.
		c.abort(txid, pt, p2parts)
		return err
	}
	c.decided(txid, pt, StatusCommitted, parts, sitesOf(p2parts), len(p2parts))

	// Step 4: phase two.  The window is measured only when the
	// coordinator drives it synchronously: an asynchronous phase two is
	// off the transaction's critical path and must not be attributed to
	// its latency.
	if c.cfg.SyncPhase2 {
		p2T0 := c.clk.Now()
		c.runPhase2(txid)
		c.prof().Window(txid, telemetry.WinPhase2, c.clk.Now().Sub(p2T0))
	} else {
		c.clk.Go(func() { c.runPhase2(txid) })
	}
	return nil
}

// commitOnePhase commits a single-site transaction with one combined
// prepare-and-commit exchange.  The participant's prepare-record force is
// the commit point (the record carries its one-phase mark, so the
// participant's recovery resolves it without a coordinator), which makes
// the coordinator log - and both its forced writes - unnecessary.
func (c *Coordinator) commitOnePhase(txid string, pt *pendingTxn, parts []participant) error {
	site, ids := parts[0].site, parts[0].files
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
		c.abort(txid, pt, parts)
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
	c.decided(txid, pt, StatusCommitted, parts, nil, 1)
	return nil
}

// decided is the one place the coordinator records a transaction's
// outcome: the live status in-doubt queries hear from here on, the
// counter, and the trace event (value holders: the participant sites
// that have the outcome to apply).  unacked lists the sites phase two
// must still reach; with none, the transaction is finished on the spot.
func (c *Coordinator) decided(txid string, pt *pendingTxn, st Status, parts []participant, unacked []simnet.SiteID, holders int) {
	if len(unacked) == 0 {
		c.finish(txid, pt, st)
	} else {
		c.mu.Lock()
		pt.status = st
		pt.unacked = unacked
		c.mu.Unlock()
	}
	if st != StatusCommitted {
		c.st.Inc(stats.TxnAborts)
		c.trc.Record(trace.TxnAbort, txid, "", 0)
		return
	}
	c.st.Inc(stats.TxnCommits)
	c.recordLocality(parts)
	c.trc.Record(trace.TxnCommit, txid, "", int64(holders))
}

// abort is the abort decision: from here on an in-doubt query hears
// "aborted" rather than "undecided", every site in parts is told, and the
// transaction is finished.
func (c *Coordinator) abort(txid string, pt *pendingTxn, parts []participant) {
	c.mu.Lock()
	pt.status = StatusAborted
	c.mu.Unlock()
	c.sendAborts(txid, parts)
	c.decided(txid, pt, StatusAborted, nil, nil, 0)
}

// sendAborts tells every site in parts to roll the transaction back, best
// effort: duplicates are harmless, and a site that misses the message
// learns the outcome from its own recovery query (presumed abort).
func (c *Coordinator) sendAborts(txid string, parts []participant) {
	c.fanOut(len(parts), func(i int) {
		c.tr.SendAbort(parts[i].site, txid) //nolint:errcheck // best effort, see above
	})
}

// runPhase2 drives commit messages until every participant acknowledges,
// then releases the coordinator log.  A partitioned participant stalls
// only its own ack, not commit delivery to healthy sites.
func (c *Coordinator) runPhase2(txid string) {
	c.mu.Lock()
	pt, ok := c.pending[txid]
	if !ok {
		c.mu.Unlock()
		return
	}
	sites := slices.Clone(pt.unacked)
	c.mu.Unlock()

	acked := make([]bool, len(sites))
	c.fanOut(len(sites), func(i int) {
		acked[i] = c.tr.SendCommit(sites[i], txid) == nil
	})

	c.mu.Lock()
	pt.unacked = slices.DeleteFunc(pt.unacked, func(s simnet.SiteID) bool {
		i, ok := slices.BinarySearch(sites, s)
		return ok && acked[i]
	})
	remaining := len(pt.unacked)
	c.mu.Unlock()
	if remaining == 0 {
		c.finish(txid, pt, StatusCommitted)
	}
}

// finish retires the transaction: its coordinator log record, if one was
// written, is deleted, and its outcome moves from pending to done.
func (c *Coordinator) finish(txid string, pt *pendingTxn, st Status) {
	if pt.logged {
		DeleteCoordRecord(c.vol, txid) //nolint:errcheck // stale records are re-resolved by Recover
	}
	c.mu.Lock()
	delete(c.pending, txid)
	c.done[txid] = st
	c.mu.Unlock()
}

// RetryPending re-drives phase two for every committed transaction with
// unacknowledged participants.  Independent transactions retry
// concurrently, so one transaction stuck behind a partition cannot delay
// the rest of the backlog.  The retry timer calls this; tests and the
// recovery path call it directly.
func (c *Coordinator) RetryPending() {
	c.mu.Lock()
	var txids []string
	for txid, pt := range c.pending {
		if pt.status == StatusCommitted {
			txids = append(txids, txid)
		}
	}
	c.mu.Unlock()
	sort.Strings(txids) // the fan-out's start order, and so the interleaving, follows
	c.fanOut(len(txids), func(i int) { c.runPhase2(txids[i]) })
}

// retryLoop re-drives phase two every RetryInterval until Close; a Close
// that lands mid-pass is found waiting on the next receive.
func (c *Coordinator) retryLoop() {
	for {
		if _, stop := vtime.WaitRecv(c.clk, c.stopCh, c.cfg.RetryInterval); stop {
			return
		}
		c.RetryPending()
	}
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
// the log is only deleted after every participant acknowledged, so an
// absent record means the transaction never committed.  StatusUnknown
// answers exactly one case, a live transaction still collecting votes, and
// means "undecided, ask again": the asker voted yes and this coordinator
// may yet commit.  A logged record still marked unknown is another thing:
// its coordinator crashed before the commit point, and that is an abort.
func (c *Coordinator) StatusOf(txid string) Status {
	c.mu.Lock()
	pt, live := c.pending[txid]
	st, ok := c.done[txid]
	if live {
		st = pt.status
		ok = true
	}
	c.mu.Unlock()
	if ok {
		return st
	}
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
// Duplicate messages to participants are safe.
func (c *Coordinator) Recover() error {
	recs, err := ReadCoordRecords(c.vol)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		parts := participants(rec.Files)
		st := StatusAborted
		if rec.Status == StatusCommitted {
			st = StatusCommitted
		}
		pt := &pendingTxn{status: st, logged: true, unacked: sitesOf(parts)}
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
		if st == StatusCommitted {
			c.runPhase2(rec.Txid)
		} else {
			c.sendAborts(rec.Txid, parts)
			c.finish(rec.Txid, pt, StatusAborted)
		}
	}
	return nil
}
