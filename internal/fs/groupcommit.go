package fs

import (
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/vtime"
)

// GroupCommitConfig tunes the LogStore's group-commit daemon.
//
// The daemon implements the classic group-commit optimisation (Gray):
// while one batched flush is in flight, every Put/Delete that arrives
// queues behind it, and the next flush carries them all in one vectored
// disk write - one forced I/O (seek + sync) for the whole batch.  Only
// after a flush that carried company does a record wait up to MaxDelay
// for more; a lone record on an idle daemon is forced at once.  Per-page
// write counts are unchanged, so the paper's Figure 5 I/O tables
// reproduce identically with the daemon on or off; only ForcedIOs and
// simulated latency shrink.
type GroupCommitConfig struct {
	// MaxBatch caps how many records ride one flush.  Zero or negative
	// means DefaultGroupCommitMaxBatch.
	MaxBatch int

	// MaxDelay is how long the daemon waits for companion records before
	// flushing a non-full batch, when its last flush carried two or more
	// (a serial stream never waits).  Zero disables group commit
	// entirely: the store degrades to the paper's synchronous per-record
	// writes.
	MaxDelay time.Duration

	// Clock paces the linger window and the submit/flush handshake.
	// Nil means the real-time clock.
	Clock vtime.Clock
}

// DefaultGroupCommitMaxBatch is used when GroupCommitConfig.MaxBatch is
// unset.
const DefaultGroupCommitMaxBatch = 64

func (c GroupCommitConfig) enabled() bool { return c.MaxDelay > 0 }

func (c GroupCommitConfig) maxBatch() int {
	if c.MaxBatch > 0 {
		return c.MaxBatch
	}
	return DefaultGroupCommitMaxBatch
}

// logReq is one queued Put (or Delete, when del is set) awaiting a
// batched flush.  done receives the record's outcome exactly once per
// submit.  enqueued is stamped by submit so the flush can report how long
// the record lingered waiting for companions; requests built directly for
// flushBatch (tests) leave it zero and are skipped by the linger
// accounting.
//
// A request and its channel are reused: submit takes one from the
// daemon's free list and puts it back once its own WaitRecv has returned
// the outcome.  That wait has no deadline, so it returns only after the
// daemon's NotifySend, and the NotifySend is the daemon's last use of the
// request (flushBatch reads every field it needs before it notifies
// anyone).  From then on the submitter is the only one holding it.  The
// tpc records of DESIGN.md section 4 item 10 had no such point: a reply
// could still be on its way when the waiter gave up.
type logReq struct {
	del      bool
	key      string
	kind     LogKind
	payload  []byte
	done     chan error
	enqueued time.Time
}

// groupCommitter is the batching daemon.  Callers enqueue via submit and
// park on their request's done channel; the run loop drains the queue in
// MaxBatch-sized slices and hands each slice to LogStore.flushBatch.
// submit and stop signal the daemon on a cap-1 channel after changing
// queue/stopped; a signal sent while the daemon is flushing waits in the
// channel, and the daemon re-reads the state under gc.mu before it parks
// again.
type groupCommitter struct {
	ls  *LogStore
	cfg GroupCommitConfig
	clk vtime.Clock

	mu      sync.Mutex
	queue   []*logReq
	free    []*logReq // requests whose submit returned, for reuse
	stopped bool

	signal chan struct{}
	daemon *vtime.Group // the run loop, joined by stop

	// The run loop's own: the batch it cuts and what flushBatch keeps
	// across flushes.  They are per daemon, not per store: StartGroupCommit
	// installs a new daemon before stopping the old one, whose last batch
	// may still be notifying, off l.mu, while the new one flushes.
	batch []*logReq
	flush flushState
}

func newGroupCommitter(ls *LogStore, cfg GroupCommitConfig) *groupCommitter {
	clk := cfg.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	reg := ls.v.st.Registry()
	gc := &groupCommitter{
		ls:     ls,
		cfg:    cfg,
		clk:    clk,
		signal: make(chan struct{}, 1),
		daemon: vtime.NewGroup(clk),
		flush: flushState{
			clk:       clk,
			batchSize: reg.Histogram("group_commit_batch_size", telemetry.SizeBuckets()),
			linger:    reg.Histogram("group_commit_linger_ns", telemetry.DurationBuckets()),
		},
	}
	gc.daemon.Go(gc.run)
	return gc
}

// submit enqueues a Put of (key, kind, payload), or with del a Delete of
// key, and parks until its flush completes.  handled is false when the
// daemon had already stopped, in which case the caller must fall back to
// the synchronous path.
func (gc *groupCommitter) submit(del bool, key string, kind LogKind, payload []byte) (err error, handled bool) {
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		return nil, false
	}
	var r *logReq
	if n := len(gc.free); n > 0 {
		r, gc.free = gc.free[n-1], gc.free[:n-1]
	} else {
		r = &logReq{done: make(chan error, 1)}
	}
	r.del, r.key, r.kind, r.payload = del, key, kind, payload
	r.enqueued = gc.clk.Now()
	gc.queue = append(gc.queue, r)
	gc.mu.Unlock()
	vtime.NotifySend(gc.clk, gc.signal, struct{}{})
	err, _ = vtime.WaitRecv(gc.clk, r.done, 0)
	r.key, r.payload = "", nil // the caller's, not ours to keep
	gc.mu.Lock()
	gc.free = append(gc.free, r)
	gc.mu.Unlock()
	return err, true
}

func (gc *groupCommitter) run() {
	for {
		gc.mu.Lock()
		n := len(gc.queue)
		stopped := gc.stopped
		gc.mu.Unlock()
		if n == 0 {
			if stopped {
				return
			}
			vtime.WaitRecv(gc.clk, gc.signal, 0)
			continue
		}
		if n < gc.cfg.maxBatch() && !stopped {
			// Linger for companions only if the last flush had some
			// (gc.batch keeps its length): a serial stream never does,
			// so its lone records are forced at once.
			if len(gc.batch) >= 2 {
				gc.clk.Sleep(gc.cfg.MaxDelay)
			}
			// Settle the instant before cutting the batch: records
			// submitted at this instant, or whose force completes exactly
			// when the linger expires, join this batch.
			vtime.Settle(gc.clk)
		}
		gc.mu.Lock()
		n = min(len(gc.queue), gc.cfg.maxBatch())
		gc.batch = append(gc.batch[:0], gc.queue[:n]...)
		rest := copy(gc.queue, gc.queue[n:])
		clear(gc.queue[rest:])
		gc.queue = gc.queue[:rest]
		gc.mu.Unlock()

		gc.ls.flushBatch(gc.batch, &gc.flush)
		clear(gc.batch) // notified: the submitters own them again
	}
}

// stop shuts the daemon down, flushing any queued records first, and
// waits for the run loop to exit.  After stop returns, submit reports
// handled == false.
func (gc *groupCommitter) stop() {
	gc.mu.Lock()
	gc.stopped = true
	gc.mu.Unlock()
	vtime.NotifySend(gc.clk, gc.signal, struct{}{})
	gc.daemon.Wait()
}

// StartGroupCommit attaches a group-commit daemon to the store.  With
// cfg.MaxDelay == 0 it is a no-op: the store keeps the paper's
// synchronous per-record behaviour.  Starting replaces (and stops) any
// existing daemon.
func (l *LogStore) StartGroupCommit(cfg GroupCommitConfig) {
	l.gcMu.Lock()
	old := l.gc
	if cfg.enabled() {
		l.gc = newGroupCommitter(l, cfg)
	} else {
		l.gc = nil
	}
	l.gcMu.Unlock()
	if old != nil {
		old.stop()
	}
}

// StopGroupCommit detaches and stops the daemon, draining its queue.
// Safe to call when no daemon is attached.
func (l *LogStore) StopGroupCommit() {
	l.gcMu.Lock()
	old := l.gc
	l.gc = nil
	l.gcMu.Unlock()
	if old != nil {
		old.stop()
	}
}

// committer returns the attached daemon, or nil.
func (l *LogStore) committer() *groupCommitter {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.gc
}
