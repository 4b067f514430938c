package fs

import (
	"sync"
	"time"

	"repro/internal/vtime"
)

// GroupCommitConfig tunes the LogStore's group-commit daemon.
//
// The daemon implements the classic group-commit optimisation (Gray):
// while one batched flush is in flight, every Put/Delete that arrives
// queues behind it, and the next flush carries them all in one vectored
// disk write - one forced I/O (seek + sync) for the whole batch, at the
// cost of each record waiting up to MaxDelay for companions.  Per-page
// write counts are unchanged, so the paper's Figure 5 I/O tables
// reproduce identically with the daemon on or off; only ForcedIOs and
// simulated latency shrink.
type GroupCommitConfig struct {
	// MaxBatch caps how many records ride one flush.  Zero or negative
	// means DefaultGroupCommitMaxBatch.
	MaxBatch int

	// MaxDelay is how long the daemon waits for companion records before
	// flushing a non-full batch.  Zero disables group commit entirely:
	// the store degrades to the paper's synchronous per-record writes.
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
// batched flush.  done receives the record's outcome exactly once.
// enqueued is stamped by submit so the flush can report how long the
// record lingered waiting for companions; requests built directly for
// flushBatch (tests) leave it zero and are skipped by the linger
// accounting.
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
	stopped bool

	signal chan struct{}
	exit   *vtime.Gate
}

func newGroupCommitter(ls *LogStore, cfg GroupCommitConfig) *groupCommitter {
	clk := cfg.Clock
	if clk == nil {
		clk = vtime.Real()
	}
	gc := &groupCommitter{
		ls:     ls,
		cfg:    cfg,
		clk:    clk,
		signal: make(chan struct{}, 1),
		exit:   vtime.NewGate(clk),
	}
	clk.Go(gc.run)
	return gc
}

// submit enqueues the request and parks until its flush completes.
// handled is false when the daemon had already stopped, in which case the
// caller must fall back to the synchronous path.
func (gc *groupCommitter) submit(r *logReq) (err error, handled bool) {
	gc.mu.Lock()
	if gc.stopped {
		gc.mu.Unlock()
		return nil, false
	}
	r.done = make(chan error, 1)
	r.enqueued = gc.clk.Now()
	gc.queue = append(gc.queue, r)
	gc.mu.Unlock()
	vtime.NotifySend(gc.clk, gc.signal, struct{}{})
	err, _ = vtime.WaitRecv(gc.clk, r.done, 0)
	return err, true
}

func (gc *groupCommitter) run() {
	defer gc.exit.Release()
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
			// A flush just finished (or the queue just went non-empty):
			// linger briefly so records arriving now share this force.
			gc.clk.Sleep(gc.cfg.MaxDelay)
			// Settle the instant before cutting the batch: a record whose
			// force completes exactly when the linger expires joins this
			// batch whichever of the two woke first.
			vtime.Settle(gc.clk)
		}
		gc.mu.Lock()
		n = len(gc.queue)
		if max := gc.cfg.maxBatch(); n > max {
			n = max
		}
		batch := make([]*logReq, n)
		copy(batch, gc.queue)
		gc.queue = append(gc.queue[:0], gc.queue[n:]...)
		gc.mu.Unlock()

		gc.ls.flushBatch(batch, gc.clk)
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
	gc.exit.Wait()
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
