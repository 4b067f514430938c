// Package trace is the causal event log behind the repo's observability
// layer: a lock-free per-site ring buffer of typed events, Lamport-clock
// stamped across simnet messages, merged by a Collector into one
// causally-ordered trace.
//
// The design mirrors internal/stats: every Tracer method is nil-safe, so
// subsystems thread a *Tracer alongside their *stats.Set and pay exactly
// one nil check per event site when tracing is disabled.  When enabled,
// Record is a clock tick, a sequence fetch-add and one atomic pointer
// store into a fixed power-of-two ring — no locks, no growth, oldest
// events overwritten first.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// EventType enumerates the trace vocabulary.  The set is deliberately
// small: transaction boundaries, lock manager decisions, shadow-page
// activity, log forces, the 2PC phases, simnet messages, and fault
// injection / recovery markers.
type EventType uint8

const (
	TxnBegin EventType = iota
	TxnCommit
	TxnAbort
	LockRequest
	LockGrant
	LockWait
	LockDeny
	PageWrite
	PageDiff
	LogForce
	GroupCommitBatch
	PrepareSent
	Voted
	CommitApplied
	MsgSend
	MsgRecv
	Migration
	CrashInject
	Recovery
	DeadlockVictim
	VotedReadOnly
	OnePhaseCommit
	// GroupCommitLinger is emitted per daemon-driven batch flush with the
	// longest time any of the batch's records spent queued (Arg, in ns).
	GroupCommitLinger
	// Lock lease events (DESIGN.md section 13).  LeaseGrant and
	// LockEscalate are emitted at the storage site (Arg = leaseholder
	// site); LeaseRevoke when a lease is reclaimed by callback or expiry.
	LeaseGrant
	LeaseRevoke
	LockEscalate
	// Adaptive-placement events (DESIGN.md section 14).  OwnerMove is
	// emitted at the old primary when a file's ownership migrates (Arg =
	// new home site); RoutedCommit at the transaction's origin site when
	// its coordinator role is handed to the data's site (Arg = target).
	OwnerMove
	RoutedCommit
	// OwnerAdopt at the new home when a move's install commits (Arg = the
	// install's ID); OwnerPurge there when a move's install is refused, or
	// fails (Arg = the install's ID).
	OwnerAdopt
	OwnerPurge

	numEventTypes
)

var eventNames = [numEventTypes]string{
	TxnBegin:          "txn_begin",
	TxnCommit:         "txn_commit",
	TxnAbort:          "txn_abort",
	LockRequest:       "lock_request",
	LockGrant:         "lock_grant",
	LockWait:          "lock_wait",
	LockDeny:          "lock_deny",
	PageWrite:         "page_write",
	PageDiff:          "page_diff",
	LogForce:          "log_force",
	GroupCommitBatch:  "group_commit_batch",
	PrepareSent:       "prepare_sent",
	Voted:             "voted",
	CommitApplied:     "commit_applied",
	MsgSend:           "msg_send",
	MsgRecv:           "msg_recv",
	Migration:         "migration",
	CrashInject:       "crash_inject",
	Recovery:          "recovery",
	DeadlockVictim:    "deadlock_victim",
	VotedReadOnly:     "voted_read_only",
	OnePhaseCommit:    "one_phase_commit",
	GroupCommitLinger: "group_commit_linger",
	LeaseGrant:        "lease_grant",
	LeaseRevoke:       "lease_revoke",
	LockEscalate:      "lock_escalate",
	OwnerMove:         "owner_move",
	RoutedCommit:      "routed_commit",
	OwnerAdopt:        "owner_adopt",
	OwnerPurge:        "owner_purge",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "unknown"
}

// Event is one record in the causal log.
//
// Clock is the site's Lamport clock after the event; Seq is the site-local
// emission order (also the ring slot ordinal).  Txn names the transaction
// (empty for infrastructure events), Object the entity touched (a path,
// "vol#ino", a message op, a fault description).  Arg is event-specific:
// the destination site for MsgSend, the *sender's* clock for MsgRecv (so
// Clock > Arg asserts the Lamport property), byte counts or batch sizes
// elsewhere.  Wall is excluded from canonical serialization — it exists
// for human timelines and latency histograms only.
type Event struct {
	Seq    uint64
	Clock  uint64
	Site   int
	Type   EventType
	Txn    string
	Object string
	Arg    int64
	Wall   time.Time
}

// DefaultRingSize is the per-site ring capacity a Collector allocates
// unless told otherwise.  8192 events at ~100 bytes each keeps a busy
// chaos run's recent history under a megabyte per site.
const DefaultRingSize = 8192

// Tracer is a per-site event sink.  A nil *Tracer is valid and every
// method on it is a no-op costing one comparison — subsystems never need
// to guard their event sites.
type Tracer struct {
	site  int
	clock atomic.Uint64
	seq   atomic.Uint64
	mask  uint64
	ring  []atomic.Pointer[Event]
	// now stamps Event.Wall; nil means time.Now.  A virtual clock
	// installs its own source so wall ordering and the phase-latency
	// histograms read in simulated time.
	now func() time.Time
}

// NewTracer builds a standalone tracer for site id with the given ring
// capacity (rounded up to a power of two; minimum 16).  Most callers go
// through Collector.Site instead.
func NewTracer(site, ringSize int) *Tracer {
	n := 16
	for n < ringSize {
		n <<= 1
	}
	return &Tracer{site: site, mask: uint64(n - 1), ring: make([]atomic.Pointer[Event], n)}
}

// Site reports the site id this tracer stamps, -1 for nil.
func (t *Tracer) Site() int {
	if t == nil {
		return -1
	}
	return t.site
}

// Clock reports the current Lamport clock value, 0 for nil.
func (t *Tracer) Clock() uint64 {
	if t == nil {
		return 0
	}
	return t.clock.Load()
}

func (t *Tracer) emit(clock uint64, typ EventType, txn, object string, arg int64) {
	seq := t.seq.Add(1) - 1
	wall := time.Now()
	if t.now != nil {
		wall = t.now()
	}
	ev := &Event{
		Seq:    seq,
		Clock:  clock,
		Site:   t.site,
		Type:   typ,
		Txn:    txn,
		Object: object,
		Arg:    arg,
		Wall:   wall,
	}
	t.ring[seq&t.mask].Store(ev)
}

// Record appends one event, ticking the Lamport clock.  No-op on nil.
func (t *Tracer) Record(typ EventType, txn, object string, arg int64) {
	if t == nil {
		return
	}
	t.emit(t.clock.Add(1), typ, txn, object, arg)
}

// MsgSend records a message departure and returns the Lamport clock
// stamped on it; the caller carries that value to the receiving site.
// Returns 0 on nil — receivers treat a zero stamp as "no tracing".
func (t *Tracer) MsgSend(op, txn string, to int) uint64 {
	if t == nil {
		return 0
	}
	c := t.clock.Add(1)
	t.emit(c, MsgSend, txn, op, int64(to))
	return c
}

// MsgRecv merges the sender's clock into the local one (Lamport receive
// rule: clock = max(local, sent) + 1) and records the arrival with
// Arg = sent, so Clock > Arg holds for every MsgRecv event.  No-op on nil.
func (t *Tracer) MsgRecv(op, txn string, sent uint64) {
	if t == nil {
		return
	}
	var c uint64
	for {
		cur := t.clock.Load()
		c = cur
		if sent > c {
			c = sent
		}
		c++
		if t.clock.CompareAndSwap(cur, c) {
			break
		}
	}
	t.emit(c, MsgRecv, txn, op, int64(sent))
}

// Events returns the surviving ring contents in site-local emission
// order: ascending Seq.  (Record draws the Lamport clock and the ring
// sequence from separate atomics, so under concurrent recorders Clock
// order may disagree with Seq order; the Collector's merge re-sorts
// causally.)  Safe to call concurrently with Record; an event
// overwritten mid-scan appears with its newer sequence.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.ring))
	for i := range t.ring {
		if ev := t.ring[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Collector owns the per-site tracers for one cluster run and merges
// their rings into a single causally-ordered trace.  A nil *Collector is
// valid: Site returns a nil *Tracer and every query returns nothing.
type Collector struct {
	ringSize int

	mu      sync.Mutex
	now     func() time.Time
	tracers map[int]*Tracer
}

// SetNow installs the timestamp source handed to every tracer, existing
// and future (nil restores time.Now).  Call before the run starts: the
// cluster wires its clock here so a virtual-time run's Wall stamps, and
// the latency histograms derived from them, read in simulated time.
func (c *Collector) SetNow(now func() time.Time) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = now
	for _, t := range c.tracers {
		t.now = now
	}
}

// NewCollector builds a collector whose tracers use the given ring size
// (0 means DefaultRingSize).
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{ringSize: ringSize, tracers: make(map[int]*Tracer)}
}

// Site returns the tracer for site id, creating it on first use.
// Returns nil when the collector itself is nil, so wiring code can pass
// cfg.Trace.Site(id) unconditionally.
func (c *Collector) Site(id int) *Tracer {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tracers[id]
	if t == nil {
		t = NewTracer(id, c.ringSize)
		t.now = c.now
		c.tracers[id] = t
	}
	return t
}

// Events merges every site ring into one causally-ordered slice:
// ascending (Clock, Site, Seq).  Lamport clocks guarantee that if event
// a happened-before event b, a sorts first; concurrent events tie-break
// deterministically by site then sequence.
func (c *Collector) Events() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	tracers := make([]*Tracer, 0, len(c.tracers))
	for _, t := range c.tracers {
		tracers = append(tracers, t)
	}
	c.mu.Unlock()

	var out []Event
	for _, t := range tracers {
		out = append(out, t.Events()...)
	}
	sortEvents(out)
	return out
}

// LastTouching returns (in causal order) the last n events related to
// object: events naming it directly, plus events of any transaction that
// touched it — the forensics slice the chaos audit attaches to a failed
// invariant.
func (c *Collector) LastTouching(object string, n int) []Event {
	if c == nil || n <= 0 {
		return nil
	}
	all := c.Events()
	txns := make(map[string]bool)
	for _, ev := range all {
		if ev.Object == object && ev.Txn != "" {
			txns[ev.Txn] = true
		}
	}
	var related []Event
	for _, ev := range all {
		if ev.Object == object || (ev.Txn != "" && txns[ev.Txn]) {
			related = append(related, ev)
		}
	}
	if len(related) > n {
		related = related[len(related)-n:]
	}
	return related
}

// sortEvents orders a merged slice by (Clock, Site, Seq): causal order
// with a deterministic tie-break for concurrent events.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Clock != b.Clock {
			return a.Clock < b.Clock
		}
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return a.Seq < b.Seq
	})
}
