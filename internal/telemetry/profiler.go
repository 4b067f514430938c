package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Named resources the commit critical-path profiler attributes simulated
// latency to.  Leaf resources are charged directly at the subsystem that
// spends the time; window spans are measured around whole protocol
// phases at the coordinator, and the report derives network transit and
// coordinator queueing from the difference between a window and the
// leaf work inside it.
const (
	// ResLockWait is time a transaction's process spent parked in a
	// lock manager wait queue (charged by lockmgr at grant).
	ResLockWait = "lock_wait"
	// ResCoordLog is coordinator log-record forces: the commit record
	// write, the commit-point flip and the post-outcome deletion.
	ResCoordLog = "coord_log"
	// ResDataFlush is the participant's modified-page flush during
	// prepare (shadow-page writes ahead of the intentions list).
	ResDataFlush = "data_flush"
	// ResPrepareForce is the participant's prepare-record force,
	// including any group-commit linger and spindle queueing.
	ResPrepareForce = "prepare_force"
	// ResPhase2Apply is the participant's phase-two work: applying the
	// outcome, deleting prepare records, releasing retained locks.
	ResPhase2Apply = "phase2_apply"
	// ResOnePhaseApply is the one-phase fast path's apply+finish work,
	// which happens inside the single prepare exchange.
	ResOnePhaseApply = "onephase_apply"
	// ResNetworkTransit is derived: window time not accounted for by
	// participant-side leaf charges, i.e. message transit.
	ResNetworkTransit = "network_transit"
	// ResCoordQueue is derived: commit-window time outside the prepare
	// and phase-two windows and the coordinator's own log forces —
	// coordinator bookkeeping and queueing.
	ResCoordQueue = "coordinator_queue"
	// ResStoreQueue is derived: op-window time not accounted for by
	// lock-queue waits — the process blocked on the storage site's
	// per-file structures (most often the shadow-page table held by a
	// committing transaction's flush) or other site-side serialization.
	ResStoreQueue = "store_queue"
	// ResUnattributed is the residual no named resource claims.
	ResUnattributed = "unattributed"

	// WinCommit spans EndTrans hand-off to outcome at the coordinator.
	WinCommit = "commit"
	// WinPrepare spans the prepare fan-out (first send to last vote).
	WinPrepare = "prepare"
	// WinPhase2 spans the synchronous phase-two fan-out.
	WinPhase2 = "phase2"
	// WinOp spans individual pre-commit file operations (lock, read,
	// write) at the requesting process, accumulating across the
	// transaction.  Lock-queue waits inside it are charged separately by
	// the lock manager; the rest is ResStoreQueue.
	WinOp = "op"
)

// txnProfile accumulates one transaction's spans and charges.
type txnProfile struct {
	begin     time.Time
	end       time.Time
	ended     bool
	committed bool
	charges   map[string]time.Duration
	windows   map[string]time.Duration
}

// Profiler attributes each transaction's simulated latency to named
// resources.  One instance serves a whole cluster (it hangs off the
// shared registry), so coordinator windows and participant leaf charges
// for the same txid accumulate in one place.  A nil *Profiler is valid
// and every method is a no-op costing one comparison.
type Profiler struct {
	mu   sync.Mutex
	txns map[string]*txnProfile
}

// NewProfiler creates an empty profiler.  Most callers go through
// Registry.EnableProfiling instead.
func NewProfiler() *Profiler {
	return &Profiler{txns: make(map[string]*txnProfile)}
}

func (p *Profiler) get(txid string) *txnProfile {
	t := p.txns[txid]
	if t == nil {
		t = &txnProfile{
			charges: make(map[string]time.Duration),
			windows: make(map[string]time.Duration),
		}
		p.txns[txid] = t
	}
	return t
}

// TxnBegin stamps the transaction's start.  No-op on nil or empty txid.
func (p *Profiler) TxnBegin(txid string, at time.Time) {
	if p == nil || txid == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.get(txid)
	if t.begin.IsZero() {
		t.begin = at
	}
}

// TxnEnd stamps the transaction's outcome.  The first call wins (an
// abort racing a commit keeps the earlier verdict).  No-op on nil.
func (p *Profiler) TxnEnd(txid string, at time.Time, committed bool) {
	if p == nil || txid == "" {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	t := p.get(txid)
	if t.ended {
		return
	}
	t.ended = true
	t.end = at
	t.committed = committed
}

// Charge attributes d of the transaction's latency to a leaf resource.
// No-op on nil, empty txid, non-positive d, or a transaction already
// ended: work its outcome no longer waits for (an asynchronous phase two,
// a read-only transaction's release) is no part of its latency.
func (p *Profiler) Charge(txid, resource string, d time.Duration) {
	if p == nil || txid == "" || d <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.get(txid); !t.ended {
		t.charges[resource] += d
	}
}

// Window records a measured protocol-phase span (WinCommit, WinPrepare,
// WinPhase2).  Spans accumulate (retries extend the window); like
// Charge, it is a no-op once the transaction ended.
func (p *Profiler) Window(txid, name string, d time.Duration) {
	if p == nil || txid == "" || d <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if t := p.get(txid); !t.ended {
		t.windows[name] += d
	}
}

// TxnAttribution is one committed transaction's latency broken down by
// resource.
type TxnAttribution struct {
	Txid       string
	Total      time.Duration
	Resources  map[string]time.Duration
	Attributed float64 // fraction of Total claimed by named resources
}

// ResourceStat aggregates one resource across every committed txn.
type ResourceStat struct {
	Resource string  `json:"resource"`
	TotalNS  int64   `json:"total_ns"`
	Share    float64 `json:"share"` // of summed committed latency
}

// ProfileReport is the profiler's aggregate view.
type ProfileReport struct {
	Committed          int            `json:"committed"`
	Aborted            int            `json:"aborted"`
	TotalLatencyNS     int64          `json:"total_latency_ns"`
	AttributedNS       int64          `json:"attributed_ns"`
	UnattributedNS     int64          `json:"unattributed_ns"`
	AttributedFraction float64        `json:"attributed_fraction"`
	MinTxnAttributed   float64        `json:"min_txn_attributed"`
	Dominant           string         `json:"dominant"`
	Resources          []ResourceStat `json:"resources"`

	txns []TxnAttribution
}

// Txns returns the per-transaction attributions behind the aggregate
// (committed transactions only, sorted by txid).  Excluded from the
// JSON form: aggregates are scheduler-invariant for symmetric
// workloads, individual txid assignments are not.
func (r *ProfileReport) Txns() []TxnAttribution { return r.txns }

// attribute decomposes one finished transaction.
func attribute(t *txnProfile) (map[string]time.Duration, time.Duration) {
	total := t.end.Sub(t.begin)
	if total < 0 {
		total = 0
	}
	c := t.charges
	res := map[string]time.Duration{}
	add := func(name string, d time.Duration) {
		if d > 0 {
			res[name] = d
		}
	}
	prepLeaf := c[ResDataFlush] + c[ResPrepareForce] + c[ResOnePhaseApply]
	add(ResLockWait, c[ResLockWait])
	add(ResCoordLog, c[ResCoordLog])
	add(ResDataFlush, c[ResDataFlush])
	add(ResPrepareForce, c[ResPrepareForce])
	add(ResOnePhaseApply, c[ResOnePhaseApply])
	net := t.windows[WinPrepare] - prepLeaf
	if net < 0 {
		net = 0
	}
	// Phase-two participant work counts toward latency only when the
	// coordinator drove it synchronously (a window exists); async
	// deliveries happen off the transaction's critical path.
	if w2 := t.windows[WinPhase2]; w2 > 0 {
		p2 := c[ResPhase2Apply]
		if p2 > w2 {
			p2 = w2
		}
		add(ResPhase2Apply, p2)
		net += w2 - p2
	}
	add(ResNetworkTransit, net)
	storeq := t.windows[WinOp] - c[ResLockWait]
	if storeq < 0 {
		storeq = 0
	}
	add(ResStoreQueue, storeq)
	coordq := t.windows[WinCommit] - t.windows[WinPrepare] - t.windows[WinPhase2] - c[ResCoordLog]
	if coordq < 0 {
		coordq = 0
	}
	add(ResCoordQueue, coordq)
	return res, total
}

// Report computes the aggregate attribution over every finished
// transaction.  Deterministic: resources and transactions sort by name.
func (p *Profiler) Report() *ProfileReport {
	r := &ProfileReport{}
	if p == nil {
		return r
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	totals := map[string]time.Duration{}
	ids := make([]string, 0, len(p.txns))
	for id, t := range p.txns {
		if t.ended && !t.begin.IsZero() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	r.MinTxnAttributed = 1
	for _, id := range ids {
		t := p.txns[id]
		if !t.committed {
			r.Aborted++
			continue
		}
		r.Committed++
		res, total := attribute(t)
		var claimed time.Duration
		for name, d := range res {
			totals[name] += d
			claimed += d
		}
		frac := 1.0
		if total > 0 {
			if claimed > total {
				claimed = total // parallel fan-out can over-claim; cap
			}
			frac = float64(claimed) / float64(total)
			res[ResUnattributed] = total - claimed
			totals[ResUnattributed] += total - claimed
		}
		r.TotalLatencyNS += total.Nanoseconds()
		r.AttributedNS += claimed.Nanoseconds()
		if frac < r.MinTxnAttributed {
			r.MinTxnAttributed = frac
		}
		r.txns = append(r.txns, TxnAttribution{Txid: id, Total: total, Resources: res, Attributed: frac})
	}
	r.UnattributedNS = totals[ResUnattributed].Nanoseconds()
	if r.TotalLatencyNS > 0 {
		r.AttributedFraction = float64(r.AttributedNS) / float64(r.TotalLatencyNS)
	} else {
		r.AttributedFraction = 1
	}
	names := make([]string, 0, len(totals))
	for name := range totals {
		names = append(names, name)
	}
	sort.Strings(names)
	var maxNS int64
	for _, name := range names {
		ns := totals[name].Nanoseconds()
		stat := ResourceStat{Resource: name, TotalNS: ns}
		if r.TotalLatencyNS > 0 {
			stat.Share = float64(ns) / float64(r.TotalLatencyNS)
		}
		r.Resources = append(r.Resources, stat)
		if name != ResUnattributed && ns > maxNS {
			maxNS = ns
			r.Dominant = name
		}
	}
	return r
}

// MarshalJSON renders the report canonically (resources are already
// sorted; float shares format deterministically for equal inputs).
func (r *ProfileReport) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"committed":%d,"aborted":%d,"total_latency_ns":%d,"attributed_ns":%d,"unattributed_ns":%d,`,
		r.Committed, r.Aborted, r.TotalLatencyNS, r.AttributedNS, r.UnattributedNS)
	fmt.Fprintf(&buf, `"attributed_fraction":%.6f,"min_txn_attributed":%.6f,"dominant":%q,"resources":[`,
		r.AttributedFraction, r.MinTxnAttributed, r.Dominant)
	for i, s := range r.Resources {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"resource":%q,"total_ns":%d,"share":%.6f}`, s.Resource, s.TotalNS, s.Share)
	}
	buf.WriteString("]}")
	return buf.Bytes(), nil
}

// Summary renders a one-screen human view of the report.
func (r *ProfileReport) Summary() string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "critical path: %d committed, %d aborted, %.1f%% of latency attributed (worst txn %.1f%%)\n",
		r.Committed, r.Aborted, 100*r.AttributedFraction, 100*r.MinTxnAttributed)
	if r.Dominant != "" {
		fmt.Fprintf(&buf, "dominant resource: %s\n", r.Dominant)
	}
	for _, s := range r.Resources {
		fmt.Fprintf(&buf, "  %-18s %12s  %5.1f%%\n", s.Resource, time.Duration(s.TotalNS), 100*s.Share)
	}
	return buf.String()
}
