// Package simnet is the lightweight kernel-to-kernel message layer of the
// Locus reproduction.
//
// Locus relied on special-purpose lightweight network protocols rather
// than a general transport; remote operations in the paper cost roughly
// one small-message round trip (~16-18 ms on the 1985 testbed).  simnet
// models exactly that: named request/response operations between site
// kernels, with configurable one-way latency, probabilistic message loss,
// site crashes, and network partitions.  Topology changes (a site crash or
// partition) are announced to watchers, which is how the transaction
// mechanism learns it must abort transactions that span a lost site
// (section 4.3).
//
// Payloads are passed by value in-process; anything placed in a message
// must be treated as immutable by both sides.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// SiteID names a network site (a machine running a Locus kernel).
type SiteID int

// String renders the site as "siteN".  Trace and error labels ask for it
// several times per transaction, so the names of small ids are built once.
func (s SiteID) String() string {
	if s >= 0 && int(s) < len(siteNames) {
		return siteNames[s]
	}
	return "site" + strconv.Itoa(int(s))
}

var siteNames = func() (names [64]string) {
	for i := range names {
		names[i] = "site" + strconv.Itoa(i)
	}
	return names
}()

// Handler processes one inbound request and returns a response or error.
// Handlers run concurrently; shared state must be synchronized.
type Handler func(from SiteID, req any) (any, error)

// Errors returned by message operations.
var (
	ErrUnknownSite = errors.New("simnet: unknown site")
	ErrUnreachable = errors.New("simnet: site unreachable")
	ErrTimeout     = errors.New("simnet: request timed out")
	ErrNoHandler   = errors.New("simnet: no handler for operation")
	ErrNetClosed   = errors.New("simnet: network closed")

	// ErrNoReply is what a handler returns to send no response at all: a
	// kernel that died under the request.  The caller sees a lost message.
	ErrNoReply = errors.New("simnet: no reply")
)

// RemoteError wraps an error returned by a remote handler so the caller
// can distinguish transport failures from application failures.  The
// original error is preserved (messages travel in-process), so errors.Is
// and errors.As see through the network boundary, mirroring how Locus
// returned typed failure codes in its lightweight protocol.
type RemoteError struct {
	Op   string
	Site SiteID
	Err  error
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("simnet: remote %s at %s: %v", e.Op, e.Site, e.Err)
}

// Unwrap exposes the remote handler's error to errors.Is/As.
func (e *RemoteError) Unwrap() error { return e.Err }

// TopologyEventKind classifies a topology change.
type TopologyEventKind int

// Topology change kinds.
const (
	SiteDown TopologyEventKind = iota
	SiteUp
	Partitioned
	Healed
)

// String names the event kind.
func (k TopologyEventKind) String() string {
	switch k {
	case SiteDown:
		return "site-down"
	case SiteUp:
		return "site-up"
	case Partitioned:
		return "partitioned"
	case Healed:
		return "healed"
	}
	return fmt.Sprintf("topology(%d)", int(k))
}

// TopologyEvent describes a change in network topology.
type TopologyEvent struct {
	Kind  TopologyEventKind
	Sites []SiteID // sites affected (down/up) or in the minority side
}

// Sizer may be implemented by payloads to report their wire size; payloads
// without it are charged smallMsgBytes.
type Sizer interface {
	WireSize() int
}

const smallMsgBytes = 64

// Config controls network behaviour.  The zero value gives a reliable
// zero-latency network, which keeps unit tests deterministic.
type Config struct {
	// Latency is the one-way transit delay applied to every message.
	Latency time.Duration
	// DropRate is the probability in [0,1) that any single message is
	// silently lost.
	DropRate float64
	// DupRate is the probability in [0,1) that a delivered message is
	// delivered twice.  Handlers must be idempotent under duplication -
	// the paper leans on temporally-unique transaction ids for exactly
	// this (section 4.4); the chaos engine spikes DupRate to prove it.
	DupRate float64
	// CallTimeout bounds how long a Call waits for a response.  Zero
	// means a generous default (2s real time).
	CallTimeout time.Duration
	// Seed seeds the drop generator; zero means a fixed default so runs
	// are reproducible.
	Seed int64
	// RetryAttempts is the default try count for CallRetry when the
	// caller passes attempts <= 0.  Zero means 4.
	RetryAttempts int
	// RetryBase is the first CallRetry backoff interval; each retry
	// doubles it up to RetryCap, with seeded jitter in [d/2, d).  Zero
	// means 2ms.
	RetryBase time.Duration
	// RetryCap bounds the exponential CallRetry backoff.  Zero means
	// 100ms.
	RetryCap time.Duration
	// Clock supplies latency waits and call timeouts.  Nil means the
	// real-time clock (today's wall-clock behaviour).  With a virtual
	// clock, transit latency and timeouts become simulated-time
	// arithmetic: calls run inline on the caller with deterministic
	// message-loss draws, and a lost message costs exactly CallTimeout
	// of simulated time instead of a wall-clock wait.
	Clock vtime.Clock
}

// FaultFilter inspects an outbound message and returns true to drop it.
// It runs under the network lock and must not call back into the network.
// The chaos engine and protocol tests use it for surgical, deterministic
// message loss (e.g. "drop every commit2 to site 1").
type FaultFilter func(from, to SiteID, op string) bool

// Network connects a set of site endpoints.
type Network struct {
	st    *stats.Set
	clock vtime.Clock
	// transitNS totals simulated one-way transit time across delivered
	// message legs; the per-pair "net_inflight:a->b" gauges count legs
	// currently in the air, so a utilization sample shows which links a
	// quiescent instant has traffic on.
	transitNS *telemetry.Counter

	mu  sync.Mutex
	cfg Config
	rng *rand.Rand
	// seed is the resolved Config.Seed; backoffFor hashes it per call so
	// retry jitter never draws from the shared rng stream (whose draw
	// order depends on goroutine interleaving under the real clock).
	seed     int64
	sites    map[SiteID]*Endpoint
	group    map[SiteID]int             // partition group; all 0 when healed
	blocked  map[SiteID]map[SiteID]bool // one-way link cuts: blocked[from][to]
	filter   FaultFilter
	watchers []func(TopologyEvent)
	closed   bool

	linkMu sync.Mutex
	links  map[[2]SiteID]linkStats
}

// New creates a network charging message events to st (may be nil).
func New(cfg Config, st *stats.Set) *Network {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 2 * time.Second
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 4
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 2 * time.Millisecond
	}
	if cfg.RetryCap <= 0 {
		cfg.RetryCap = 100 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = vtime.Real()
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x10c5 // fixed default for reproducibility
	}
	return &Network{
		st:        st,
		transitNS: st.Registry().Counter("net_transit_ns"),
		clock:     cfg.Clock,
		cfg:       cfg,
		seed:      seed,
		rng:       rand.New(rand.NewSource(seed)),
		sites:     make(map[SiteID]*Endpoint),
		links:     make(map[[2]SiteID]linkStats),
		group:     make(map[SiteID]int),
		blocked:   make(map[SiteID]map[SiteID]bool),
	}
}

// AddSite registers a site and returns its endpoint.  Adding an existing
// site returns the existing endpoint.
func (n *Network) AddSite(id SiteID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if e, ok := n.sites[id]; ok {
		return e
	}
	e := &Endpoint{id: id, net: n, handlers: make(map[string]Handler)}
	e.up.Store(true)
	n.sites[id] = e
	n.group[id] = 0
	return e
}

// Sites returns the registered site IDs in unspecified order.
func (n *Network) Sites() []SiteID {
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]SiteID, 0, len(n.sites))
	for id := range n.sites {
		ids = append(ids, id)
	}
	return ids
}

// Endpoint returns the endpoint for a site, or nil if unknown.
func (n *Network) Endpoint(id SiteID) *Endpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sites[id]
}

// Watch registers a callback invoked (on its own goroutine) for every
// topology change.
func (n *Network) Watch(fn func(TopologyEvent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, fn)
}

// notify must be called with n.mu held.  Watchers run as clock actors
// so a virtual clock cannot advance past their reactions.
func (n *Network) notify(ev TopologyEvent) {
	for _, w := range n.watchers {
		w := w
		n.clock.Go(func() { w(ev) })
	}
}

// SetLatency changes the one-way message latency.
func (n *Network) SetLatency(d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Latency = d
}

// SetDropRate changes the message loss probability.
func (n *Network) SetDropRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DropRate = p
}

// SetDupRate changes the duplicate-delivery probability.
func (n *Network) SetDupRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.DupRate = p
}

// SetFaultFilter installs (or, with nil, removes) a message-drop filter.
// Filtered messages are lost exactly as probabilistic drops are: callers
// time out, one-way sends vanish.
func (n *Network) SetFaultFilter(f FaultFilter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filter = f
}

// CrashSite takes a site offline: its handlers stop running and messages
// to it fail.  Watchers are notified with SiteDown.
func (n *Network) CrashSite(id SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.sites[id]
	if e == nil || !e.up.Load() {
		return
	}
	e.up.Store(false)
	n.notify(TopologyEvent{Kind: SiteDown, Sites: []SiteID{id}})
}

// RestartSite brings a crashed site back online.  Watchers are notified
// with SiteUp; higher layers run their recovery protocols in response.
func (n *Network) RestartSite(id SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.sites[id]
	if e == nil || e.up.Load() {
		return
	}
	e.up.Store(true)
	n.notify(TopologyEvent{Kind: SiteUp, Sites: []SiteID{id}})
}

// SiteUp reports whether the site is online.
func (n *Network) SiteUp(id SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.sites[id]
	return e != nil && e.up.Load()
}

// Partition splits the network so that the given sites form their own
// partition; everyone else remains in the majority partition.  Messages
// across the cut are dropped.  Watchers are notified with Partitioned.
func (n *Network) Partition(minority ...SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range minority {
		if _, ok := n.group[id]; ok {
			n.group[id] = 1
		}
	}
	n.notify(TopologyEvent{Kind: Partitioned, Sites: append([]SiteID(nil), minority...)})
}

// BlockLink cuts the one-way link from -> to: messages in that direction
// are lost while the reverse direction still works, modelling asymmetric
// partitions (a failure mode symmetric Partition cannot express).
// Watchers are notified with Partitioned, since the failure detector
// reports any topology change (section 4.3).
func (n *Network) BlockLink(from, to SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m := n.blocked[from]
	if m == nil {
		m = make(map[SiteID]bool)
		n.blocked[from] = m
	}
	if m[to] {
		return
	}
	m[to] = true
	n.notify(TopologyEvent{Kind: Partitioned, Sites: []SiteID{from, to}})
}

// UnblockLink restores the one-way link from -> to.  Heal also clears all
// link blocks.
func (n *Network) UnblockLink(from, to SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m := n.blocked[from]; m != nil && m[to] {
		delete(m, to)
		n.notify(TopologyEvent{Kind: Healed, Sites: []SiteID{from, to}})
	}
}

// Heal removes all partitions and one-way link blocks.  Watchers are
// notified with Healed.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for id := range n.group {
		n.group[id] = 0
	}
	n.blocked = make(map[SiteID]map[SiteID]bool)
	n.notify(TopologyEvent{Kind: Healed})
}

// Reachable reports whether a message from a would currently reach b:
// both sites up, in the same partition, and the a -> b link not blocked.
func (n *Network) Reachable(a, b SiteID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.reachableLocked(a, b)
}

func (n *Network) reachableLocked(a, b SiteID) bool {
	ea, eb := n.sites[a], n.sites[b]
	if ea == nil || eb == nil || !ea.up.Load() || !eb.up.Load() {
		return false
	}
	if n.blocked[a][b] {
		return false
	}
	return n.group[a] == n.group[b]
}

// Close shuts the network down; subsequent calls fail with ErrNetClosed.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
}

// payloadSize estimates the wire size of a payload.
func payloadSize(p any) int {
	if s, ok := p.(Sizer); ok {
		if n := s.WireSize(); n > 0 {
			return n
		}
	}
	return smallMsgBytes
}

// linkStats is the telemetry of one directed site pair: messages sent
// and legs currently in the air.
type linkStats struct {
	msgs     *telemetry.Counter
	inflight *telemetry.Gauge
}

// link returns the directed pair's handles.  They are born - and their
// names built - on the pair's first message and cached for the rest;
// without a registry they are nil-safe no-ops.
func (n *Network) link(from, to SiteID) linkStats {
	key := [2]SiteID{from, to}
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	l, ok := n.links[key]
	if !ok {
		pair := from.String() + "->" + to.String()
		reg := n.st.Registry()
		l = linkStats{msgs: reg.Counter("net_msgs:" + pair), inflight: reg.Gauge("net_inflight:" + pair)}
		n.links[key] = l
	}
	return l
}

// sendResp stamps the response leg of op on the replying site's tracer,
// building the ":resp" label only when a tracer is attached.
func (e *Endpoint) sendResp(op string, to SiteID) uint64 {
	tr := e.tr.Load()
	if tr == nil {
		return 0
	}
	return tr.MsgSend(op+":resp", "", int(to))
}

// Endpoint is one site's attachment to the network.
type Endpoint struct {
	id  SiteID
	net *Network

	// up is atomic: the network flips it under its own mutex while
	// handler dispatch checks it under the endpoint's.
	up atomic.Bool

	// tr is the site's event tracer; nil (the common case) costs one
	// atomic load per message leg.  Atomic so SetTracer needs no lock.
	tr atomic.Pointer[trace.Tracer]

	mu       sync.Mutex
	handlers map[string]Handler
}

// ID returns the endpoint's site ID.
func (e *Endpoint) ID() SiteID { return e.id }

// SetTracer attaches an event tracer; message sends and receipts are
// stamped with its Lamport clock.  A nil tracer disables tracing.
func (e *Endpoint) SetTracer(t *trace.Tracer) { e.tr.Store(t) }

// Tracer returns the attached tracer, nil if tracing is disabled.
func (e *Endpoint) Tracer() *trace.Tracer { return e.tr.Load() }

// Handle registers the handler for an operation name, replacing any
// previous handler.
func (e *Endpoint) Handle(op string, h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[op] = h
}

// handler returns the handler for op if the endpoint is up.
func (e *Endpoint) handler(op string) (Handler, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.up.Load() {
		return nil, ErrUnreachable
	}
	h, ok := e.handlers[op]
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", ErrNoHandler, op, e.id)
	}
	return h, nil
}

type callResult struct {
	resp  any
	err   error
	clock uint64 // responder's Lamport send stamp, 0 when untraced
}

// Call performs a synchronous request/response exchange with the remote
// site: one lightweight message each way.  It fails with ErrUnreachable if
// the destination is down or partitioned away, ErrTimeout if a message was
// lost or the handler sent no reply (ErrNoReply), and *RemoteError if the
// remote handler returned an error.
//
// Calling a site's own endpoint is allowed and models a local kernel
// operation: the handler runs directly with no messages charged.
func (e *Endpoint) Call(to SiteID, op string, req any) (any, error) {
	n := e.net

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetClosed
	}
	if to == e.id {
		// Local operation: no network involved.
		n.mu.Unlock()
		h, err := e.handler(op)
		if err != nil {
			return nil, err
		}
		resp, err := h(e.id, req)
		if err == ErrNoReply {
			return nil, fmt.Errorf("%w: %s (%s)", ErrTimeout, e.id, op)
		}
		return resp, err
	}
	dst, ok := n.sites[to]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	if !n.reachableLocked(e.id, to) {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %s -> %s (%s)", ErrUnreachable, e.id, to, op)
	}
	latency := n.cfg.Latency
	timeout := n.cfg.CallTimeout
	dropReq := n.rng.Float64() < n.cfg.DropRate
	dropResp := n.rng.Float64() < n.cfg.DropRate
	dupReq := n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate
	if n.filter != nil {
		if n.filter(e.id, to, op) {
			dropReq = true
		}
		if n.filter(to, e.id, op) {
			dropResp = true
		}
	}
	n.mu.Unlock()

	n.st.Inc(stats.RPCs)
	n.st.Inc(stats.MsgsSent)
	n.st.Add(stats.BytesSent, int64(payloadSize(req)))
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	reqClock := e.tr.Load().MsgSend(op, "", int(to))
	n.link(e.id, to).msgs.Inc()

	if v, ok := vtime.AsVirtual(n.clock); ok {
		return e.callVirtual(v, dst, to, op, req, latency, timeout, dropReq, dropResp, dupReq, reqClock)
	}

	reqFlight := n.link(e.id, to).inflight
	reqFlight.Add(1)
	done := make(chan callResult, 1)
	go func() {
		if latency > 0 {
			n.clock.Sleep(latency)
		}
		reqFlight.Add(-1)
		n.transitNS.Add(latency.Nanoseconds())
		if dropReq {
			return // request lost; caller times out
		}
		// Re-check reachability at delivery time: a partition or crash
		// that happened in flight loses the message.
		if !n.Reachable(e.id, to) {
			return
		}
		h, err := dst.handler(op)
		if err != nil {
			done <- callResult{err: err}
			return
		}
		n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
		dst.tr.Load().MsgRecv(op, "", reqClock)
		resp, herr := h(e.id, req)
		if dupReq && n.Reachable(e.id, to) {
			// Duplicate delivery: the handler runs a second time with
			// the same payload; only the first response is returned.
			// Handlers must be idempotent (section 4.4).  The duplicate
			// is a distinct in-flight message, so it pays the same
			// delivery-time reachability check as the original - a
			// partition raised by the first invocation drops it.
			n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
			dst.tr.Load().MsgRecv(op, "", reqClock)
			h(e.id, req) //nolint:errcheck // duplicate's result discarded
		}
		if herr == ErrNoReply {
			return
		}

		// Response leg.
		n.st.Inc(stats.MsgsSent)
		n.st.Add(stats.BytesSent, int64(payloadSize(resp)))
		n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
		respClock := dst.sendResp(op, e.id)
		back := n.link(to, e.id)
		back.msgs.Inc()
		respFlight := back.inflight
		respFlight.Add(1)
		if latency > 0 {
			n.clock.Sleep(latency)
		}
		respFlight.Add(-1)
		n.transitNS.Add(latency.Nanoseconds())
		if dropResp || !n.Reachable(to, e.id) {
			return
		}
		if herr != nil {
			done <- callResult{err: &RemoteError{Op: op, Site: to, Err: herr}, clock: respClock}
			return
		}
		done <- callResult{resp: resp, clock: respClock}
	}()

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case r := <-done:
		if r.clock != 0 {
			e.tr.Load().MsgRecv(op+":resp", "", r.clock)
		}
		return r.resp, r.err
	case <-t.C:
		return nil, fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, e.id, to, op)
	}
}

// callVirtual is the discrete-event form of Call: the whole exchange
// runs inline on the caller's goroutine with transit latency charged as
// virtual Sleep, so no delivery goroutine or timer exists.  The fault
// draws were already taken (in the same order as the real path, so a
// seed behaves identically in both modes).  A lost message costs the
// caller exactly the remainder of its timeout in simulated time.  One
// deliberate divergence from the real path: the timeout fires only on
// message loss or in-flight unreachability, never merely because the
// handler was slow - the caller observes the handler's simulated
// duration instead.
func (e *Endpoint) callVirtual(v *vtime.Virtual, dst *Endpoint, to SiteID, op string, req any,
	latency, timeout time.Duration, dropReq, dropResp, dupReq bool, reqClock uint64) (any, error) {
	n := e.net
	start := v.Now()
	lost := func() (any, error) {
		if rem := timeout - v.Now().Sub(start); rem > 0 {
			v.Sleep(rem)
		}
		return nil, fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, e.id, to, op)
	}

	reqFlight := n.link(e.id, to).inflight
	reqFlight.Add(1)
	v.Sleep(latency)
	reqFlight.Add(-1)
	n.transitNS.Add(latency.Nanoseconds())
	if dropReq || !n.Reachable(e.id, to) {
		return lost()
	}
	h, err := dst.handler(op)
	if err != nil {
		return nil, err
	}
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	dst.tr.Load().MsgRecv(op, "", reqClock)
	resp, herr := h(e.id, req)
	if dupReq && n.Reachable(e.id, to) {
		n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
		dst.tr.Load().MsgRecv(op, "", reqClock)
		h(e.id, req) //nolint:errcheck // duplicate's result discarded
	}
	if herr == ErrNoReply {
		return lost()
	}

	// Response leg.
	n.st.Inc(stats.MsgsSent)
	n.st.Add(stats.BytesSent, int64(payloadSize(resp)))
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	respClock := dst.sendResp(op, e.id)
	back := n.link(to, e.id)
	back.msgs.Inc()
	respFlight := back.inflight
	respFlight.Add(1)
	v.Sleep(latency)
	respFlight.Add(-1)
	n.transitNS.Add(latency.Nanoseconds())
	if dropResp || !n.Reachable(to, e.id) {
		return lost()
	}
	if v.Now().Sub(start) >= timeout && timeout > 0 {
		// The response exists but arrived after the caller gave up -
		// same outcome as the real path's raced timer.
		return nil, fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, e.id, to, op)
	}
	if respClock != 0 {
		e.tr.Load().MsgRecv(op+":resp", "", respClock)
	}
	if herr != nil {
		return nil, &RemoteError{Op: op, Site: to, Err: herr}
	}
	return resp, nil
}

// backoffFor returns the pause before retry attempt (0-based) of the
// call (from, to, op): exponential from RetryBase, capped at RetryCap,
// with jitter in [d/2, d) derived by hashing the call's identity under
// the network seed.  The jitter is a pure function of its arguments, not
// a draw from the shared rng stream: two concurrent retriers decorrelate
// (different from/to/op/attempt hash differently) yet each retrier's
// pauses are identical on every same-seed run regardless of goroutine
// interleaving — the property the virtual clock's byte-identical traces
// depend on.
func (n *Network) backoffFor(from, to SiteID, op string, attempt int) time.Duration {
	n.mu.Lock()
	base, cap_ := n.cfg.RetryBase, n.cfg.RetryCap
	seed := n.seed
	n.mu.Unlock()
	d := base
	for k := 0; k < attempt && d < cap_; k++ {
		d *= 2
	}
	if d > cap_ {
		d = cap_
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	mix(uint64(seed))
	mix(uint64(from))
	mix(uint64(to))
	mix(uint64(attempt))
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= prime64
	}
	return half + time.Duration(h%uint64(half))
}

func (n *Network) retryAttempts() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.RetryAttempts
}

// CallRetry performs Call with up to attempts tries (attempts <= 0 means
// Config.RetryAttempts), retrying on timeouts and unreachability with
// bounded exponential backoff and seeded jitter (Config.RetryBase /
// RetryCap).  Remote application errors are returned immediately.
// Handlers invoked through CallRetry must therefore be idempotent - the
// paper leans on temporally-unique transaction IDs for exactly this
// (section 4.4: duplicate commit or abort messages are harmless).
func (e *Endpoint) CallRetry(to SiteID, op string, req any, attempts int) (any, error) {
	if attempts <= 0 {
		attempts = e.net.retryAttempts()
	}
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			e.net.clock.Sleep(e.net.backoffFor(e.id, to, op, i-1))
		}
		var resp any
		resp, err = e.Call(to, op, req)
		if err == nil {
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			return nil, err
		}
	}
	return nil, err
}

// Send delivers a one-way message with no response and no delivery
// confirmation.  It is used for the asynchronous phase-two commit
// messages of section 4.2.
func (e *Endpoint) Send(to SiteID, op string, req any) {
	n := e.net

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	dst, ok := n.sites[to]
	if !ok || !n.reachableLocked(e.id, to) {
		n.mu.Unlock()
		return
	}
	latency := n.cfg.Latency
	drop := n.rng.Float64() < n.cfg.DropRate
	dup := n.cfg.DupRate > 0 && n.rng.Float64() < n.cfg.DupRate
	if n.filter != nil && n.filter(e.id, to, op) {
		drop = true
	}
	n.mu.Unlock()

	n.st.Inc(stats.MsgsSent)
	n.st.Add(stats.BytesSent, int64(payloadSize(req)))
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	sendClock := e.tr.Load().MsgSend(op, "", int(to))
	out := n.link(e.id, to)
	out.msgs.Inc()
	inflight := out.inflight
	inflight.Add(1)

	n.clock.Go(func() {
		if latency > 0 {
			n.clock.Sleep(latency)
		}
		inflight.Add(-1)
		n.transitNS.Add(latency.Nanoseconds())
		if drop || !n.Reachable(e.id, to) {
			return
		}
		h, err := dst.handler(op)
		if err != nil {
			return
		}
		n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
		dst.tr.Load().MsgRecv(op, "", sendClock)
		h(e.id, req) //nolint:errcheck // one-way: result discarded
		if dup && n.Reachable(e.id, to) {
			// Same delivery-time reachability rule as Call's duplicate.
			n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
			dst.tr.Load().MsgRecv(op, "", sendClock)
			h(e.id, req) //nolint:errcheck // duplicate delivery; handlers are idempotent
		}
	})
}
