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
// It runs on the caller's actor, so the handlers of concurrent callers
// interleave wherever they park on the clock; shared state must be
// synchronized.
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
// without it, or reporting 0, are charged smallMsgBytes.  It is also what
// the typed exchange (Exchange, Serve) asks of its request and response
// types, which is how that exchange sizes a message without boxing it; a
// message of the default size embeds Small.
type Sizer interface {
	WireSize() int
}

const smallMsgBytes = 64

// Small gives the message type that embeds it the small-message default
// size.
type Small struct{}

// WireSize reports 0: the small-message default.
func (Small) WireSize() int { return 0 }

// wireSize is the bytes charged for a message reporting size n.
func wireSize(n int) int {
	if n > 0 {
		return n
	}
	return smallMsgBytes
}

// boxed carries an untyped payload through the typed exchange: Call and
// Handle are that exchange on boxed messages.
type boxed struct{ v any }

// WireSize is the payload's own size if it reports one.
func (b boxed) WireSize() int {
	if s, ok := b.v.(Sizer); ok {
		return s.WireSize()
	}
	return 0
}

// Config controls network behaviour.  The zero value gives a reliable
// zero-latency network, which keeps unit tests deterministic; message loss
// and duplication are set on the running network (SetDropRate,
// SetDupRate).
type Config struct {
	// Latency is the one-way transit delay applied to every message.
	Latency time.Duration
	// CallTimeout is how long a Call waits for a lost message before it
	// gives up, on the network's clock.  Zero means a generous default
	// (2s).
	CallTimeout time.Duration
	// Seed seeds the drop generator; zero means a fixed default so runs
	// are reproducible.
	Seed int64
	// Clock supplies transit latency and call timeouts as Sleeps; nil
	// means the real-time clock.  A call runs inline on its caller either
	// way (see Endpoint.Call).
	Clock vtime.Clock
}

// ExchangeRetry's schedule: up to retryAttempts tries, the pause before
// each retry doubling from retryBase up to retryCap.
const (
	retryAttempts = 4
	retryBase     = 2 * time.Millisecond
	retryCap      = 100 * time.Millisecond
)

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
	// dropRate is the probability in [0,1) that any single message is
	// silently lost; dupRate that a delivered request is delivered twice.
	// Handlers must be idempotent under duplication - the paper leans on
	// temporally-unique transaction ids for exactly this (section 4.4).
	dropRate, dupRate float64
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

	// linkMu serialises the birth of link handles (Endpoint.link).
	linkMu sync.Mutex
}

// New creates a network charging message events to st (may be nil).
func New(cfg Config, st *stats.Set) *Network {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 2 * time.Second
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
	e := &Endpoint{id: id, net: n, handlers: make(map[string]route)}
	e.up.Store(true)
	e.links.Store(new([]*linkStats))
	n.sites[id] = e
	n.group[id] = 0
	return e
}

// Watch registers a callback invoked, as an actor of its own on the
// network's clock, for every topology change.
func (n *Network) Watch(fn func(TopologyEvent)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.watchers = append(n.watchers, fn)
}

// notify must be called with n.mu held.  Watchers run as clock actors
// so a virtual clock cannot advance past their reactions; the returned
// group joins them.
func (n *Network) notify(ev TopologyEvent) *vtime.Group {
	g := vtime.NewGroup(n.clock)
	for _, w := range n.watchers {
		g.Go(func() { w(ev) })
	}
	return g
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
	n.dropRate = p
}

// SetDupRate changes the duplicate-delivery probability.
func (n *Network) SetDupRate(p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.dupRate = p
}

// SetFaultFilter installs (or, with nil, removes) a message-drop filter.
// Filtered messages are lost exactly as probabilistic drops are: callers
// time out.
func (n *Network) SetFaultFilter(f FaultFilter) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.filter = f
}

// CrashSite takes a site offline: its handlers stop running, messages to
// it fail, and its retries in progress make no further attempt.  Watchers
// are notified with SiteDown.
func (n *Network) CrashSite(id SiteID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e := n.sites[id]
	if e == nil || !e.up.Load() {
		return
	}
	e.up.Store(false)
	e.crashes.Add(1)
	e.down = n.notify(TopologyEvent{Kind: SiteDown, Sites: []SiteID{id}})
}

// RestartSite brings a crashed site back online once every reaction to
// its crash has finished, so none of them can undo what the new
// incarnation has already done.  Watchers are notified with SiteUp;
// higher layers run their recovery protocols in response.
func (n *Network) RestartSite(id SiteID) {
	n.mu.Lock()
	e := n.sites[id]
	if e == nil || e.up.Load() {
		n.mu.Unlock()
		return
	}
	down := e.down
	e.down = nil
	n.mu.Unlock()
	if down != nil {
		down.Wait()
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if e.up.Load() {
		return
	}
	e.up.Store(true)
	n.notify(TopologyEvent{Kind: SiteUp, Sites: []SiteID{id}})
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

// linkStats is the telemetry of one directed site pair: messages sent
// and legs currently in the air.
type linkStats struct {
	msgs     *telemetry.Counter
	inflight *telemetry.Gauge
}

// link returns the handles of the link from e to site to.  They are born -
// and their names built - on the pair's first message and cached on the
// sender for the rest, so a leg reads them with one atomic load; without a
// registry they are nil-safe no-ops.
func (e *Endpoint) link(to SiteID) *linkStats {
	if l := linkAt(*e.links.Load(), to); l != nil {
		return l
	}
	n := e.net
	n.linkMu.Lock()
	defer n.linkMu.Unlock()
	old := *e.links.Load()
	if l := linkAt(old, to); l != nil {
		return l
	}
	pair := e.id.String() + "->" + to.String()
	reg := n.st.Registry()
	l := &linkStats{msgs: reg.Counter("net_msgs:" + pair), inflight: reg.Gauge("net_inflight:" + pair)}
	if to >= 0 { // copy on write: a reader may hold the old slice
		grown := make([]*linkStats, max(len(old), int(to)+1))
		copy(grown, old)
		grown[to] = l
		e.links.Store(&grown)
	}
	return l
}

// linkAt is ls[to], or nil if ls holds no handles for to.
func linkAt(ls []*linkStats, to SiteID) *linkStats {
	if to < 0 || int(to) >= len(ls) {
		return nil
	}
	return ls[to]
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

	// links holds the handles of e's outgoing links by destination.
	links atomic.Pointer[[]*linkStats]

	// crashes counts the site's crashes; a retry stops once it moves
	// (ExchangeRetry).
	crashes atomic.Uint64
	// down joins the reactions to the site's last crash (CrashSite), which
	// RestartSite waits out; nil while up.
	down *vtime.Group

	mu       sync.Mutex
	handlers map[string]route
}

// route is an op's handler twice over: typed is a func(SiteID, Req) (Resp,
// error) of the types Serve registered it with (nil for Handle's), boxed
// the same handler on boxed payloads, so an untyped Call reaches a typed
// handler too.
type route struct {
	typed any
	boxed func(SiteID, boxed) (boxed, error)
}

// ID returns the endpoint's site ID.
func (e *Endpoint) ID() SiteID { return e.id }

// SetTracer attaches an event tracer; message sends and receipts are
// stamped with its Lamport clock.  A nil tracer disables tracing.
func (e *Endpoint) SetTracer(t *trace.Tracer) { e.tr.Store(t) }

// Handle registers the handler for an operation name, replacing any
// previous handler.  It is Serve on untyped payloads.
func (e *Endpoint) Handle(op string, h Handler) {
	e.setRoute(op, route{boxed: func(from SiteID, req boxed) (boxed, error) {
		resp, err := h(from, req.v)
		return boxed{resp}, err
	}})
}

// Serve registers the typed handler for an operation name, replacing any
// previous handler.  Exchange[Resp] with a request of type Req reaches it
// with no payload boxed; an untyped Call reaches it too, and gets an error
// if its payload is not a Req.
func Serve[Req, Resp Sizer](e *Endpoint, op string, h func(from SiteID, req Req) (Resp, error)) {
	e.setRoute(op, route{typed: h, boxed: func(from SiteID, req boxed) (boxed, error) {
		r, ok := req.v.(Req)
		if !ok {
			return boxed{}, fmt.Errorf("%w: %q at %s takes %T, not %T", ErrNoHandler, op, e.id, r, req.v)
		}
		resp, err := h(from, r)
		return boxed{resp}, err
	}})
}

func (e *Endpoint) setRoute(op string, r route) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handlers[op] = r
}

// handlerFor returns op's handler on Req and Resp if the endpoint is up.
func handlerFor[Req, Resp Sizer](e *Endpoint, op string) (func(SiteID, Req) (Resp, error), error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.up.Load() {
		return nil, ErrUnreachable
	}
	r, ok := e.handlers[op]
	if !ok {
		return nil, fmt.Errorf("%w: %q at %s", ErrNoHandler, op, e.id)
	}
	if h, ok := r.typed.(func(SiteID, Req) (Resp, error)); ok {
		return h, nil
	}
	if h, ok := any(r.boxed).(func(SiteID, Req) (Resp, error)); ok {
		return h, nil
	}
	var req Req
	var resp Resp
	return nil, fmt.Errorf("%w: %q at %s does not take %T to %T", ErrNoHandler, op, e.id, req, resp)
}

// Call performs a synchronous request/response exchange with the remote
// site: one lightweight message each way.  It fails with ErrUnreachable if
// the destination is down or partitioned away, ErrTimeout if a message was
// lost or the handler sent no reply (ErrNoReply), and *RemoteError if the
// remote handler returned an error.
//
// The exchange runs inline on the caller, on either clock: each transit
// leg is a Sleep of the network latency on the network's clock, and the
// handler runs between them.  A lost message costs the caller exactly
// CallTimeout.  A timeout follows only from a lost message, ErrNoReply,
// or an exchange that outlasted CallTimeout; in the last case the caller
// gets the error once the handler has returned, never while it runs.
//
// Calling a site's own endpoint is allowed and models a local kernel
// operation: the handler runs directly with no messages charged.
//
// Call is Exchange on untyped payloads.
func (e *Endpoint) Call(to SiteID, op string, req any) (any, error) {
	resp, err := Exchange[boxed](e, to, op, boxed{req})
	return resp.v, err
}

// Exchange is Call with the request and response moved by value, sized by
// their WireSize: the one exchange body, on the handler Serve registered
// for op with these types.
func Exchange[Resp, Req Sizer](e *Endpoint, to SiteID, op string, req Req) (Resp, error) {
	var none Resp
	n := e.net

	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return none, ErrNetClosed
	}
	if to == e.id {
		// Local operation: no network involved.
		n.mu.Unlock()
		h, err := handlerFor[Req, Resp](e, op)
		if err != nil {
			return none, err
		}
		resp, err := h(e.id, req)
		if err == ErrNoReply {
			return none, fmt.Errorf("%w: %s (%s)", ErrTimeout, e.id, op)
		}
		return resp, err
	}
	dst, ok := n.sites[to]
	if !ok {
		n.mu.Unlock()
		return none, fmt.Errorf("%w: %s", ErrUnknownSite, to)
	}
	if !n.reachableLocked(e.id, to) {
		n.mu.Unlock()
		return none, fmt.Errorf("%w: %s -> %s (%s)", ErrUnreachable, e.id, to, op)
	}
	latency := n.cfg.Latency
	timeout := n.cfg.CallTimeout
	dropReq := n.rng.Float64() < n.dropRate
	dropResp := n.rng.Float64() < n.dropRate
	dupReq := n.dupRate > 0 && n.rng.Float64() < n.dupRate
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
	n.st.Add(stats.BytesSent, int64(wireSize(req.WireSize())))
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	reqClock := e.tr.Load().MsgSend(op, "", int(to))
	out := e.link(to)
	out.msgs.Inc()

	clk := n.clock
	start := clk.Now()
	out.inflight.Add(1)
	clk.Sleep(latency)
	out.inflight.Add(-1)
	n.transitNS.Add(latency.Nanoseconds())
	// Reachability is re-checked at delivery: a partition or crash that
	// happened in flight loses the message.
	if dropReq || !n.Reachable(e.id, to) {
		return none, e.timedOut(start, timeout, to, op)
	}
	h, err := handlerFor[Req, Resp](dst, op)
	if err != nil {
		return none, err
	}
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	dst.tr.Load().MsgRecv(op, "", reqClock)
	resp, herr := h(e.id, req)
	if dupReq && n.Reachable(e.id, to) {
		// Duplicate delivery: the handler runs a second time with the same
		// payload; only the first response is returned.  Handlers must be
		// idempotent (section 4.4).  The duplicate is a distinct in-flight
		// message, so it pays the same delivery-time reachability check as
		// the original - a partition raised by the first invocation drops it.
		n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
		dst.tr.Load().MsgRecv(op, "", reqClock)
		h(e.id, req) //nolint:errcheck // duplicate's result discarded
	}
	if herr == ErrNoReply {
		return none, e.timedOut(start, timeout, to, op)
	}

	// Response leg.
	n.st.Inc(stats.MsgsSent)
	n.st.Add(stats.BytesSent, int64(wireSize(resp.WireSize())))
	n.st.Add(stats.Instructions, costmodel.InstrMsgHandling)
	respClock := dst.sendResp(op, e.id)
	back := dst.link(e.id)
	back.msgs.Inc()
	back.inflight.Add(1)
	clk.Sleep(latency)
	back.inflight.Add(-1)
	n.transitNS.Add(latency.Nanoseconds())
	if dropResp || !n.Reachable(to, e.id) || clk.Now().Sub(start) >= timeout {
		// Lost, or the response arrived after the caller gave up.
		return none, e.timedOut(start, timeout, to, op)
	}
	if respClock != 0 {
		e.tr.Load().MsgRecv(op+":resp", "", respClock)
	}
	if herr != nil {
		return none, &RemoteError{Op: op, Site: to, Err: herr}
	}
	return resp, nil
}

// timedOut is the caller's side of a lost exchange begun at start: it
// waits out what is left of the timeout, then gives up.
func (e *Endpoint) timedOut(start time.Time, timeout time.Duration, to SiteID, op string) error {
	clk := e.net.clock
	if rem := timeout - clk.Now().Sub(start); rem > 0 {
		clk.Sleep(rem)
	}
	return fmt.Errorf("%w: %s -> %s (%s)", ErrTimeout, e.id, to, op)
}

// backoffFor returns the pause before retry attempt (0-based) of the
// call (from, to, op): exponential from retryBase, capped at retryCap,
// with jitter in [d/2, d) derived by hashing the call's identity under
// the network seed.  The jitter is a pure function of its arguments, not
// a draw from the shared rng stream: two concurrent retriers decorrelate
// (different from/to/op/attempt hash differently) yet each retrier's
// pauses are identical on every same-seed run regardless of goroutine
// interleaving — the property the virtual clock's byte-identical traces
// depend on.
func (n *Network) backoffFor(from, to SiteID, op string, attempt int) time.Duration {
	d := retryBase
	for k := 0; k < attempt && d < retryCap; k++ {
		d *= 2
	}
	d = min(d, retryCap)
	half := d / 2
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
	mix(uint64(n.seed))
	mix(uint64(from))
	mix(uint64(to))
	mix(uint64(attempt))
	for i := 0; i < len(op); i++ {
		h ^= uint64(op[i])
		h *= prime64
	}
	return half + time.Duration(h%uint64(half))
}

// ExchangeRetry performs Exchange with up to four tries, retrying on
// timeouts and unreachability with bounded exponential backoff and seeded
// jitter.  Remote application errors are returned immediately.  Handlers
// reached through ExchangeRetry must therefore be idempotent - the paper
// leans on temporally-unique transaction IDs for exactly this (section
// 4.4: duplicate commit or abort messages are harmless).
//
// A retry ends with its sender: once the sending site has crashed since
// the call began, no further attempt is made.  A site failure loses all
// kernel memory, the retry's purpose with it; an attempt sent by the dead
// kernel after the site restarted would speak for an incarnation that no
// longer exists.
func ExchangeRetry[Resp, Req Sizer](e *Endpoint, to SiteID, op string, req Req) (Resp, error) {
	var none Resp
	var err error
	crashes := e.crashes.Load()
	for i := 0; i < retryAttempts; i++ {
		if i > 0 {
			e.net.clock.Sleep(e.net.backoffFor(e.id, to, op, i-1))
			if e.crashes.Load() != crashes {
				return none, err
			}
		}
		var resp Resp
		resp, err = Exchange[Resp](e, to, op, req)
		if err == nil {
			return resp, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			return none, err
		}
	}
	return none, err
}
