// Package vtime provides the clock abstraction behind the simulation
// substrate: a Clock interface with a real-time implementation (the
// default, preserving the paper-exact wall-clock behaviour byte for
// byte) and a deterministic discrete-event virtual implementation where
// latency is timestamp arithmetic instead of sleeping.
//
// # The virtual clock
//
// Virtual time never flows on its own, and neither does concurrency.
// Every goroutine that can touch the clock is a registered *actor*, and
// at most one actor runs at a time: the others are parked (Sleep,
// WaitRecv, Group.Wait, Mutex.Lock, ...) or ready, waiting their turn on
// the clock's run queue.  A wake - a deadline firing, NotifySend to a
// parked receiver, a Mutex hand-off, a Group's last member finishing, a
// Gate opening, Go starting an actor - appends the woken actor to the
// tail of the queue; it does not run it.  A park, and an actor's exit,
// hands the run straight to the head of the queue.  Only when the queue
// is empty - no actor can take another step at the current instant -
// does time jump to the earliest pending deadline, firing every event
// scheduled there in creation order.
//
// So the interleaving is a function of the program and its inputs, not
// of the Go scheduler: a seed replays a concurrent run.  And because the
// clock only advances with every actor parked, nothing observes a
// timestamp that concurrent work at an earlier instant could contradict.
//
// Code that parks in virtual mode must park through the clock: Sleep,
// WaitRecv paired with NotifySend, Group, Gate or Mutex.  A raw channel
// receive, a sync.WaitGroup or a sync.Mutex held across a park blocks
// the one running actor, and with it the whole simulation.
package vtime

import (
	"container/heap"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Clock abstracts time for the simulation substrate.  Real() is the
// zero-cost passthrough to package time; NewVirtual() is the
// discrete-event scheduler.
type Clock interface {
	// Now returns the current (real or simulated) time.
	Now() time.Time
	// Sleep pauses the calling actor for d (non-positive returns
	// immediately).
	Sleep(d time.Duration)
	// Go runs fn on its own goroutine.  Under the virtual clock the
	// goroutine is a registered actor: it joins the run queue and starts
	// when its turn comes.
	Go(fn func())
}

// ---- real clock ----

type realClock struct{}

// Real returns the real-time clock: a stateless passthrough to package
// time.  All components default to it, keeping today's wall-clock
// behaviour exactly.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
func (realClock) Go(fn func())          { go fn() }

// ---- virtual clock ----

// virtualEpoch is the fixed instant a virtual clock starts at; using a
// constant keeps every timestamp a pure function of the workload.
var virtualEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// event is one parked Sleep or WaitRecv: its deadline on the clock's heap
// (if it has one) and the channel its actor is woken on.
type event struct {
	at  time.Duration // offset from the epoch
	seq uint64        // tie-break so same-instant events fire in creation order
	idx int           // heap index; -1 once fired or removed

	ch   chan struct{} // cap 1; the actor's wake
	recv uintptr       // the channel a WaitRecv waits on (chanKey); 0 for Sleep
}

// actor is a goroutine waiting for its first turn: its wake, the clock and
// group it joins, and its body.
type actor struct {
	ch chan struct{}
	v  *Virtual
	g  *Group
	fn func()
}

// Parking is the simulator's most frequent operation, so what a park
// needs comes from free lists.  A wake is one send on a cap-1 channel, not
// a close, and has exactly one receiver, so the channel is empty again -
// and reusable - once its actor has resumed.  wakeChans serves actors
// parked on a Mutex, Group, Gate, Settle or WaitIdle; parkEvents the
// events of Sleep and WaitRecv, whose lifetime ends inside the call that
// made them; actors the starts of Go.
var (
	wakeChans  = sync.Pool{New: func() any { return make(chan struct{}, 1) }}
	parkEvents = sync.Pool{New: func() any { return &event{idx: -1, ch: make(chan struct{}, 1)} }}
	actors     = sync.Pool{New: func() any { return &actor{ch: make(chan struct{}, 1)} }}
)

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

// Virtual is the deterministic discrete-event clock.  The goroutine
// that calls NewVirtual is its first registered actor, and the one
// running.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration // elapsed virtual time since the epoch
	seq    uint64
	events eventHeap

	// runq holds the wake channels of the actors ready to run, in the
	// order they were woken.  The running actor is not on it.
	runq []chan struct{}

	// settling holds the actors parked in Settle: they join the run
	// queue only once it has drained at the current instant.
	settling []chan struct{}

	// recvs maps a channel (chanKey) to the actor parked on it in
	// WaitRecv, so NotifySend can ready it.
	recvs map[uintptr]*event

	// advanceHook, when set, observes every time jump: it runs with
	// v.mu held, after now moves and before any event at the new
	// instant fires, so every registered actor is parked and the world
	// is quiescent — reads of atomic state are deterministic.  The hook
	// must not call clock methods or take any lock that is ever held
	// across a clock call.
	advanceHook func(prev, now time.Duration)

	// idleCh, when non-nil, is a WaitIdle caller parked until the
	// simulation runs completely dry (no ready actor, no pending event).
	// It is readied instead of panicking when that state is reached.
	idleCh chan struct{}
}

// SetAdvanceHook installs (or, with nil, removes) the quiescent
// time-advance observer.  One hook at a time; the telemetry sampler
// uses it to cut deterministic time-series samples at interval
// boundaries without scheduling events of its own — an idle simulation
// therefore never advances on the sampler's behalf.
func (v *Virtual) SetAdvanceHook(fn func(prev, now time.Duration)) {
	v.mu.Lock()
	v.advanceHook = fn
	v.mu.Unlock()
}

// NewVirtual creates a virtual clock whose time starts at a fixed epoch.
// The calling goroutine is registered as the running actor and must
// drive the simulation (or park through the clock) for anything else to
// run.
func NewVirtual() *Virtual {
	return &Virtual{recvs: make(map[uintptr]*event)}
}

// DebugState reports the run-queue census - actors ready to run behind
// the running one, and pending deadlines - a forensic aid when a
// simulation freezes.
func (v *Virtual) DebugState() (ready, events int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.runq), len(v.events)
}

// AsVirtual reports whether c is a virtual clock, returning it.
func AsVirtual(c Clock) (*Virtual, bool) {
	v, ok := c.(*Virtual)
	return v, ok
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return virtualEpoch.Add(v.now)
}

// Elapsed returns the total simulated time since the clock was created.
func (v *Virtual) Elapsed() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// scheduleLocked queues ev to fire d from now.  Caller holds v.mu.
func (v *Virtual) scheduleLocked(ev *event, d time.Duration) {
	v.seq++
	ev.at, ev.seq = v.now+d, v.seq
	heap.Push(&v.events, ev)
}

// readyLocked appends a woken actor to the run queue.  Caller holds v.mu.
func (v *Virtual) readyLocked(ch chan struct{}) {
	v.runq = append(v.runq, ch)
}

// dispatchLocked hands the run to the head of the run queue: the caller
// has just parked or is exiting.  With the queue empty the instant is
// settled: the Settle callers run, and once they too have parked, time
// advances to the earliest deadline and everything scheduled there fires;
// with no deadline left either, a WaitIdle caller is woken, and otherwise
// the simulation is deadlocked.  Caller holds v.mu.
func (v *Virtual) dispatchLocked() {
	for len(v.runq) == 0 {
		if len(v.settling) > 0 {
			v.runq, v.settling = v.settling, v.runq
			break
		}
		if len(v.events) == 0 {
			if v.idleCh == nil {
				// Every actor is parked on a channel, a mutex or a join and
				// no deadline is pending: nobody is left to wake anyone.
				panic("vtime: deadlock: all actors idle with no pending events")
			}
			v.readyLocked(v.idleCh)
			v.idleCh = nil
			break
		}
		at := v.events[0].at
		if at < v.now {
			panic(fmt.Sprintf("vtime: event scheduled in the past (%v < %v)", at, v.now))
		}
		prev := v.now
		v.now = at
		if v.advanceHook != nil && at > prev {
			v.advanceHook(prev, at)
		}
		for len(v.events) > 0 && v.events[0].at == at {
			ev := heap.Pop(&v.events).(*event)
			if ev.recv != 0 {
				delete(v.recvs, ev.recv)
			}
			v.readyLocked(ev.ch)
		}
	}
	ch := v.runq[0]
	n := copy(v.runq, v.runq[1:])
	v.runq[n] = nil
	v.runq = v.runq[:n]
	ch <- struct{}{}
}

// park gives up the run and blocks until ch is readied and reaches the
// head of the run queue.  The caller holds v.mu and has arranged for ch
// to be readied (a deadline, a waiter list); park releases v.mu.
func (v *Virtual) park(ch chan struct{}) {
	v.dispatchLocked()
	v.mu.Unlock()
	<-ch
}

// parkWake parks on a pooled wake channel registered by add, returning
// the channel to the pool once the actor runs again.  Caller holds v.mu;
// parkWake releases it.
func (v *Virtual) parkWake(add func(ch chan struct{})) {
	ch := wakeChans.Get().(chan struct{})
	add(ch)
	v.park(ch)
	wakeChans.Put(ch)
}

// Sleep parks the calling actor until virtual time reaches now+d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ev := parkEvents.Get().(*event)
	ev.recv = 0
	v.mu.Lock()
	v.scheduleLocked(ev, d)
	v.park(ev.ch)
	parkEvents.Put(ev)
}

// Settle parks the calling actor until the current instant has settled:
// every actor ready now, and every actor they ready at this instant, has
// run to its next park.  Virtual time does not advance.  A batching
// daemon settles before it cuts a batch, so a record submitted at instant
// T lands in the batch cut at T whatever order T's actors ran in.  On the
// real clock it returns at once.
func Settle(c Clock) {
	v, ok := c.(*Virtual)
	if !ok {
		return
	}
	v.mu.Lock()
	v.parkWake(func(ch chan struct{}) { v.settling = append(v.settling, ch) })
}

// WaitIdle parks the calling actor until the simulation runs dry: every
// other actor has exited or parked without a pending deadline, and no
// event remains on the queue.  The remaining work (background daemons,
// async cleanup) runs to completion meanwhile - advancing virtual time as
// far as it needs.  Actors parked on channels with no deadline (an idle
// daemon) stay parked; they do not block idleness.  One waiter at a time.
func (v *Virtual) WaitIdle() {
	v.mu.Lock()
	if v.idleCh != nil {
		v.mu.Unlock()
		panic("vtime: concurrent WaitIdle")
	}
	v.parkWake(func(ch chan struct{}) { v.idleCh = ch })
}

// SleepUntil parks the calling actor until the given virtual instant
// (returning immediately if it already passed).
func (v *Virtual) SleepUntil(t time.Time) {
	v.mu.Lock()
	d := t.Sub(virtualEpoch.Add(v.now))
	v.mu.Unlock()
	v.Sleep(d)
}

// Go launches fn as a registered actor at the tail of the run queue.
func (v *Virtual) Go(fn func()) { v.spawn(fn, nil) }

// spawn readies a new actor running fn; a member of g counts in g until
// it exits.
func (v *Virtual) spawn(fn func(), g *Group) {
	a := actors.Get().(*actor)
	a.v, a.g, a.fn = v, g, fn
	v.mu.Lock()
	if g != nil {
		g.n++
	}
	v.readyLocked(a.ch)
	v.mu.Unlock()
	go a.run()
}

// run waits for the actor's first turn, then runs its body and retires.
func (a *actor) run() {
	<-a.ch
	v, g, fn := a.v, a.g, a.fn
	a.v, a.g, a.fn = nil, nil, nil
	actors.Put(a)
	defer v.exit(g)
	fn()
}

// exit retires the calling actor: the last member of a joined group
// readies the joiner, and the run passes on.
func (v *Virtual) exit(g *Group) {
	v.mu.Lock()
	if g != nil {
		if g.n--; g.n == 0 && g.waitCh != nil {
			v.readyLocked(g.waitCh)
			g.waitCh = nil
		}
	}
	v.dispatchLocked()
	v.mu.Unlock()
}

// ---- channel helpers ----

// chanKey identifies a channel whatever direction it is typed with.
func chanKey(ch any) uintptr { return reflect.ValueOf(ch).Pointer() }

// WaitRecv receives from ch, parking the calling actor so virtual time
// can advance.  timeout <= 0 waits indefinitely.  The sender must use
// NotifySend, which readies the parked receiver.  When both the timeout
// and a value are ready the value wins.  One receiver per channel at a
// time.  Under the real clock this is a plain receive with a stoppable
// timer.
func WaitRecv[T any](c Clock, ch <-chan T, timeout time.Duration) (T, bool) {
	v, ok := c.(*Virtual)
	if !ok {
		if timeout <= 0 {
			return <-ch, true
		}
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case val := <-ch:
			return val, true
		case <-t.C:
			return TryRecv(ch)
		}
	}
	v.mu.Lock()
	if val, ok := TryRecv(ch); ok {
		v.mu.Unlock()
		return val, true
	}
	key := chanKey(ch)
	if v.recvs[key] != nil {
		v.mu.Unlock()
		panic("vtime: two actors WaitRecv on one channel")
	}
	ev := parkEvents.Get().(*event)
	ev.recv = key
	v.recvs[key] = ev
	if timeout > 0 {
		v.scheduleLocked(ev, timeout)
	}
	v.park(ev.ch)
	parkEvents.Put(ev)
	return TryRecv(ch)
}

// TryRecv is a non-blocking receive.  A value carries nothing but itself
// on either clock, so one found after a timed-out wait is simply taken.
func TryRecv[T any](ch <-chan T) (T, bool) {
	select {
	case val := <-ch:
		return val, true
	default:
		var zero T
		return zero, false
	}
}

// NotifySend performs a non-blocking send.  Under the virtual clock a
// delivered value readies the actor parked on ch in WaitRecv, cancelling
// its deadline.  A full channel sends nothing; size channels so a lost
// notification is harmless (cap-1 wake channels, cap-1 reply channels).
func NotifySend[T any](c Clock, ch chan<- T, val T) bool {
	v, virtual := c.(*Virtual)
	if virtual {
		v.mu.Lock()
		defer v.mu.Unlock()
	}
	select {
	case ch <- val:
	default:
		return false
	}
	if !virtual {
		return true
	}
	key := chanKey(ch)
	if ev := v.recvs[key]; ev != nil {
		delete(v.recvs, key)
		if ev.idx >= 0 {
			heap.Remove(&v.events, ev.idx)
		}
		v.readyLocked(ev.ch)
	}
	return true
}

// ---- join primitives ----

// Group is a clock-aware sync.WaitGroup: under the virtual clock the
// waiter parks and the last member's exit readies it, so the join is
// deterministic in virtual time.  One waiter at a time.
type Group struct {
	v  *Virtual // nil under the real clock
	wg sync.WaitGroup

	// virtual state, guarded by v.mu
	n      int
	waitCh chan struct{}
}

// NewGroup creates a join group on the clock.
func NewGroup(c Clock) *Group {
	g := &Group{}
	g.v, _ = c.(*Virtual)
	return g
}

// Go runs fn as a member of the group (a registered actor under the
// virtual clock).
func (g *Group) Go(fn func()) {
	if g.v == nil {
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			fn()
		}()
		return
	}
	g.v.spawn(fn, g)
}

// Wait parks until every member launched so far has returned.
func (g *Group) Wait() {
	if g.v == nil {
		g.wg.Wait()
		return
	}
	v := g.v
	v.mu.Lock()
	if g.n == 0 {
		v.mu.Unlock()
		return
	}
	if g.waitCh != nil {
		v.mu.Unlock()
		panic("vtime: Group supports one waiter at a time")
	}
	v.parkWake(func(ch chan struct{}) { g.waitCh = ch })
}

// Gate is a one-shot completion barrier: any number of actors Wait, one
// actor Releases.
type Gate struct {
	v *Virtual
	// real-mode state
	mu       sync.Mutex
	ch       chan struct{}
	released bool
	waiters  []chan struct{} // virtual mode, guarded by v.mu
}

// NewGate creates an unreleased gate on the clock.
func NewGate(c Clock) *Gate {
	g := &Gate{ch: make(chan struct{})}
	g.v, _ = c.(*Virtual)
	return g
}

// Release opens the gate, waking every waiter.  Idempotent.
func (g *Gate) Release() {
	if g.v != nil {
		g.v.mu.Lock()
		if !g.released {
			g.released = true
			for _, ch := range g.waiters {
				g.v.readyLocked(ch)
			}
			g.waiters = nil
		}
		g.v.mu.Unlock()
		return
	}
	g.mu.Lock()
	if !g.released {
		g.released = true
		close(g.ch)
	}
	g.mu.Unlock()
}

// Wait parks until the gate is released (returning immediately if it
// already was).
func (g *Gate) Wait() {
	if g.v != nil {
		g.v.mu.Lock()
		if g.released {
			g.v.mu.Unlock()
			return
		}
		g.v.parkWake(func(ch chan struct{}) { g.waiters = append(g.waiters, ch) })
		return
	}
	<-g.ch
}

// Mutex is a clock-aware mutual-exclusion lock for critical sections
// that may park inside (e.g. a log store holding its lock across a
// forced disk write).  A plain sync.Mutex there would freeze the
// simulation: a contender blocks the one running actor while the holder
// waits for a turn that never comes.  Mutex parks contenders instead, and
// Unlock hands the lock straight to the head waiter, readying it.
//
// The zero value is a real-mode mutex; call SetClock before first use
// to bind it to a virtual clock.
type Mutex struct {
	v *Virtual   // nil => real mode
	m sync.Mutex // real mode

	// virtual state, guarded by v.mu
	locked bool
	q      []chan struct{}
}

// SetClock binds the mutex to a clock.  Must be called before the mutex
// sees contention.
func (mu *Mutex) SetClock(c Clock) {
	mu.v, _ = c.(*Virtual)
}

// Lock acquires the mutex, parking under the virtual clock.
func (mu *Mutex) Lock() {
	if mu.v == nil {
		mu.m.Lock()
		return
	}
	v := mu.v
	v.mu.Lock()
	if !mu.locked {
		mu.locked = true
		v.mu.Unlock()
		return
	}
	v.parkWake(func(ch chan struct{}) { mu.q = append(mu.q, ch) }) // ownership arrives with the wake
}

// Unlock releases the mutex, transferring it to the head waiter if any.
func (mu *Mutex) Unlock() {
	if mu.v == nil {
		mu.m.Unlock()
		return
	}
	v := mu.v
	v.mu.Lock()
	defer v.mu.Unlock()
	if !mu.locked {
		panic("vtime: Unlock of unlocked Mutex")
	}
	if len(mu.q) == 0 {
		mu.locked = false
		return
	}
	// Ready the head and shift the rest down, so the backing array is
	// reused for good.
	v.readyLocked(mu.q[0])
	n := copy(mu.q, mu.q[1:])
	mu.q[n] = nil
	mu.q = mu.q[:n]
}
