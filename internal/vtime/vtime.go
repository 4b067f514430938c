// Package vtime provides the clock abstraction behind the simulation
// substrate: a Clock interface with a real-time implementation (the
// default, preserving the paper-exact wall-clock behaviour byte for
// byte) and a deterministic discrete-event virtual implementation where
// latency is timestamp arithmetic instead of sleeping.
//
// # The virtual clock
//
// Virtual time never flows on its own.  Every goroutine that can touch
// the clock is a registered *actor* holding one activity token; an
// actor parks (Sleep, the credited wait helpers, Group.Wait, ...) by
// releasing its token, and when the counter hits zero the clock is
// quiescent: no registered actor can take another step at the current
// instant, so the only causally-valid next step is the earliest pending
// event.  Time jumps there, every event at that deadline fires, and the
// woken actors resume.  Because the clock only advances at quiescence,
// goroutine interleavings stay causally valid: nothing observes a
// timestamp that concurrent work at an earlier instant could still
// contradict.
//
// # The credit rule
//
// The activity counter is kept exact by a strict token-handoff rule:
// whoever wakes a parked actor supplies the token it resumes with.  A
// firing timer credits each sleeper it wakes; NotifySend attaches a
// credit to the value it delivers (and attaches none when the channel
// is full, so credits cannot leak); Group and Gate transfer the last
// worker's token to the joiner.  An actor therefore always ends a wait
// holding exactly one token, and the counter can hit zero only when
// every actor is genuinely parked - never in the window between a wake
// being decided and the woken goroutine being scheduled.
//
// Code that parks on a channel in virtual mode must use the credited
// helpers (WaitRecv / TryRecv paired with NotifySend, or Group, Gate,
// Mutex).  Raw After/NewTimer events carry no credit and fire only
// once every actor is idle; they are for actors that remain busy, not
// for parking.
package vtime

import (
	"container/heap"
	"fmt"
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
	// After returns a channel that receives the time after d.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a stoppable timer firing after d.
	NewTimer(d time.Duration) Timer
	// Go runs fn on its own goroutine.  Under the virtual clock the
	// goroutine is a registered actor: it holds an activity token from
	// before launch until fn returns, so the clock cannot advance past
	// work it still owes.
	Go(fn func())
}

// Timer is a stoppable single-shot timer.
type Timer interface {
	// C returns the firing channel.
	C() <-chan time.Time
	// Stop cancels the timer, reporting whether it was still pending.
	Stop() bool
}

// ---- real clock ----

type realClock struct{}

// Real returns the real-time clock: a stateless passthrough to package
// time.  All components default to it, keeping today's wall-clock
// behaviour exactly.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Go(fn func())                           { go fn() }

type realTimer struct{ t *time.Timer }

func (realClock) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

func (t realTimer) C() <-chan time.Time { return t.t.C }
func (t realTimer) Stop() bool          { return t.t.Stop() }

// ---- virtual clock ----

// virtualEpoch is the fixed instant a virtual clock starts at; using a
// constant keeps every timestamp a pure function of the workload.
var virtualEpoch = time.Date(2000, time.January, 1, 0, 0, 0, 0, time.UTC)

// event is one pending deadline on the virtual clock's queue.
type event struct {
	at  time.Duration // offset from the epoch
	seq uint64        // tie-break so same-instant events fire in creation order
	idx int           // heap index; -1 once fired or removed

	// credited events hand a token to the actor they wake (Sleep and
	// the WaitRecv timeout); uncredited events (After/NewTimer) fire
	// for actors that stayed busy.
	credited bool

	// yield events (Virtual.Yield) fire only once no ordinary event
	// remains at their instant: they sort after every non-yield event
	// at the same time, and a firing round that released any ordinary
	// event stops before them, so the yielder wakes strictly after
	// same-instant activity — including chains those wakes spawn — has
	// run to its next park.
	yield bool

	ch    chan struct{}  // cap 1; sent one wake at fire when non-nil (Sleep, WaitRecv)
	tch   chan time.Time // receives the fire time when non-nil (After, NewTimer)
	fired bool
}

// Parking is the simulator's most frequent operation, so what a park
// needs comes from free lists.  A wake is one send on a cap-1 channel, not
// a close, and has exactly one receiver, so the channel is empty again -
// and reusable - once its waiter has resumed.  wakeChans serves waiters
// queued on a Mutex or Group; parkEvents the events of Sleep,
// Yield and the WaitRecv deadline, whose lifetime ends inside the call
// that scheduled them (a timer's event outlives its call - Stop may
// inspect it any time - and is never pooled).
var (
	wakeChans  = sync.Pool{New: func() any { return make(chan struct{}, 1) }}
	parkEvents = sync.Pool{New: func() any { return &event{ch: make(chan struct{}, 1)} }}
)

// awaitWake parks on a pooled wake channel until its one wake arrives,
// then returns the channel to the pool.
func awaitWake(ch chan struct{}) {
	<-ch
	wakeChans.Put(ch)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].yield != h[j].yield {
		return h[j].yield // ordinary events fire before yields
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
// that calls NewVirtual is its first registered actor.
type Virtual struct {
	mu     sync.Mutex
	now    time.Duration // elapsed virtual time since the epoch
	active int           // tokens held by runnable actors
	seq    uint64
	events eventHeap

	// advanceHook, when set, observes every time jump: it runs with
	// v.mu held, after now moves and before any event at the new
	// instant fires, so every registered actor is still parked and the
	// world is quiescent — reads of atomic state are deterministic.
	// The hook must not call clock methods or take any lock that is
	// ever held across a clock call.
	advanceHook func(prev, now time.Duration)

	// idleCh, when non-nil, is a WaitIdle caller parked until the
	// simulation runs completely dry (no runnable actor, no pending
	// event).  Closed - with the waiter's token restored - instead of
	// panicking when that state is reached.
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
// The calling goroutine is registered as an actor and must drive the
// simulation (or park through the clock) for time to advance.
func NewVirtual() *Virtual {
	return &Virtual{active: 1}
}

// DebugState reports the instantaneous token count and pending-event
// count - a forensic aid when a simulation freezes (active > 0 with
// every goroutine parked means a credited value was stranded in a
// channel nobody receives).
func (v *Virtual) DebugState() (active, events int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.active, len(v.events)
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
func (v *Virtual) scheduleLocked(ev *event, d time.Duration) *event {
	v.seq++
	ev.at, ev.seq = v.now+d, v.seq
	heap.Push(&v.events, ev)
	return ev
}

// parkLocked schedules a credited wake d from now on a pooled event and
// releases the caller's token.  Caller holds v.mu, and must receive the
// wake (or cancelWait it) before handing the event back to parkEvents.
func (v *Virtual) parkLocked(d time.Duration, yield bool) *event {
	ev := parkEvents.Get().(*event)
	ev.credited, ev.yield, ev.fired = true, yield, false
	v.scheduleLocked(ev, d)
	v.releaseLocked()
	return ev
}

// releaseLocked gives up the caller's token and, at quiescence, advances
// time to the earliest deadline and fires everything scheduled there.
// Caller holds v.mu.
func (v *Virtual) releaseLocked() {
	v.active--
	if v.active < 0 {
		panic("vtime: activity token underflow (unbalanced release)")
	}
	for v.active == 0 {
		if len(v.events) == 0 {
			if v.idleCh != nil {
				// A WaitIdle caller is parked for exactly this state:
				// hand it the last token and wake it instead of
				// declaring deadlock.
				ch := v.idleCh
				v.idleCh = nil
				v.active++
				close(ch)
				return
			}
			// Every actor is parked on a channel and no deadline is
			// pending: only a credited send could make progress, and
			// nobody is left to send one.
			panic("vtime: deadlock: all actors idle with no pending events")
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
		firedOrdinary := false
		for len(v.events) > 0 && v.events[0].at == at {
			if v.events[0].yield && firedOrdinary {
				// Leave the yielders for a later quiescence round at
				// this same instant: the actors just released (and any
				// same-instant events they schedule) settle first.
				break
			}
			ev := heap.Pop(&v.events).(*event)
			if !ev.yield {
				firedOrdinary = true
			}
			v.fireLocked(ev)
		}
	}
}

// fireLocked marks the event fired, credits its waker, and signals its
// channel.  Caller holds v.mu.
func (v *Virtual) fireLocked(ev *event) {
	ev.fired = true
	if ev.credited {
		v.active++
	}
	if ev.ch != nil {
		ev.ch <- struct{}{}
	}
	if ev.tch != nil {
		select {
		case ev.tch <- virtualEpoch.Add(ev.at):
		default:
		}
	}
}

// removeLocked unlinks a pending event.  Caller holds v.mu.
func (v *Virtual) removeLocked(ev *event) {
	if ev.idx >= 0 {
		heap.Remove(&v.events, ev.idx)
	}
}

// Sleep parks the calling actor until virtual time reaches now+d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	ev := v.parkLocked(d, false)
	v.mu.Unlock()
	<-ev.ch
	parkEvents.Put(ev)
}

// Yield parks the calling actor until every other actor runnable at
// the current instant — and every event chain they schedule for this
// same instant — has run to its next park.  Virtual time does not
// advance.  Batching daemons use it to cut deterministic batches: a
// record submitted at instant T lands in the batch flushed at T
// regardless of which goroutine the Go scheduler happened to run
// first.
func (v *Virtual) Yield() {
	v.mu.Lock()
	ev := v.parkLocked(0, true)
	v.mu.Unlock()
	<-ev.ch
	parkEvents.Put(ev)
}

// Yield settles the current instant on a virtual clock (see
// Virtual.Yield); on the real clock it is a no-op.
func Yield(clk Clock) {
	if v, ok := AsVirtual(clk); ok {
		v.Yield()
	}
}

// WaitIdle parks the calling actor until the simulation runs dry:
// every other actor has exited or parked without a pending deadline,
// and no event remains on the queue.  The caller's token is released
// while it waits, so the remaining work (background daemons, async
// cleanup) runs to completion - advancing virtual time as far as it
// needs - before WaitIdle returns with the token restored.  Actors
// parked on channels waiting for a credited send (an idle daemon)
// stay parked; they do not block idleness.  One waiter at a time.
func (v *Virtual) WaitIdle() {
	v.mu.Lock()
	if v.idleCh != nil {
		v.mu.Unlock()
		panic("vtime: concurrent WaitIdle")
	}
	ch := make(chan struct{})
	v.idleCh = ch
	v.releaseLocked()
	v.mu.Unlock()
	<-ch
}

// SleepUntil parks the calling actor until the given virtual instant
// (returning immediately if it already passed).
func (v *Virtual) SleepUntil(t time.Time) {
	v.mu.Lock()
	d := t.Sub(virtualEpoch.Add(v.now))
	v.mu.Unlock()
	v.Sleep(d)
}

// After returns a channel receiving the virtual time once it reaches
// now+d.  The event is uncredited: it fires only at quiescence of other
// actors, so the receiver must stay busy (or park via the credited
// helpers) rather than treat this as a parking primitive.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	return v.NewTimer(d).C()
}

type virtualTimer struct {
	v  *Virtual
	ev *event
}

// NewTimer returns a stoppable uncredited timer (see After).
func (v *Virtual) NewTimer(d time.Duration) Timer {
	v.mu.Lock()
	ev := v.scheduleLocked(&event{tch: make(chan time.Time, 1)}, d)
	v.mu.Unlock()
	return &virtualTimer{v: v, ev: ev}
}

func (t *virtualTimer) C() <-chan time.Time { return t.ev.tch }

func (t *virtualTimer) Stop() bool {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	pending := !t.ev.fired && t.ev.idx >= 0
	t.v.removeLocked(t.ev)
	return pending
}

// Go launches fn as a registered actor: its token is taken before the
// goroutine starts, so the clock cannot advance past it.
func (v *Virtual) Go(fn func()) {
	v.mu.Lock()
	v.active++
	v.mu.Unlock()
	go func() {
		defer v.release()
		fn()
	}()
}

func (v *Virtual) release() {
	v.mu.Lock()
	v.releaseLocked()
	v.mu.Unlock()
}

// beginWait releases the caller's token and, when timeout > 0, schedules
// a credited deadline for it.  Pair with cancelWait/consumeCredit.
func (v *Virtual) beginWait(timeout time.Duration) *event {
	v.mu.Lock()
	var ev *event
	if timeout > 0 {
		ev = v.parkLocked(timeout, false)
	} else {
		v.releaseLocked()
	}
	v.mu.Unlock()
	return ev
}

// cancelWait retires an unused wait deadline after the waiter was woken
// by a credited value instead: a still-pending event is removed; one
// that fired concurrently already issued its credit, which is returned
// along with the wake nobody will receive.
func (v *Virtual) cancelWait(ev *event) {
	v.mu.Lock()
	if ev.fired {
		<-ev.ch
		v.active-- // the value's credit keeps us; return the timer's
		if v.active <= 0 {
			panic("vtime: credit underflow cancelling a fired wait")
		}
	} else {
		v.removeLocked(ev)
	}
	v.mu.Unlock()
	parkEvents.Put(ev)
}

// consumeCredit absorbs the credit attached to a value received by an
// actor that already holds its token (TryRecv, or a value draining
// after a timeout fired).
func (v *Virtual) consumeCredit() {
	v.mu.Lock()
	v.active--
	if v.active <= 0 {
		panic("vtime: credit underflow absorbing a delivered value")
	}
	v.mu.Unlock()
}

// ---- credited channel helpers ----

// WaitRecv receives from ch, parking the calling actor idly so virtual
// time can advance.  timeout <= 0 waits indefinitely.  The sender must
// use NotifySend (the value carries the waker's credit).  When both the
// timeout and a value are ready the value wins.  Under the real clock
// this is a plain receive with a stoppable timer.
func WaitRecv[T any](c Clock, ch <-chan T, timeout time.Duration) (T, bool) {
	var zero T
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
			select {
			case val := <-ch:
				return val, true
			default:
			}
			return zero, false
		}
	}
	ev := v.beginWait(timeout)
	if ev == nil {
		return <-ch, true
	}
	select {
	case val := <-ch:
		v.cancelWait(ev)
		return val, true
	case <-ev.ch:
		parkEvents.Put(ev)
		select {
		case val := <-ch:
			v.consumeCredit() // timer credit keeps us; absorb the value's
			return val, true
		default:
		}
		return zero, false
	}
}

// TryRecv performs a non-blocking receive, absorbing the credit a
// NotifySend attached to the value (the caller already holds its own
// token).  Use it to drain a credited channel after a timed-out wait.
func TryRecv[T any](c Clock, ch <-chan T) (T, bool) {
	var zero T
	if v, ok := c.(*Virtual); ok {
		v.mu.Lock()
		select {
		case val := <-ch:
			v.active--
			if v.active <= 0 {
				panic("vtime: credit underflow in TryRecv")
			}
			v.mu.Unlock()
			return val, true
		default:
			v.mu.Unlock()
			return zero, false
		}
	}
	select {
	case val := <-ch:
		return val, true
	default:
		return zero, false
	}
}

// NotifySend performs a non-blocking send that, under the virtual
// clock, attaches one activity credit to the delivered value - the
// token the parked receiver resumes with.  A full channel sends nothing
// and credits nothing, so credits cannot leak; size channels so a lost
// notification is harmless (cap-1 wake channels, cap-1 reply channels).
func NotifySend[T any](c Clock, ch chan<- T, val T) bool {
	if v, ok := c.(*Virtual); ok {
		v.mu.Lock()
		select {
		case ch <- val:
			v.active++
			v.mu.Unlock()
			return true
		default:
			v.mu.Unlock()
			return false
		}
	}
	select {
	case ch <- val:
		return true
	default:
		return false
	}
}

// ---- join primitives ----

// Group is a clock-aware sync.WaitGroup: under the virtual clock the
// waiter parks idly and the last worker hands it its token directly, so
// the join is deterministic in virtual time.  One waiter at a time.
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
	v := g.v
	v.mu.Lock()
	g.n++
	v.active++
	v.mu.Unlock()
	go func() {
		defer g.done()
		fn()
	}()
}

func (g *Group) done() {
	v := g.v
	v.mu.Lock()
	g.n--
	if g.n == 0 && g.waitCh != nil {
		// Hand this worker's token straight to the joiner: no release,
		// no window where the clock could advance between the last
		// worker finishing and the waiter resuming.
		g.waitCh <- struct{}{}
		g.waitCh = nil
		v.mu.Unlock()
		return
	}
	v.releaseLocked()
	v.mu.Unlock()
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
	ch := wakeChans.Get().(chan struct{})
	g.waitCh = ch
	v.releaseLocked()
	v.mu.Unlock()
	awaitWake(ch)
}

// Gate is a one-shot completion barrier: any number of actors Wait, one
// actor Releases.  The releaser (which must be busy, i.e. hold its
// token) credits every parked waiter.
type Gate struct {
	v *Virtual
	// real-mode state
	mu       sync.Mutex
	ch       chan struct{}
	released bool
	waiters  int
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
			g.v.active += g.waiters
			close(g.ch)
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
		g.waiters++
		g.v.releaseLocked()
		g.v.mu.Unlock()
		<-g.ch
		return
	}
	<-g.ch
}

// Mutex is a clock-aware mutual-exclusion lock for critical sections
// that may park inside (e.g. a log store holding its lock across a
// forced disk write).  A plain sync.Mutex there would freeze virtual
// time: a contender blocks while still holding its activity token, so
// the clock never reaches quiescence and the holder's wake deadline
// never fires.  Mutex parks contenders idly instead, and Unlock hands
// the lock (and a token) straight to the head waiter.
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

// Lock acquires the mutex, parking idly under the virtual clock.
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
	ch := wakeChans.Get().(chan struct{})
	mu.q = append(mu.q, ch)
	v.releaseLocked()
	v.mu.Unlock()
	awaitWake(ch) // ownership and a token arrive together
}

// Unlock releases the mutex, transferring it to the head waiter if any.
func (mu *Mutex) Unlock() {
	if mu.v == nil {
		mu.m.Unlock()
		return
	}
	v := mu.v
	v.mu.Lock()
	if !mu.locked {
		v.mu.Unlock()
		panic("vtime: Unlock of unlocked Mutex")
	}
	if len(mu.q) > 0 {
		v.active++ // the waiter's resume token
		// Wake the head and shift the rest down, so the backing array is
		// reused for good.
		mu.q[0] <- struct{}{}
		n := copy(mu.q, mu.q[1:])
		mu.q[n] = nil
		mu.q = mu.q[:n]
	} else {
		mu.locked = false
	}
	v.mu.Unlock()
}
