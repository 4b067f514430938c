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
// parked receiver, a Mutex hand-off, a Group's last member finishing, Go
// starting an actor - appends the woken actor to the tail of the queue;
// it does not run it.  A park, and an actor's exit, hands the run straight
// to the head of the queue, by a coroutine switch rather than through the
// Go scheduler (park).  Only when the queue is empty - no actor can take
// another step at the current instant - does time jump to the earliest
// pending deadline, firing every event scheduled there in creation order.
//
// So the interleaving is a function of the program and its inputs, not
// of the Go scheduler: a seed replays a concurrent run.  And because the
// clock only advances with every actor parked, nothing observes a
// timestamp that concurrent work at an earlier instant could contradict.
//
// A Virtual has no lock: it is touched only by the actor that holds its
// run.  The run passes by coroutine switches, and each is a happens-before
// edge for the race detector, so a goroutine that touches the clock
// without holding the run - one that is not an actor, or a second root -
// is a data race that -race reports.
//
// Code that parks in virtual mode must park through the clock: Sleep,
// WaitRecv paired with NotifySend, Group or Mutex.  A raw channel
// receive, a sync.WaitGroup or a sync.Mutex held across a park blocks
// the one running actor, and with it the whole simulation.
package vtime

import (
	"fmt"
	"iter"
	"reflect"
	"runtime/debug"
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
	// Go runs fn on its own goroutine.  Under the virtual clock fn runs as
	// a registered actor on a worker coroutine: it joins the run queue and
	// starts when its turn comes.
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

// actor is what the run queue, the event heap and every waiter list hold:
// one registered actor.  The clock's root - whichever goroutine that is
// not a worker drives it - is the Virtual's root field; every other actor
// runs on a worker, a coroutine that runs bodies one after another.
type actor struct {
	// The deadline a parked Sleep or WaitRecv has on the clock's heap, if
	// any, and the channel a WaitRecv waits on.  An actor parks on one
	// thing at a time, so its record serves every wait it makes.
	at   time.Duration // offset from the epoch
	seq  uint64        // tie-break so same-instant events fire in creation order
	idx  int           // heap index; -1 once fired or removed
	recv uintptr       // the channel a WaitRecv waits on (chanKey); 0 for Sleep

	// A worker's coroutine (nil for the root): resume runs it until it
	// yields, and returns the actor it handed the run to.  driving is set
	// while the actor is parked inside another actor's resume.
	resume  func() (*actor, bool)
	stop    func()
	yield   func(*actor) bool
	driving bool

	// The current body: fn, or each(arg, i) for a member of Fan or GoArg,
	// on clock v as a member of g.  v is nil between bodies.
	v    *Virtual
	g    *Group
	fn   func()
	each func(any, int)
	arg  any
	i    int
}

// maxIdleWorkers caps the workers suspended between bodies.  A new
// coroutine starts on a small stack that an actor body (a message handler
// down to the simulated disk) regrows, a copy per doubling; an idle worker
// keeps the stack its last body grew.
const maxIdleWorkers = 64

// idleWorkers is shared by every clock, so the clocks a harness discards
// leave at most maxIdleWorkers goroutines behind; clocks on different
// goroutines share it, so it is the one list here with a lock.
var idleWorkers struct {
	mu sync.Mutex
	ws []*actor
}

// fanGroups pools the joins of Fan.
var fanGroups = sync.Pool{New: func() any { return new(Group) }}

// eventHeap is the parked deadlines, earliest (then first scheduled)
// first: container/heap's algorithm on actor records.
type eventHeap []*actor

func (h eventHeap) less(i, j int) bool {
	return h[i].at < h[j].at || h[i].at == h[j].at && h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx, h[j].idx = i, j
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			return
		}
		h.swap(i, j)
		j = i
	}
}

func (h eventHeap) down(i0, n int) bool {
	i := i0
	for {
		j := 2*i + 1 // left child
		if j >= n || j < 0 {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (h *eventHeap) push(a *actor) {
	a.idx = len(*h)
	*h = append(*h, a)
	h.up(a.idx)
}

// remove takes the event at index i off the heap and returns it; remove(0)
// is the earliest.
func (h *eventHeap) remove(i int) *actor {
	old := *h
	n := len(old) - 1
	if n != i {
		old.swap(i, n)
		if !old.down(i, n) {
			old.up(i)
		}
	}
	a := old[n]
	old[n] = nil
	a.idx = -1
	*h = old[:n]
	return a
}

// Virtual is the deterministic discrete-event clock.  Its root - the
// goroutine that calls NewVirtual, or any other that is not one of its
// workers - is its first registered actor, and the one running.
type Virtual struct {
	now    time.Duration // elapsed virtual time since the epoch
	seq    uint64
	events eventHeap

	root actor  // the root's record
	cur  *actor // the running actor

	// runq holds the actors ready to run, in the order they were woken.
	// The running actor is not on it.
	runq []*actor

	// settling holds the actors parked in Settle: they join the run
	// queue only once it has drained at the current instant.
	settling []*actor

	// recvs maps a channel (chanKey) to the actor parked on it in
	// WaitRecv, so NotifySend can ready it.
	recvs map[uintptr]*actor

	// advanceHook, when set, observes every time jump: it runs inside the
	// park that found the run queue empty, after now moves and before any
	// event at the new instant fires, so every registered actor is parked
	// and the world is quiescent — reads of atomic state are
	// deterministic.  The hook must not call clock methods or take any
	// lock that is ever held across a clock call.
	advanceHook func(prev, now time.Duration)

	// idler, when non-nil, is a WaitIdle caller parked until the
	// simulation runs completely dry (no ready actor, no pending event).
	// It is readied instead of panicking when that state is reached.
	idler *actor
}

// SetAdvanceHook installs (or, with nil, removes) the quiescent
// time-advance observer.  One hook at a time; the telemetry sampler
// uses it to cut deterministic time-series samples at interval
// boundaries without scheduling events of its own — an idle simulation
// therefore never advances on the sampler's behalf.
func (v *Virtual) SetAdvanceHook(fn func(prev, now time.Duration)) { v.advanceHook = fn }

// NewVirtual creates a virtual clock whose time starts at a fixed epoch.
// The calling goroutine is registered as the running actor and must
// drive the simulation (or park through the clock) for anything else to
// run.
func NewVirtual() *Virtual {
	v := &Virtual{recvs: make(map[uintptr]*actor)}
	v.root.idx = -1
	v.cur = &v.root
	return v
}

// DebugState reports the run-queue census - actors ready to run behind
// the running one, and pending deadlines - a forensic aid when a
// simulation freezes.
func (v *Virtual) DebugState() (ready, events int) { return len(v.runq), len(v.events) }

// AsVirtual reports whether c is a virtual clock, returning it.
func AsVirtual(c Clock) (*Virtual, bool) {
	v, ok := c.(*Virtual)
	return v, ok
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time { return virtualEpoch.Add(v.now) }

// Elapsed returns the total simulated time since the clock was created.
func (v *Virtual) Elapsed() time.Duration { return v.now }

// schedule queues a's deadline d from now.
func (v *Virtual) schedule(a *actor, d time.Duration) {
	v.seq++
	a.at, a.seq = v.now+d, v.seq
	v.events.push(a)
}

// ready appends a woken actor to the run queue.
func (v *Virtual) ready(a *actor) { v.runq = append(v.runq, a) }

// dispatch pops the head of the run queue, the actor to run next, and
// makes it the running one: the caller has just parked or is exiting.
// With the queue empty the instant is settled: the Settle callers run, and
// once they too have parked, time advances to the earliest deadline and
// everything scheduled there fires; with no deadline left either, a
// WaitIdle caller is woken, and otherwise the simulation is deadlocked.
func (v *Virtual) dispatch() *actor {
	for len(v.runq) == 0 {
		if len(v.settling) > 0 {
			v.runq, v.settling = v.settling, v.runq
			break
		}
		if len(v.events) == 0 {
			if v.idler == nil {
				// Every actor is parked on a channel, a mutex or a join and
				// no deadline is pending: nobody is left to wake anyone.
				panic("vtime: deadlock: all actors idle with no pending events")
			}
			v.ready(v.idler)
			v.idler = nil
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
			a := v.events.remove(0)
			if a.recv != 0 {
				delete(v.recvs, a.recv)
			}
			v.ready(a)
		}
	}
	a := v.runq[0]
	n := copy(v.runq, v.runq[1:])
	v.runq[n] = nil
	v.runq = v.runq[:n]
	v.cur = a
	return a
}

// park gives up the run until the calling actor, which the caller has
// arranged to be readied (a deadline, a waiter list), reaches the head of
// the run queue.  A parker that is its own head carries on.  Otherwise one
// coroutine switch passes the run.  The actors parked inside a resume
// (driving) form a chain down to the root: a head on it the parker reaches
// by yielding, which unwinds the chain to it; any other head it resumes,
// and goes on with whoever the resume hands the run back with.  A worker
// whose body has returned goes back to the idle list once it has yielded,
// so no other clock can resume it before.  A body's panic is re-raised by
// resume, and its runtime.Goexit ends this goroutine too.
func (v *Virtual) park() {
	me := v.cur
	next := v.dispatch()
	for next != me {
		if next.driving {
			me.yield(next)
			return
		}
		me.driving = true
		handed, _ := next.resume()
		me.driving = false
		if next.v == nil {
			next.retire()
		}
		next = handed
	}
}

// Sleep parks the calling actor until virtual time reaches now+d.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.cur.recv = 0
	v.schedule(v.cur, d)
	v.park()
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
	v.settling = append(v.settling, v.cur)
	v.park()
}

// WaitIdle parks the calling actor until the simulation runs dry: every
// other actor has exited or parked without a pending deadline, and no
// event remains on the queue.  The remaining work (background daemons,
// async cleanup) runs to completion meanwhile - advancing virtual time as
// far as it needs.  Actors parked on channels with no deadline (an idle
// daemon) stay parked; they do not block idleness.  One waiter at a time.
func (v *Virtual) WaitIdle() {
	if v.idler != nil {
		panic("vtime: concurrent WaitIdle")
	}
	v.idler = v.cur
	v.park()
}

// SleepUntil parks the calling actor until the given virtual instant
// (returning immediately if it already passed).
func (v *Virtual) SleepUntil(t time.Time) { v.Sleep(t.Sub(v.Now())) }

// Go launches fn as a registered actor at the tail of the run queue.
func (v *Virtual) Go(fn func()) { v.spawn(fn, nil, nil, 0, nil) }

// spawn readies a new actor running fn, or each(arg, i), on an idle worker
// or a new one; a member of g counts in g until it exits.  An exiting
// actor's worker is idle again before the next actor runs, so a
// park-spawn-exit cycle reuses one coroutine.
func (v *Virtual) spawn(fn func(), each func(any, int), arg any, i int, g *Group) {
	var a *actor
	idleWorkers.mu.Lock()
	if n := len(idleWorkers.ws); n > 0 {
		a, idleWorkers.ws = idleWorkers.ws[n-1], idleWorkers.ws[:n-1]
	}
	idleWorkers.mu.Unlock()
	if a == nil {
		a = &actor{idx: -1}
		a.resume, a.stop = iter.Pull(a.run) // starts on its first resume
	}
	a.v, a.g, a.fn, a.each, a.arg, a.i = v, g, fn, each, arg, i
	if g != nil {
		g.n++
	}
	v.ready(a)
}

// actorPanic is a body's panic on its way to the root, with the body's
// stack attached, since the root that re-raises it has a stack of its own.
// The worker that panicked wraps it; the driving workers it passes through
// on the way down re-raise it as it is.
type actorPanic struct{ msg string }

func (p actorPanic) Error() string { return p.msg }

// run is a worker's coroutine: each turn runs one actor's body, retires
// the actor and yields the actor its exit handed the run to.
func (a *actor) run(yield func(*actor) bool) {
	a.yield = yield
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(actorPanic); !ok {
				r = actorPanic{fmt.Sprintf("%v\n\nactor stack:\n%s", r, debug.Stack())}
			}
			panic(r)
		}
	}()
	for {
		if a.fn != nil {
			a.fn()
		} else {
			a.each(a.arg, a.i)
		}
		v, g := a.v, a.g
		a.v, a.g, a.fn, a.each, a.arg = nil, nil, nil, nil, nil
		if !yield(v.exit(g)) {
			return
		}
	}
}

// exit retires the calling actor: the last member of a joined group
// readies the joiner, and the run passes on; exit returns to whom.
func (v *Virtual) exit(g *Group) *actor {
	if g != nil {
		if g.n--; g.n == 0 && g.waiter != nil {
			v.ready(g.waiter)
			g.waiter = nil
		}
	}
	return v.dispatch()
}

// retire puts a worker whose body has returned back on the idle list, or
// ends its coroutine when the list is full.
func (a *actor) retire() {
	idleWorkers.mu.Lock()
	full := len(idleWorkers.ws) == maxIdleWorkers
	if !full {
		idleWorkers.ws = append(idleWorkers.ws, a)
	}
	idleWorkers.mu.Unlock()
	if full {
		a.stop()
	}
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
	if val, ok := TryRecv(ch); ok {
		return val, true
	}
	key := chanKey(ch)
	if v.recvs[key] != nil {
		panic("vtime: two actors WaitRecv on one channel")
	}
	me := v.cur
	me.recv = key
	v.recvs[key] = me
	if timeout > 0 {
		v.schedule(me, timeout)
	}
	v.park()
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
	select {
	case ch <- val:
	default:
		return false
	}
	v, ok := c.(*Virtual)
	if !ok {
		return true
	}
	key := chanKey(ch)
	if a := v.recvs[key]; a != nil {
		delete(v.recvs, key)
		if a.idx >= 0 {
			v.events.remove(a.idx)
		}
		v.ready(a)
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

	// virtual state, touched only by the actor holding v's run
	n      int
	waiter *actor
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
	g.v.spawn(fn, nil, nil, 0, g)
}

// Fan runs fn(arg, 0), ..., fn(arg, n-1) concurrently, each as a
// registered actor under the virtual clock, started in index order, and
// returns when all have.  It is Group.Go and Wait without a Group per call
// or a closure per member: fn captures nothing, and arg (a pointer boxes
// without allocating) carries what the members share.
func Fan(c Clock, n int, arg any, fn func(arg any, i int)) {
	g := fanGroups.Get().(*Group)
	g.v, _ = c.(*Virtual)
	for i := 0; i < n; i++ {
		if g.v == nil {
			g.Go(func() { fn(arg, i) })
		} else {
			g.v.spawn(nil, fn, arg, i, g)
		}
	}
	g.Wait()
	fanGroups.Put(g)
}

// GoArg is c.Go(func() { fn(arg, 0) }) without the closure.
func GoArg(c Clock, arg any, fn func(arg any, i int)) {
	if v, ok := c.(*Virtual); ok {
		v.spawn(nil, fn, arg, 0, nil)
	} else {
		go fn(arg, 0)
	}
}

// Wait parks until every member launched so far has returned.
func (g *Group) Wait() {
	if g.v == nil {
		g.wg.Wait()
		return
	}
	if g.n == 0 {
		return
	}
	if g.waiter != nil {
		panic("vtime: Group supports one waiter at a time")
	}
	g.waiter = g.v.cur
	g.v.park()
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

	// virtual state, touched only by the actor holding v's run
	locked bool
	q      []*actor
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
	if !mu.locked {
		mu.locked = true
		return
	}
	mu.q = append(mu.q, mu.v.cur)
	mu.v.park() // ownership arrives with the wake
}

// Unlock releases the mutex, transferring it to the head waiter if any.
func (mu *Mutex) Unlock() {
	if mu.v == nil {
		mu.m.Unlock()
		return
	}
	if !mu.locked {
		panic("vtime: Unlock of unlocked Mutex")
	}
	if len(mu.q) == 0 {
		mu.locked = false
		return
	}
	// Ready the head and shift the rest down, so the backing array is
	// reused for good.
	mu.v.ready(mu.q[0])
	n := copy(mu.q, mu.q[1:])
	mu.q[n] = nil
	mu.q = mu.q[:n]
}
