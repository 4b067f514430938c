package vtime

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualSleepAdvances proves time jumps to the earliest deadline at
// quiescence instead of waiting on the wall clock.
func TestVirtualSleepAdvances(t *testing.T) {
	v := NewVirtual()
	wall := time.Now()
	v.Sleep(10 * time.Hour)
	if elapsed := time.Since(wall); elapsed > time.Second {
		t.Fatalf("virtual sleep took %v wall-clock", elapsed)
	}
	if got := v.Elapsed(); got != 10*time.Hour {
		t.Fatalf("Elapsed = %v, want 10h", got)
	}
}

// TestVirtualOrdering checks that sleepers wake in deadline order and
// observe monotonically advancing virtual time.
func TestVirtualOrdering(t *testing.T) {
	v := NewVirtual()
	var order []time.Duration
	var mu atomic.Int64
	g := NewGroup(v)
	for _, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
		d := d
		g.Go(func() {
			v.Sleep(d)
			for !mu.CompareAndSwap(0, 1) {
			}
			order = append(order, v.Elapsed())
			mu.Store(0)
		})
	}
	g.Wait()
	if len(order) != 3 {
		t.Fatalf("got %d wakeups", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("wakeups out of order: %v", order)
		}
	}
	if v.Elapsed() != 30*time.Millisecond {
		t.Fatalf("Elapsed = %v, want 30ms", v.Elapsed())
	}
}

// TestVirtualSameDeadline fires every event at one instant together.
func TestVirtualSameDeadline(t *testing.T) {
	v := NewVirtual()
	var n atomic.Int32
	g := NewGroup(v)
	for i := 0; i < 5; i++ {
		g.Go(func() {
			v.Sleep(time.Millisecond)
			n.Add(1)
		})
	}
	g.Wait()
	if n.Load() != 5 || v.Elapsed() != time.Millisecond {
		t.Fatalf("n=%d elapsed=%v", n.Load(), v.Elapsed())
	}
}

// TestWaitRecvValue: a NotifySend wakes the waiter before its timeout,
// and the timeout event is retired.
func TestWaitRecvValue(t *testing.T) {
	v := NewVirtual()
	ch := make(chan int, 1)
	v.Go(func() {
		v.Sleep(5 * time.Millisecond)
		NotifySend[int](v, ch, 42)
	})
	val, ok := WaitRecv[int](v, ch, time.Hour)
	if !ok || val != 42 {
		t.Fatalf("got (%d,%v)", val, ok)
	}
	if v.Elapsed() != 5*time.Millisecond {
		t.Fatalf("elapsed %v", v.Elapsed())
	}
	// the clock must still be able to advance (no stale deadline)
	v.Sleep(time.Millisecond)
}

// TestWaitRecvTimeout: with no sender, the wait expires at exactly the
// virtual deadline.
func TestWaitRecvTimeout(t *testing.T) {
	v := NewVirtual()
	ch := make(chan int, 1)
	_, ok := WaitRecv[int](v, ch, 7*time.Millisecond)
	if ok {
		t.Fatal("unexpected value")
	}
	if v.Elapsed() != 7*time.Millisecond {
		t.Fatalf("elapsed %v", v.Elapsed())
	}
	v.Sleep(time.Millisecond)
}

// TestWaitRecvRace: a value that lands at the same instant the deadline
// fires, from an actor woken ahead of the waiter, is delivered - the value
// wins over the deadline - and the clock goes on.
func TestWaitRecvRace(t *testing.T) {
	v := NewVirtual()
	ch, started := make(chan int, 1), make(chan struct{}, 1)
	v.Go(func() {
		NotifySend(v, started, struct{}{})
		v.Sleep(3 * time.Millisecond) // scheduled before the waiter's deadline
		NotifySend[int](v, ch, 7)
	})
	WaitRecv[struct{}](v, started, 0)
	if val, ok := WaitRecv[int](v, ch, 3*time.Millisecond); !ok || val != 7 {
		t.Fatalf("got (%d,%v), want the value over the same-instant deadline", val, ok)
	}
	if got := v.Elapsed(); got != 3*time.Millisecond {
		t.Fatalf("elapsed %v", got)
	}
	v.Sleep(time.Millisecond)
}

// TestNotifySendFull: a full channel accepts nothing, and what it holds
// is drained by a plain non-blocking receive.
func TestNotifySendFull(t *testing.T) {
	v := NewVirtual()
	ch := make(chan int, 1)
	if !NotifySend[int](v, ch, 1) {
		t.Fatal("first send failed")
	}
	if NotifySend[int](v, ch, 2) {
		t.Fatal("second send accepted on full channel")
	}
	if got, ok := TryRecv(ch); !ok || got != 1 {
		t.Fatalf("drain got (%d,%v)", got, ok)
	}
	if _, ok := TryRecv(ch); ok {
		t.Fatal("drained channel still holds a value")
	}
	v.Sleep(time.Millisecond)
}

// TestSameInstantWakesRunInOrder: actors woken at one instant resume in
// the order they were woken - deadlines in creation order, then whatever
// those actors ready - one at a time, so the interleaving is the same on
// every run whatever the Go scheduler does.
func TestSameInstantWakesRunInOrder(t *testing.T) {
	run := func() []int {
		v := NewVirtual()
		var order []int
		relay := make(chan struct{}, 1)
		var mu Mutex
		mu.SetClock(v)
		g := NewGroup(v)
		g.Go(func() { // readied at 5ms by actor 1's send, after 1..3's deadlines
			WaitRecv[struct{}](v, relay, 0)
			order = append(order, 0)
		})
		for i := 1; i <= 3; i++ {
			g.Go(func() {
				v.Sleep(5 * time.Millisecond)
				order = append(order, i)
				if i == 1 {
					NotifySend(v, relay, struct{}{})
				}
				mu.Lock() // 2 and 3 queue behind 1, which sleeps holding it
				order = append(order, 10*i)
				v.Sleep(time.Millisecond)
				mu.Unlock()
			})
		}
		g.Wait()
		return order
	}
	want := []int{1, 10, 2, 3, 0, 20, 30}
	for rep := 0; rep < 20; rep++ {
		if got := run(); !slices.Equal(got, want) {
			t.Fatalf("run %d resumed in order %v, want %v", rep, got, want)
		}
	}
}

// TestNotifySendToBusyReceiver: a signal sent while its receiver is busy
// sleeping waits in the channel - the receiver finds it on its next
// WaitRecv - and time goes on advancing meanwhile.
func TestNotifySendToBusyReceiver(t *testing.T) {
	v := NewVirtual()
	sig := make(chan bool, 1)
	var got []time.Duration
	g := NewGroup(v)
	g.Go(func() {
		for {
			if more, _ := WaitRecv(v, sig, 0); !more {
				return
			}
			got = append(got, v.Elapsed())
			v.Sleep(10 * time.Millisecond) // busy: not parked on sig
		}
	})
	NotifySend(v, sig, true)
	v.Sleep(time.Millisecond)
	NotifySend(v, sig, true) // lands mid-sleep
	v.Sleep(20 * time.Millisecond)
	NotifySend(v, sig, false)
	g.Wait()
	if want := []time.Duration{0, 10 * time.Millisecond}; !slices.Equal(got, want) {
		t.Fatalf("signals handled at %v, want %v", got, want)
	}
	if e := v.Elapsed(); e != 21*time.Millisecond {
		t.Fatalf("elapsed %v, want 21ms", e)
	}
}

// TestGroupTokenTransfer: the joiner resumes at the exact virtual instant
// the last worker finishes.
func TestGroupTokenTransfer(t *testing.T) {
	v := NewVirtual()
	g := NewGroup(v)
	g.Go(func() { v.Sleep(4 * time.Millisecond) })
	g.Go(func() { v.Sleep(9 * time.Millisecond) })
	g.Wait()
	if v.Elapsed() != 9*time.Millisecond {
		t.Fatalf("elapsed %v", v.Elapsed())
	}
}

// TestMutexParksContenders: a holder parked inside its critical section
// does not stall the clock when others contend for the lock.
func TestMutexParksContenders(t *testing.T) {
	v := NewVirtual()
	var mu Mutex
	mu.SetClock(v)
	var order []time.Duration
	g := NewGroup(v)
	for i := 0; i < 3; i++ {
		g.Go(func() {
			mu.Lock()
			v.Sleep(2 * time.Millisecond) // park while holding the lock
			order = append(order, v.Elapsed())
			mu.Unlock()
		})
	}
	g.Wait()
	if len(order) != 3 || v.Elapsed() != 6*time.Millisecond {
		t.Fatalf("order=%v elapsed=%v", order, v.Elapsed())
	}
}

// TestRealClockBasics sanity-checks the passthrough implementation.
func TestRealClockBasics(t *testing.T) {
	c := Real()
	if c.Now().IsZero() {
		t.Fatal("zero Now")
	}
	ch := make(chan int, 1)
	NotifySend[int](c, ch, 3)
	if got, ok := WaitRecv[int](c, ch, time.Second); !ok || got != 3 {
		t.Fatalf("real WaitRecv (%d,%v)", got, ok)
	}
	if _, ok := WaitRecv[int](c, ch, time.Millisecond); ok {
		t.Fatal("real WaitRecv should time out")
	}
	g := NewGroup(c)
	var n atomic.Int32
	g.Go(func() { n.Add(1) })
	g.Wait()
	if n.Load() != 1 {
		t.Fatal("real group")
	}
	var hits [3]atomic.Int32
	Fan(c, len(hits), &hits, func(arg any, i int) { arg.(*[3]atomic.Int32)[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("real Fan ran member %d %d times", i, hits[i].Load())
		}
	}
}

// TestVirtualDeterminism: the same actor program yields the same
// simulated duration on repeated runs.
func TestVirtualDeterminism(t *testing.T) {
	run := func() time.Duration {
		v := NewVirtual()
		g := NewGroup(v)
		for i := 1; i <= 8; i++ {
			d := time.Duration(i) * time.Millisecond
			g.Go(func() {
				for j := 0; j < 5; j++ {
					v.Sleep(d)
				}
			})
		}
		g.Wait()
		return v.Elapsed()
	}
	a, b := run(), run()
	if a != b || a != 40*time.Millisecond {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
}

// TestWaitIdle: the caller parks while background actors drain; WaitIdle
// returns once no actor can run and no event is pending, and the caller
// may keep using the clock.
func TestWaitIdle(t *testing.T) {
	v := NewVirtual()
	var done atomic.Int64
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		v.Go(func() {
			v.Sleep(d)
			done.Add(1)
		})
	}
	v.WaitIdle()
	if done.Load() != 3 {
		t.Fatalf("WaitIdle returned with %d/3 actors unfinished", done.Load())
	}
	if got := v.Elapsed(); got != 30*time.Millisecond {
		t.Fatalf("elapsed %v, want 30ms", got)
	}
	// The caller can still drive the clock.
	v.Sleep(5 * time.Millisecond)
	if got := v.Elapsed(); got != 35*time.Millisecond {
		t.Fatalf("post-idle sleep elapsed %v, want 35ms", got)
	}
}

// TestWaitIdleImmediate: with nothing running, WaitIdle returns at once
// without advancing time.
func TestWaitIdleImmediate(t *testing.T) {
	v := NewVirtual()
	v.WaitIdle()
	if got := v.Elapsed(); got != 0 {
		t.Fatalf("idle clock advanced to %v", got)
	}
}

// TestWaitIdleSkipsParkedDaemon: an actor parked on a channel with no
// deadline (an idle daemon waiting for work) does not block idleness.
func TestWaitIdleSkipsParkedDaemon(t *testing.T) {
	v := NewVirtual()
	wake := make(chan struct{}, 1)
	daemon := NewGroup(v)
	daemon.Go(func() {
		WaitRecv[struct{}](v, wake, 0) // parks with no deadline
	})
	v.Go(func() { v.Sleep(10 * time.Millisecond) })
	v.WaitIdle() // must not hang on the parked daemon
	if got := v.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("elapsed %v, want 10ms", got)
	}
	NotifySend(v, wake, struct{}{})
	daemon.Wait()
}

// TestSettleWaitsOutTheInstant: a settler woken at instant T must observe
// every same-instant actor's work - including a chain readied by a send at
// T - before it runs, with no time advance.
func TestSettleWaitsOutTheInstant(t *testing.T) {
	v := NewVirtual()
	var x atomic.Int64
	relay := make(chan struct{}, 1)
	g := NewGroup(v)
	g.Go(func() { // settler at T, woken first
		v.Sleep(10 * time.Millisecond)
		Settle(v)
		if got := x.Load(); got != 2 {
			t.Errorf("settler saw x=%d, want 2", got)
		}
		if got := v.Elapsed(); got != 10*time.Millisecond {
			t.Errorf("settling advanced time to %v", got)
		}
	})
	g.Go(func() { // chain tail: readied at T by the send below
		WaitRecv[struct{}](v, relay, 0)
		x.Add(1)
		v.Sleep(5 * time.Millisecond)
	})
	g.Go(func() { // ordinary actor at T
		v.Sleep(10 * time.Millisecond)
		x.Add(1)
		NotifySend(v, relay, struct{}{})
		v.Sleep(5 * time.Millisecond)
	})
	g.Wait()
}

// TestSettleRealNoop: Settle returns at once on the real clock.
func TestSettleRealNoop(t *testing.T) {
	done := make(chan struct{})
	go func() { Settle(Real()); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Settle(Real()) blocked")
	}
}

// TestParkingReusesItsWakeState: an actor parks on its own record, so
// parking allocates nothing in steady state - and the record never carries
// a stale wake or deadline into its next wait, however the previous wait
// ended (deadline, value, or both at one instant).
func TestParkingReusesItsWakeState(t *testing.T) {
	v := NewVirtual()
	var mu Mutex
	mu.SetClock(v)
	ch := make(chan int, 1)
	for name, park := range map[string]func(){
		"Sleep":  func() { v.Sleep(time.Millisecond) },
		"Settle": func() { Settle(v) },
		"WaitRecv deadline": func() {
			if _, ok := WaitRecv[int](v, ch, time.Millisecond); ok {
				t.Fatal("value from an empty channel")
			}
		},
	} {
		park()
		if got := testing.AllocsPerRun(200, park); got != 0 {
			t.Errorf("%s: %v allocations per park, want 0", name, got)
		}
	}

	// Every way a deadline wait can end, interleaved with sleeps and lock
	// hand-offs that reuse the same actor records: any stale wake would
	// end a later wait early and show as a wrong elapsed time or value.
	start := v.Elapsed()
	g := NewGroup(v)
	for i := 0; i < 200; i++ {
		i := i
		g.Go(func() { // deliver at 1ms: before, at, or never within the waiter's deadline
			if i%4 != 3 {
				v.Sleep(time.Millisecond)
				mu.Lock()
				NotifySend[int](v, ch, i)
				mu.Unlock()
			}
		})
		timeout := []time.Duration{2 * time.Millisecond, time.Millisecond, 0, time.Millisecond}[i%4]
		t0 := v.Elapsed()
		mu.Lock()
		mu.Unlock()
		val, ok := WaitRecv[int](v, ch, timeout)
		if !ok && i%4 != 3 { // the deadline fired first at the delivery instant: the value is about to land
			val, ok = WaitRecv[int](v, ch, 0)
		}
		if i%4 == 3 {
			if ok {
				t.Fatalf("round %d: received %d though nothing was sent", i, val)
			}
		} else if !ok || val != i {
			t.Fatalf("round %d: received (%d, %v)", i, val, ok)
		}
		if got := v.Elapsed() - t0; got != time.Millisecond {
			t.Fatalf("round %d: wait took %v of virtual time, want 1ms", i, got)
		}
		g.Wait()
	}
	if got := v.Elapsed() - start; got != 200*time.Millisecond {
		t.Fatalf("200 rounds took %v of virtual time, want 200ms", got)
	}
}

// goid is the calling goroutine's id, from its stack header.
func goid() string {
	var buf [64]byte
	s := string(buf[:runtime.Stack(buf[:], false)])
	id, _, _ := strings.Cut(strings.TrimPrefix(s, "goroutine "), " ")
	return id
}

// grow recurses through depth frames of a few hundred bytes each, growing
// the calling goroutine's stack the way a message handler running down to
// the simulated disk does.
func grow(depth int) int {
	var pad [256]byte
	pad[depth%len(pad)] = byte(depth)
	if depth == 0 {
		return int(pad[0])
	}
	return grow(depth-1) + int(pad[depth%len(pad)])
}

// TestActorKeepsItsWorker: an actor body runs on a reused worker, so once
// one body has grown a stack, later actors run on that coroutine - its
// stack already grown - instead of starting a new one; and a Fan
// allocates nothing.
func TestActorKeepsItsWorker(t *testing.T) {
	v := NewVirtual()
	g := NewGroup(v)
	var first string
	g.Go(func() {
		grow(200)
		first = goid()
	})
	g.Wait()
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		var id string
		g.Go(func() { id = goid() })
		g.Wait()
		if id != first {
			t.Fatalf("cycle %d ran on goroutine %s, not the reused worker %s", i, id, first)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d over 1000 Go/Wait cycles", before, after)
	}

	var sum atomic.Int64
	fan := func(arg any, i int) { arg.(*atomic.Int64).Add(int64(i)) }
	Fan(v, 3, &sum, fan)
	if got := testing.AllocsPerRun(200, func() { Fan(v, 3, &sum, fan) }); got != 0 {
		t.Errorf("Fan of 3: %v allocations per call, want 0", got)
	}
	if got := sum.Load(); got != 3*202 {
		t.Errorf("Fan members summed to %d, want %d", got, 3*202)
	}
}

// TestFanArgAllocatesNothing: a Fan whose members share a pointer argument
// and a GoArg joined through a Group allocate nothing on the virtual clock,
// and each member sees the argument and its own index.
func TestFanArgAllocatesNothing(t *testing.T) {
	v := NewVirtual()
	type tally struct{ seen [4]int }
	var tl tally
	member := func(arg any, i int) { arg.(*tally).seen[i]++ }
	Fan(v, len(tl.seen), &tl, member)
	if got := testing.AllocsPerRun(100, func() { Fan(v, len(tl.seen), &tl, member) }); got != 0 {
		t.Errorf("Fan with an argument: %v allocations per call, want 0", got)
	}
	for i, n := range tl.seen {
		if n != 102 {
			t.Errorf("member %d ran %d times, want 102", i, n)
		}
	}
	var async tally
	GoArg(v, &async, member)
	v.Sleep(time.Millisecond)
	if got := testing.AllocsPerRun(100, func() { GoArg(v, &async, member); v.Sleep(time.Millisecond) }); got != 0 {
		t.Errorf("GoArg: %v allocations per call, want 0", got)
	}
	if async.seen[0] != 102 {
		t.Errorf("GoArg body ran %d times, want 102", async.seen[0])
	}
}

// TestIdleWorkersCapped: clocks that are discarded after a burst of
// concurrent actors leave no more than maxIdleWorkers idle workers.
func TestIdleWorkersCapped(t *testing.T) {
	for c := 0; c < 100; c++ {
		v := NewVirtual()
		g := NewGroup(v)
		for i := 0; i < 200; i++ {
			g.Go(func() { v.Sleep(time.Millisecond) })
		}
		g.Wait()
		idleWorkers.mu.Lock()
		n := len(idleWorkers.ws)
		idleWorkers.mu.Unlock()
		if n > maxIdleWorkers {
			t.Fatalf("clock %d: %d idle workers, cap %d", c, n, maxIdleWorkers)
		}
	}
}

func panicOuter()  { panicMiddle() }
func panicMiddle() { panicInner() }
func panicInner()  { panic("actor failed") }

// TestActorPanicCarriesItsStack: a body that panics after parking, two
// resumes deep (the root resumed one actor, which resumed it), has its
// panic re-raised in the root's park, and the value names the function
// that panicked, not only the root's frames - with the stack attached
// once, not again by the actor it passed through.
func TestActorPanicCarriesItsStack(t *testing.T) {
	v := NewVirtual()
	v.Go(func() {
		v.Go(func() {
			v.Sleep(time.Millisecond)
			panicOuter()
		})
		WaitRecv(v, make(chan struct{}), 0) // resumes the panicking actor
	})
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "actor failed") || !strings.Contains(msg, "vtime.panicInner(") {
			t.Fatalf("recovered %q: want the panic value and the actor's frames", msg)
		}
		if n := strings.Count(msg, "actor stack:"); n != 1 {
			t.Fatalf("recovered %q: %d actor stacks, want 1", msg, n)
		}
	}()
	v.Sleep(time.Hour)
	t.Fatal("the root's park returned over a panicking actor")
}

// TestActorGoexitEndsTheRoot: a body that ends its goroutine, as t.FailNow
// does, ends the root's goroutine too, running its defers, whether the
// root resumed it or another actor did; the root does not carry on.
func TestActorGoexitEndsTheRoot(t *testing.T) {
	for name, body := range map[string]func(v *Virtual){
		"one resume deep": func(v *Virtual) { v.Go(runtime.Goexit) },
		"two resumes deep": func(v *Virtual) {
			v.Go(func() {
				v.Go(runtime.Goexit)
				v.Sleep(time.Hour) // resumes the exiting actor
			})
		},
	} {
		ended, returned := make(chan struct{}), false
		go func() {
			defer close(ended)
			v := NewVirtual()
			body(v)
			v.Sleep(time.Millisecond)
			returned = true
		}()
		<-ended
		if returned {
			t.Fatalf("%s: the root carried on after an actor called runtime.Goexit", name)
		}
	}
}

// TestHandOffRing: three actors pass a token round a ring by NotifySend and
// WaitRecv, so each hand-off goes from one worker to another, and one
// member leaves mid-ring.  They run in the run queue's FIFO order, every
// resume is unwound (no actor is left driving), and each exited worker is
// back on the idle list.
func TestHandOffRing(t *testing.T) {
	v := NewVirtual()
	var in [3]chan int
	var members [3]*actor
	var order []int
	const leaver, last = 1, 9
	gone := false
	next := func(i int) int {
		if i = (i + 1) % 3; i == leaver && gone {
			i = (i + 1) % 3
		}
		return i
	}
	g := NewGroup(v)
	for i := range in {
		in[i] = make(chan int, 1)
		g.Go(func() {
			members[i] = v.cur
			order = append(order, 10+i) // started
			for {
				tok, _ := WaitRecv(v, in[i], 0)
				order = append(order, i)
				if tok < 0 {
					return
				}
				if tok == last {
					NotifySend(v, in[next(i)], -1)
					return
				}
				if i == leaver && tok >= 4 {
					gone = true
					NotifySend(v, in[next(i)], tok+1)
					return
				}
				NotifySend(v, in[next(i)], tok+1)
			}
		})
	}
	Settle(v) // every member starts and parks
	NotifySend(v, in[0], 0)
	g.Wait()

	want := []int{10, 11, 12, 0, 1, 2, 0, 1, 2, 0, 2, 0, 2, 0}
	if !slices.Equal(order, want) {
		t.Fatalf("ran in order %v, want %v", order, want)
	}
	if v.root.driving {
		t.Error("the root is left driving")
	}
	idleWorkers.mu.Lock()
	defer idleWorkers.mu.Unlock()
	for i, a := range members {
		if a.driving {
			t.Errorf("member %d is left driving", i)
		}
		if !slices.Contains(idleWorkers.ws, a) {
			t.Errorf("member %d's worker is not on the idle list", i)
		}
	}
}
