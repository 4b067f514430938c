package vtime

import (
	"slices"
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

// TestGateMultipleWaiters: several actors join one completion.
func TestGateMultipleWaiters(t *testing.T) {
	v := NewVirtual()
	gate := NewGate(v)
	var woke atomic.Int32
	g := NewGroup(v)
	for i := 0; i < 3; i++ {
		g.Go(func() {
			gate.Wait()
			woke.Add(1)
		})
	}
	v.Go(func() {
		v.Sleep(2 * time.Millisecond)
		gate.Release()
	})
	g.Wait()
	if woke.Load() != 3 {
		t.Fatalf("woke %d", woke.Load())
	}
	gate.Wait() // released gate returns immediately
	v.Sleep(time.Millisecond)
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
	exited := NewGate(v)
	v.Go(func() {
		defer exited.Release()
		WaitRecv[struct{}](v, wake, 0) // parks with no deadline
	})
	v.Go(func() { v.Sleep(10 * time.Millisecond) })
	v.WaitIdle() // must not hang on the parked daemon
	if got := v.Elapsed(); got != 10*time.Millisecond {
		t.Fatalf("elapsed %v, want 10ms", got)
	}
	NotifySend(v, wake, struct{}{})
	exited.Wait()
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

// TestParkingReusesItsWakeState: a wake is one send on a pooled cap-1
// channel, so parking allocates nothing in steady state - and a reused
// channel or event never carries a stale wake into its next use, however
// the previous wait ended (deadline, value, or both at one instant).
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
	// hand-offs that reuse the same pooled state: any stale wake would
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
