package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

func pairNet(t *testing.T, cfg Config, st *stats.Set) (*Network, *Endpoint, *Endpoint) {
	t.Helper()
	n := New(cfg, st)
	a := n.AddSite(1)
	b := n.AddSite(2)
	return n, a, b
}

func TestCallRoundTrip(t *testing.T) {
	st := stats.NewSet()
	_, a, b := pairNet(t, Config{}, st)
	b.Handle("echo", func(from SiteID, req any) (any, error) {
		if from != 1 {
			t.Errorf("from = %v, want site1", from)
		}
		return "re:" + req.(string), nil
	})
	resp, err := a.Call(2, "echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "re:hello" {
		t.Fatalf("resp = %v", resp)
	}
	if st.Get(stats.RPCs) != 1 {
		t.Fatalf("RPCs = %d, want 1", st.Get(stats.RPCs))
	}
	if st.Get(stats.MsgsSent) != 2 {
		t.Fatalf("MsgsSent = %d, want 2 (request+response)", st.Get(stats.MsgsSent))
	}
}

func TestLocalCallSendsNoMessages(t *testing.T) {
	st := stats.NewSet()
	_, a, _ := pairNet(t, Config{}, st)
	a.Handle("op", func(from SiteID, req any) (any, error) { return 42, nil })
	resp, err := a.Call(1, "op", nil)
	if err != nil || resp != 42 {
		t.Fatalf("local call = %v, %v", resp, err)
	}
	if st.Get(stats.MsgsSent) != 0 {
		t.Fatalf("local call sent %d messages", st.Get(stats.MsgsSent))
	}
}

func TestRemoteHandlerError(t *testing.T) {
	_, a, b := pairNet(t, Config{}, nil)
	b.Handle("fail", func(from SiteID, req any) (any, error) {
		return nil, errors.New("boom")
	})
	_, err := a.Call(2, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if re.Err == nil || re.Err.Error() != "boom" || re.Site != 2 || re.Op != "fail" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestUnknownSiteAndHandler(t *testing.T) {
	_, a, _ := pairNet(t, Config{CallTimeout: 100 * time.Millisecond}, nil)
	if _, err := a.Call(9, "x", nil); !errors.Is(err, ErrUnknownSite) {
		t.Fatalf("unknown site err = %v", err)
	}
	// No handler registered on site 2: surfaces as a timeout-free error.
	if _, err := a.Call(2, "nope", nil); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("no handler err = %v", err)
	}
}

func TestCrashedSiteUnreachable(t *testing.T) {
	n, a, b := pairNet(t, Config{CallTimeout: 100 * time.Millisecond}, nil)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	n.CrashSite(2)
	if n.Reachable(2, 2) {
		t.Fatal("reachable after crash")
	}
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("call to crashed site: %v", err)
	}
	n.RestartSite(2)
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

func TestPartitionBlocksAndHealRestores(t *testing.T) {
	n, a, b := pairNet(t, Config{CallTimeout: 100 * time.Millisecond}, nil)
	b.Handle("op", func(SiteID, any) (any, error) { return "ok", nil })
	n.Partition(2)
	if n.Reachable(1, 2) {
		t.Fatal("Reachable across partition")
	}
	if _, err := a.Call(2, "op", nil); err == nil {
		t.Fatal("call across partition succeeded")
	}
	// Sites inside the same partition can still talk.
	if !n.Reachable(2, 2) {
		t.Fatal("site unreachable from itself")
	}
	n.Heal()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("call after heal: %v", err)
	}
}

func TestTopologyWatch(t *testing.T) {
	n, _, _ := pairNet(t, Config{}, nil)
	events := make(chan TopologyEvent, 8)
	n.Watch(func(ev TopologyEvent) { events <- ev })

	n.CrashSite(2)
	ev := <-events
	if ev.Kind != SiteDown || len(ev.Sites) != 1 || ev.Sites[0] != 2 {
		t.Fatalf("event = %+v", ev)
	}
	n.RestartSite(2)
	if ev = <-events; ev.Kind != SiteUp {
		t.Fatalf("event = %+v", ev)
	}
	n.Partition(1)
	if ev = <-events; ev.Kind != Partitioned {
		t.Fatalf("event = %+v", ev)
	}
	n.Heal()
	if ev = <-events; ev.Kind != Healed {
		t.Fatalf("event = %+v", ev)
	}
	// Double-crash emits no duplicate event.
	n.CrashSite(2)
	<-events
	n.CrashSite(2)
	select {
	case ev := <-events:
		t.Fatalf("duplicate crash event: %+v", ev)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestDropCausesTimeout(t *testing.T) {
	n, a, b := pairNet(t, Config{CallTimeout: 50 * time.Millisecond}, nil)
	n.SetDropRate(1.0)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("dropped call err = %v", err)
	}
}

// retry is ExchangeRetry on an untyped payload: the retrying call the
// TestCallRetry* tests exercise.
func retry(e *Endpoint, to SiteID, op string) (any, error) {
	resp, err := ExchangeRetry[boxed](e, to, op, boxed{})
	return resp.v, err
}

func TestCallRetrySucceedsAfterLoss(t *testing.T) {
	// A lossy network: at this seed the first attempt is lost and a later
	// one, within the four, gets through.
	st := stats.NewSet()
	n, a, b := pairNet(t, Config{CallTimeout: 30 * time.Millisecond, Seed: 42, Clock: vtime.NewVirtual()}, st)
	n.SetDropRate(0.3)
	var calls atomic.Int64
	b.Handle("op", func(SiteID, any) (any, error) {
		calls.Add(1)
		return "ok", nil
	})
	resp, err := retry(a, 2, "op")
	if err != nil {
		t.Fatalf("ExchangeRetry failed: %v", err)
	}
	if resp != "ok" {
		t.Fatalf("resp = %v", resp)
	}
	if calls.Load() == 0 {
		t.Fatal("handler never ran")
	}
	if got := st.Get(stats.RPCs); got < 2 || got > retryAttempts {
		t.Fatalf("%d attempts, want a lost one and success within %d", got, retryAttempts)
	}
}

func TestCallRetryStopsOnRemoteError(t *testing.T) {
	_, a, b := pairNet(t, Config{}, nil)
	var calls atomic.Int64
	b.Handle("op", func(SiteID, any) (any, error) {
		calls.Add(1)
		return nil, errors.New("app error")
	})
	_, err := retry(a, 2, "op")
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1 (no retry on app error)", calls.Load())
	}
}

func TestLatencyIsApplied(t *testing.T) {
	_, a, b := pairNet(t, Config{Latency: 20 * time.Millisecond}, nil)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	start := time.Now()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 40*time.Millisecond {
		t.Fatalf("RTT = %v, want >= 40ms (two 20ms legs)", rtt)
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestPayloadSizing(t *testing.T) {
	st := stats.NewSet()
	_, a, b := pairNet(t, Config{}, st)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	if _, err := a.Call(2, "op", sized{1024}); err != nil {
		t.Fatal(err)
	}
	// Request charged 1024, response (nil payload) charged the small
	// message default.
	want := int64(1024 + smallMsgBytes)
	if got := st.Get(stats.BytesSent); got != want {
		t.Fatalf("BytesSent = %d, want %d", got, want)
	}
}

func TestClosedNetwork(t *testing.T) {
	n, a, b := pairNet(t, Config{}, nil)
	b.Handle("op", func(SiteID, any) (any, error) { return nil, nil })
	n.Close()
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrNetClosed) {
		t.Fatalf("call on closed net: %v", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	n := New(Config{}, nil)
	const sites = 4
	eps := make([]*Endpoint, sites)
	for i := 0; i < sites; i++ {
		eps[i] = n.AddSite(SiteID(i))
	}
	for i := 0; i < sites; i++ {
		i := i
		eps[i].Handle("ping", func(from SiteID, req any) (any, error) {
			return fmt.Sprintf("%d->%d", from, i), nil
		})
	}
	var wg sync.WaitGroup
	errs := make(chan error, sites*sites*10)
	for round := 0; round < 10; round++ {
		for i := 0; i < sites; i++ {
			for j := 0; j < sites; j++ {
				wg.Add(1)
				go func(i, j int) {
					defer wg.Done()
					resp, err := eps[i].Call(SiteID(j), "ping", nil)
					if err != nil {
						errs <- err
						return
					}
					if want := fmt.Sprintf("%d->%d", i, j); resp != want {
						errs <- fmt.Errorf("resp = %v, want %v", resp, want)
					}
				}(i, j)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestEventKindStrings(t *testing.T) {
	for _, k := range []TopologyEventKind{SiteDown, SiteUp, Partitioned, Healed} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
	if TopologyEventKind(9).String() != "topology(9)" {
		t.Fatal("unknown kind")
	}
	if SiteID(3).String() != "site3" {
		t.Fatal("SiteID.String")
	}
}

func TestPartitionWhileCallInFlight(t *testing.T) {
	// A partition that lands while the request is in transit loses the
	// message: the caller times out rather than receiving a response
	// from across the cut.
	n, a, b := pairNet(t, Config{Latency: 30 * time.Millisecond, CallTimeout: 200 * time.Millisecond}, nil)
	b.Handle("op", func(SiteID, any) (any, error) { return "late", nil })
	done := make(chan error, 1)
	go func() {
		_, err := a.Call(2, "op", nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // request is in flight
	n.Partition(2)
	if err := <-done; err == nil {
		t.Fatal("call completed across an in-flight partition")
	}
	n.Heal()
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestCallRetryBackoffSpacing(t *testing.T) {
	// Four attempts against a crashed site: each fails at once with
	// ErrUnreachable, so the elapsed time is pure backoff.  With jitter in
	// [d/2, d) the three pauses (2, 4 and 8 ms steps) sum to at least
	// 7 ms and less than 14 ms.
	clk := vtime.NewVirtual()
	n, a, _ := pairNet(t, Config{Clock: clk}, nil)
	n.CrashSite(2)
	start := clk.Now()
	_, err := retry(a, 2, "op")
	elapsed := clk.Now().Sub(start)
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	if elapsed < 7*time.Millisecond || elapsed >= 14*time.Millisecond {
		t.Fatalf("elapsed = %v, want in [7ms, 14ms) (exponential backoff between attempts)", elapsed)
	}
}

func TestCallRetryBackoffCap(t *testing.T) {
	// However late the attempt, the pause stays in [cap/2, cap).
	n, _, _ := pairNet(t, Config{}, nil)
	for attempt := 6; attempt < 12; attempt++ {
		if d := n.backoffFor(1, 2, "op", attempt); d < retryCap/2 || d >= retryCap {
			t.Fatalf("attempt %d: pause %v outside [%v, %v)", attempt, d, retryCap/2, retryCap)
		}
	}
}

func TestCallRetryDefaultAttempts(t *testing.T) {
	// Every message is lost, so each attempt costs one RPC and the whole
	// call timeout; the caller gives up after the four tries.
	st := stats.NewSet()
	clk := vtime.NewVirtual()
	n, a, b := pairNet(t, Config{CallTimeout: 50 * time.Millisecond, Clock: clk}, st)
	b.Handle("op", func(SiteID, any) (any, error) { return "ok", nil })
	n.SetDropRate(1)
	if _, err := retry(a, 2, "op"); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if got := st.Get(stats.RPCs); got != retryAttempts {
		t.Fatalf("%d attempts, want %d", got, retryAttempts)
	}
	// No sleeping on first-try success.
	n.SetDropRate(0)
	start := clk.Now()
	if _, err := retry(a, 2, "op"); err != nil {
		t.Fatal(err)
	}
	if elapsed := clk.Now().Sub(start); elapsed != 0 {
		t.Fatalf("successful first attempt slept %v", elapsed)
	}
}

func TestExchangeRetryEndsWithItsSender(t *testing.T) {
	// The sender crashes and restarts while its first attempt is in the
	// air: the attempt is lost, and the retry makes no second one.
	st := stats.NewSet()
	clk := vtime.NewVirtual()
	n, a, b := pairNet(t, Config{CallTimeout: 50 * time.Millisecond, Clock: clk}, st)
	b.Handle("op", func(SiteID, any) (any, error) { return "ok", nil })
	n.SetDropRate(1)
	g := vtime.NewGroup(clk)
	var err error
	g.Go(func() { _, err = retry(a, 2, "op") })
	clk.Sleep(10 * time.Millisecond)
	n.CrashSite(1)
	n.RestartSite(1)
	n.SetDropRate(0)
	g.Wait()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want the lost attempt's timeout", err)
	}
	if got := st.Get(stats.RPCs); got != 1 {
		t.Fatalf("%d attempts, want 1: a retry ends with its sender", got)
	}
}

func TestRestartWaitsForSiteDownReactions(t *testing.T) {
	// A reaction to a crash that parks on the clock has finished before
	// RestartSite returns, so it cannot act on the restarted site.
	clk := vtime.NewVirtual()
	n, _, _ := pairNet(t, Config{Clock: clk}, nil)
	var reacted time.Duration
	n.Watch(func(ev TopologyEvent) {
		if ev.Kind == SiteDown {
			clk.Sleep(30 * time.Millisecond)
			reacted = clk.Elapsed()
		}
	})
	n.CrashSite(2)
	n.RestartSite(2)
	if reacted != 30*time.Millisecond || clk.Elapsed() != reacted {
		t.Fatalf("SiteDown reaction finished at %v, RestartSite returned at %v; want both at 30ms", reacted, clk.Elapsed())
	}
	if !n.Reachable(2, 2) {
		t.Fatal("site 2 still down")
	}
}

func TestDuplicateDelivery(t *testing.T) {
	// DupRate 1: every delivered request runs the handler twice, and the
	// caller still gets exactly one (the first) response.
	n, a, b := pairNet(t, Config{}, nil)
	n.SetDupRate(1.0)
	var calls atomic.Int64
	b.Handle("op", func(SiteID, any) (any, error) {
		return calls.Add(1), nil
	})
	resp, err := a.Call(2, "op", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp != int64(1) {
		t.Fatalf("resp = %v, want first invocation's result", resp)
	}
	// The duplicate runs inline, before the call returns.
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2", n)
	}
}

func TestBlockLinkIsOneWay(t *testing.T) {
	n, a, b := pairNet(t, Config{CallTimeout: 50 * time.Millisecond}, nil)
	a.Handle("op", func(SiteID, any) (any, error) { return "from-a", nil })
	b.Handle("op", func(SiteID, any) (any, error) { return "from-b", nil })

	n.BlockLink(1, 2)
	if _, err := a.Call(2, "op", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("blocked direction err = %v, want unreachable", err)
	}
	// The reverse link is open: a Call from 2 to 1 delivers its request,
	// but the response must cross the blocked 1 -> 2 link and is lost, so
	// the caller times out.
	var pinged atomic.Int64
	a.Handle("ping", func(SiteID, any) (any, error) { pinged.Add(1); return nil, nil })
	if _, err := b.Call(1, "ping", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("reverse direction err = %v, want a timeout (response lost)", err)
	}
	if pinged.Load() != 1 {
		t.Fatal("reverse direction blocked by a one-way cut")
	}
	n.UnblockLink(1, 2)
	if _, err := a.Call(2, "op", nil); err != nil {
		t.Fatalf("after unblock: %v", err)
	}
	// Heal clears link blocks too.
	n.BlockLink(2, 1)
	n.Heal()
	if _, err := b.Call(1, "op", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestFaultFilterDropsMatchingOps(t *testing.T) {
	n, a, b := pairNet(t, Config{CallTimeout: 40 * time.Millisecond}, nil)
	var calls atomic.Int64
	b.Handle("keep", func(SiteID, any) (any, error) { return "ok", nil })
	b.Handle("drop", func(SiteID, any) (any, error) { calls.Add(1); return "ok", nil })
	n.SetFaultFilter(func(from, to SiteID, op string) bool {
		return op == "drop" && to == 2
	})
	if _, err := a.Call(2, "drop", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("filtered op err = %v, want timeout", err)
	}
	if calls.Load() != 0 {
		t.Fatal("filtered request reached the handler")
	}
	if _, err := a.Call(2, "keep", nil); err != nil {
		t.Fatalf("unfiltered op: %v", err)
	}
	n.SetFaultFilter(nil)
	if _, err := a.Call(2, "drop", nil); err != nil {
		t.Fatalf("after filter removed: %v", err)
	}
}

// TestOneCallRuleOnBothClocks pins Call's single semantics: on the real and
// the virtual clock alike, each way an exchange can go wrong gives the same
// error and charges the same RPCs, messages and transit time, and a handler
// slower than CallTimeout times its caller out only once it has returned.
func TestOneCallRuleOnBothClocks(t *testing.T) {
	const latency, timeout = 2 * time.Millisecond, 40 * time.Millisecond
	cases := []struct {
		name    string
		dup     bool
		filter  FaultFilter
		handler func(clk vtime.Clock) (any, error)
		wantErr error // nil: the first invocation's "ok"
		// Messages sent, transit legs charged and handler invocations.
		msgs, legs, runs int64
	}{
		{name: "request lost", filter: func(from, _ SiteID, _ string) bool { return from == 1 },
			wantErr: ErrTimeout, msgs: 1, legs: 1, runs: 0},
		{name: "reply lost", filter: func(from, _ SiteID, _ string) bool { return from == 2 },
			wantErr: ErrTimeout, msgs: 2, legs: 2, runs: 1},
		{name: "no reply", handler: func(vtime.Clock) (any, error) { return nil, ErrNoReply },
			wantErr: ErrTimeout, msgs: 1, legs: 1, runs: 1},
		{name: "handler slower than the timeout", handler: func(clk vtime.Clock) (any, error) {
			clk.Sleep(2 * timeout)
			return "ok", nil
		}, wantErr: ErrTimeout, msgs: 2, legs: 2, runs: 1},
		{name: "duplicate delivery", dup: true, msgs: 2, legs: 2, runs: 2},
	}
	clocks := []struct {
		name string
		clk  func() vtime.Clock
	}{
		{"real", vtime.Real},
		{"virtual", func() vtime.Clock { return vtime.NewVirtual() }},
	}
	for _, tc := range cases {
		for _, c := range clocks {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				clk := c.clk()
				st := stats.NewSet()
				n, a, b := pairNet(t, Config{Latency: latency, CallTimeout: timeout, Clock: clk}, st)
				n.SetFaultFilter(tc.filter)
				if tc.dup {
					n.SetDupRate(1)
				}
				var runs, returned int64
				b.Handle("op", func(SiteID, any) (any, error) {
					defer func() { returned++ }()
					if runs++; runs == 1 && tc.handler != nil {
						return tc.handler(clk)
					}
					return "ok", nil
				})
				start := clk.Now()
				resp, err := a.Call(2, "op", nil)
				elapsed := clk.Now().Sub(start)
				if tc.wantErr == nil && (err != nil || resp != "ok") {
					t.Fatalf("Call = %v, %v; want the first invocation's ok", resp, err)
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Call err = %v, want %v", err, tc.wantErr)
				}
				if tc.wantErr != nil && elapsed < timeout {
					t.Errorf("gave up after %v, before the %v timeout", elapsed, timeout)
				}
				if returned != runs {
					t.Errorf("Call returned with %d of %d handler invocations still running", runs-returned, runs)
				}
				got := [...]int64{st.Get(stats.RPCs), st.Get(stats.MsgsSent), st.Registry().Counter("net_transit_ns").Get(), runs}
				if want := [...]int64{1, tc.msgs, tc.legs * latency.Nanoseconds(), tc.runs}; got != want {
					t.Errorf("RPCs, MsgsSent, net_transit_ns, handler runs = %v, want %v", got, want)
				}
			})
		}
	}
}

// A remote Call on the virtual clock allocates nothing: the exchange is
// straight-line code on the caller's stack.
func TestVirtualCallAllocatesNothing(t *testing.T) {
	_, a, b := pairNet(t, Config{Latency: time.Millisecond, Clock: vtime.NewVirtual()}, stats.NewSet())
	b.Handle("echo", func(_ SiteID, req any) (any, error) { return req, nil })
	call := func() {
		if _, err := a.Call(2, "echo", 7); err != nil {
			t.Fatal(err)
		}
	}
	call() // the first call creates the link handles
	if got := testing.AllocsPerRun(200, call); got != 0 {
		t.Errorf("%v allocations per remote call, want 0", got)
	}
}

func TestBackoffJitterDeterministicPerCall(t *testing.T) {
	// The retry pause is a pure function of (seed, from, to, op, attempt):
	// same-seed runs reproduce it exactly no matter how goroutines
	// interleave, which the byte-identical trace check relies on.
	cfg := Config{Seed: 99}
	n1, _, _ := pairNet(t, cfg, nil)
	n2, _, _ := pairNet(t, cfg, nil)
	for attempt := 0; attempt < 6; attempt++ {
		d1 := n1.backoffFor(1, 2, "prepare", attempt)
		d2 := n2.backoffFor(1, 2, "prepare", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: same-seed networks disagree: %v vs %v", attempt, d1, d2)
		}
		// Bounds: jitter keeps the pause in [d/2, d) of the exponential
		// step, capped.
		step := min(retryBase<<attempt, retryCap)
		if d1 < step/2 || d1 >= step {
			t.Fatalf("attempt %d: pause %v outside [%v, %v)", attempt, d1, step/2, step)
		}
	}
	// Concurrent retriers decorrelate: distinct call identities hash to
	// distinct pauses (with overwhelming probability for this seed).
	base := n1.backoffFor(1, 2, "prepare", 3)
	varied := 0
	for _, d := range []time.Duration{
		n1.backoffFor(2, 1, "prepare", 3),
		n1.backoffFor(1, 3, "prepare", 3),
		n1.backoffFor(1, 2, "commit2", 3),
		n1.backoffFor(1, 2, "prepare", 4),
	} {
		if d != base {
			varied++
		}
	}
	if varied == 0 {
		t.Fatal("every call identity produced the same jitter")
	}
	// A different seed shifts the jitter stream.
	n3, _, _ := pairNet(t, Config{Seed: 100}, nil)
	diff := false
	for attempt := 0; attempt < 6 && !diff; attempt++ {
		diff = n3.backoffFor(1, 2, "prepare", attempt) != n1.backoffFor(1, 2, "prepare", attempt)
	}
	if !diff {
		t.Fatal("seed does not influence the jitter")
	}
}
