package scenario

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lockmgr"
	"repro/internal/vtime"
)

// commitOne creates path from site 1 and commits data into it.
func commitOne(e *Env, path, data string) {
	p := Must(e.Sys.NewProcess(1))
	f := Must(p.Create(path))
	Ok(e.Txn(p, func() error {
		_, err := f.WriteAt([]byte(data), 0)
		return err
	}))
	Ok(f.Close())
}

// TestBodyErrorAbortsCleanly: a transaction whose body fails is aborted,
// tallied as an abort, leaves no trace of its write, and the recovered
// cluster audits clean.
func TestBodyErrorAbortsCleanly(t *testing.T) {
	boom := errors.New("body gave up")
	var got string
	out, err := Run(Scenario{
		Spec:  Spec{Volumes: PerSite(2), Trace: true},
		Setup: func(e *Env) { commitOne(e, "v2/f", "before") },
		Clients: []func(*Env){func(e *Env) {
			p, files, err := e.Open(1, "v2/f")
			Ok(err)
			if err := e.Txn(p, func() error {
				if _, err := files[0].WriteAt([]byte("after!"), 0); err != nil {
					return err
				}
				return boom
			}); !errors.Is(err, boom) {
				t.Errorf("Txn = %v, want the body's error", err)
			}
			if p.InTxn() {
				t.Error("process still in a transaction after a failed body")
			}
		}},
		Recover: RestartAll,
		Files:   []string{"v2/f"},
		Check: func(e *Env, _ *Outcome) {
			_, files, err := e.Open(2, "v2/f")
			Ok(err)
			buf := make([]byte, 6)
			Must(files[0].ReadAt(buf, 0))
			got = string(buf)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Commits != 0 || out.Aborts != 1 || len(out.Latencies) != 0 {
		t.Errorf("tallies = %d commits %d aborts %d latencies, want 0/1/0 (setup is not counted)", out.Commits, out.Aborts, len(out.Latencies))
	}
	if !out.Checks.OK() || len(out.Checks) != 4 {
		t.Errorf("audit after an aborted body: %v", out.Checks)
	}
	if got != "before" {
		t.Errorf("committed content = %q, want the pre-transaction bytes", got)
	}
}

// TestMustFailureIsRunsError: a Must failure in setup, a client or the
// check abandons that step and comes back as Run's error.
func TestMustFailureIsRunsError(t *testing.T) {
	boom := errors.New("cannot happen")
	fail := func(*Env) { Ok(boom) }
	for name, sc := range map[string]Scenario{
		"setup":  {Setup: fail},
		"client": {Clients: []func(*Env){func(*Env) {}, fail}},
		"check":  {Check: func(e *Env, _ *Outcome) { fail(e) }},
	} {
		sc.Spec = Spec{Volumes: PerSite(1), Virtual: true}
		if _, err := Run(sc); !errors.Is(err, boom) {
			t.Errorf("%s: Run = %v, want the Must failure", name, err)
		}
	}
}

// timeline is a three-fault schedule whose effects are harmless.
var timeline = Schedule{
	{At: 20 * time.Millisecond, Kind: FaultLatency, Dur: time.Millisecond},
	{At: 45 * time.Millisecond, Kind: FaultDup, Rate: 0.1},
	{At: 70 * time.Millisecond, Kind: FaultLatency},
}

// runTimeline drives timeline (plus one fault beyond the window) against
// idle clients and returns each injection's offset from the clients'
// start, in firing order.
func runTimeline(t *testing.T, spec Spec) (fired []time.Duration, out *Outcome) {
	t.Helper()
	var mu sync.Mutex
	var env *Env
	var start time.Time
	spec.Volumes = PerSite(2)
	out, err := Run(Scenario{
		Spec:  spec,
		Setup: func(e *Env) { env, start = e, e.Clock.Now() },
		Clients: []func(*Env){func(e *Env) {
			for !e.Stopped() {
				e.Clock.Sleep(time.Millisecond)
			}
		}},
		Schedule: append(append(Schedule{}, timeline...), Fault{At: time.Hour, Kind: FaultCrash, Site: 1}),
		Window:   100 * time.Millisecond,
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			if strings.HasPrefix(format, "inject") {
				fired = append(fired, env.Clock.Now().Sub(start))
			}
		},
		Check: func(e *Env, _ *Outcome) {
			if v, ok := vtime.AsVirtual(e.Clock); ok {
				if ready, _ := v.DebugState(); ready != 0 {
					t.Errorf("%d actors left ready behind the caller after the join, want none", ready)
				}
			}
			if !e.Sys.Cluster().Site(1).Up() {
				t.Error("the fault scheduled past the window was injected")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return fired, out
}

// TestScheduleFiresAtExactSimulatedInstants: on the virtual clock every
// timed fault fires at exactly its offset, in order; the window stops the
// clients, drops the unfired tail and joins the schedule actor, leaving no
// actor ready behind the caller.
func TestScheduleFiresAtExactSimulatedInstants(t *testing.T) {
	fired, out := runTimeline(t, Spec{Virtual: true})
	if len(fired) != len(timeline) {
		t.Fatalf("fired %v, want %d injections", fired, len(timeline))
	}
	for i, f := range timeline {
		if fired[i] != f.At {
			t.Errorf("fault %d (%s) fired at +%s", i, f, fired[i])
		}
	}
	if out.SimTime < 100*time.Millisecond {
		t.Errorf("SimTime = %s, want the whole window", out.SimTime)
	}
}

// TestScheduleFiresInOrderOnRealClock: on the real clock offsets are
// lower bounds and the order is the schedule's.
func TestScheduleFiresInOrderOnRealClock(t *testing.T) {
	fired, _ := runTimeline(t, Spec{})
	if len(fired) != len(timeline) {
		t.Fatalf("fired %v, want %d injections", fired, len(timeline))
	}
	for i, f := range timeline {
		if fired[i] < f.At || (i > 0 && fired[i] < fired[i-1]) {
			t.Errorf("fault %d (%s) fired at +%s after +%v", i, f, fired[i], fired[:i])
		}
	}
}

// TestArmedFaultPrecedesFirstClientOperation: an armed fault is in place
// before any client runs - here a partition the client's first open
// already cannot cross - and after Setup, which still could.
func TestArmedFaultPrecedesFirstClientOperation(t *testing.T) {
	var order []string
	_, err := Run(Scenario{
		Spec: Spec{Volumes: PerSite(2), Virtual: true, Faults: true},
		Setup: func(e *Env) {
			commitOne(e, "v2/f", "x")
			order = append(order, "setup")
		},
		Armed: Schedule{{Kind: FaultPartition, Site: 2}},
		Logf:  func(format string, args ...any) { order = append(order, fmt.Sprintf(format, args...)) },
		Clients: []func(*Env){func(e *Env) {
			order = append(order, "client")
			if _, _, err := e.Open(1, "v2/f"); err == nil {
				t.Error("first client operation crossed the armed partition")
			}
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " | "); got != "setup | arm 0s:partition:2 | client" {
		t.Errorf("order = %s", got)
	}
}

// TestStuckRecoveryIsAVerdict: a cluster that comes back up but cannot
// drain fails the recovery check and is still audited, so the report
// says both that recovery stuck and what it left behind.
func TestStuckRecoveryIsAVerdict(t *testing.T) {
	out, err := Run(Scenario{
		Spec:    Spec{Volumes: PerSite(1), Virtual: true},
		Recover: RestartCrashed,
		Clients: []func(*Env){func(e *Env) {
			fl := e.Sys.Cluster().Site(1).Locks().File("v1/a", nil)
			Must(fl.Lock(lockmgr.Request{Holder: lockmgr.Holder{PID: 9, Txn: "T9"}, Mode: lockmgr.ModeExclusive, Len: 10}))
		}},
		Check: func(*Env, *Outcome) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, c := range out.Checks {
		if len(c.Violations) > 0 {
			failed = append(failed, c.Name)
		}
	}
	if got := strings.Join(failed, ","); got != "recovery,lock-table" {
		t.Errorf("failed checks = %s, want recovery,lock-table: %v", got, out.Checks.Violations())
	}
}
