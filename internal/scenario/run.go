package scenario

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/simdisk"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Recovery selects how Run brings the cluster back before the audit.
type Recovery int

const (
	// NoRecovery is a measurement run: no restart and no audit.
	NoRecovery Recovery = iota
	// RestartCrashed restarts only the sites whose disks tripped, so the
	// audit sees what recovery from exactly that crash left behind.
	RestartCrashed
	// RestartAll clears every injected fault and crash-restarts every
	// site: the audit then sees only what stable storage and the
	// recovery protocol preserve.
	RestartAll
)

// Scenario is one run as a value: the cluster, the workload, the faults
// it races and what is demanded of the result.
type Scenario struct {
	Spec
	// Setup commits the baseline state, on the calling goroutine, before
	// anything is counted, armed or injected.
	Setup func(*Env)
	// Clients run concurrently, one clock actor each, from one instant.
	Clients []func(*Env)
	// Armed faults are applied in order after Setup and before the first
	// client starts; Schedule faults fire at their At offsets from that
	// instant, in order, while the clients run.
	Armed, Schedule Schedule
	// Window closes the run that long after the clients start: Stopped
	// turns true and the unfired tail of the schedule is dropped.  Zero
	// runs until every client returns.
	Window  time.Duration
	Recover Recovery
	// Files are the workload's paths, for the audit's single-primary
	// check.
	Files []string
	// Check runs last, on the recovered and audited cluster: the
	// workload's own ground truth, appended to the Outcome's Checks.
	Check func(*Env, *Outcome)
	// Logf receives the live injection log (nil = silent).
	Logf func(format string, args ...any)
}

// Outcome is what one run measured and concluded.  Counters, tallies
// and latencies cover the clients' window (and the recovery after it),
// not Setup.
type Outcome struct {
	Counters        stats.Snapshot
	Commits, Aborts int64           // Env.Txn outcomes
	Latencies       []time.Duration // confirmed commits, on the scenario clock
	// Wall and SimTime are the clients' window on the host's and the
	// scenario's clock; SimElapsed is a virtual clock's total since boot,
	// recovery included (zero on the real clock).
	Wall, SimTime, SimElapsed time.Duration
	// Profile and Metrics are the commit critical-path attribution and
	// the final registry snapshot of a Spec.Profile run.
	Profile *telemetry.ProfileReport
	Metrics telemetry.Snapshot
	// Checks holds the audit's verdicts (nil under NoRecovery), led by a
	// failed "recovery" check when the cluster could not be brought back.
	Checks invariant.Report
}

// Env is a live run as its Setup, clients and Check see it.
type Env struct {
	Sys   *core.System
	Clock vtime.Clock
	Trace *trace.Collector // nil (valid, silent) on an untraced spec

	logf func(format string, args ...any)
	stop chan struct{} // closed when the window closes or the clients return
	aux  *vtime.Group  // the schedule actor and its armed-disk monitors

	mu              sync.Mutex // guards the tallies
	commits, aborts int64
	lats            []time.Duration
}

// abort carries a Must failure up to Run.
type abort struct{ err error }

// Must unwraps a harness step that a correct system cannot fail - a
// setup write, an open on a fault-free cluster: on error it abandons the
// calling Setup, client or Check and Run returns the error.  Steps whose
// failure is an outcome (anything racing an injected fault) handle their
// errors instead.
func Must[T any](v T, err error) T {
	Ok(err)
	return v
}

// Ok is Must for a step that returns only an error.
func Ok(err error) {
	if err != nil {
		panic(abort{err})
	}
}

// guard runs fn, turning a Must failure into its error.
func (e *Env) guard(fn func(*Env)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a, ok := r.(abort)
			if !ok {
				panic(r)
			}
			err = a.err
		}
	}()
	fn(e)
	return nil
}

// Stopped reports whether the run's window has closed, without parking.
func (e *Env) Stopped() bool {
	select {
	case <-e.stop:
		return true
	default:
		return false
	}
}

// Logf writes to the run's live log.
func (e *Env) Logf(format string, args ...any) {
	if e.logf != nil {
		e.logf(format, args...)
	}
}

// Txn runs body as one transaction of p - begin, body, abort if body
// fails, end - and returns nil exactly when the commit was confirmed to
// the client.  The outcome is tallied and a commit's latency recorded on
// the scenario clock.  A failed EndTrans is not aborted: once the commit
// record may exist only the protocol decides the outcome.
func (e *Env) Txn(p *core.Process, body func() error) error {
	t0 := e.Clock.Now()
	err := p.RunTransaction(1, body)
	lat := e.Clock.Now().Sub(t0)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		e.aborts++
		return err
	}
	e.commits++
	e.lats = append(e.lats, lat)
	return nil
}

// Open starts a fresh process at site and opens paths from it.
func (e *Env) Open(site simnet.SiteID, paths ...string) (*core.Process, []*core.File, error) {
	p, err := e.Sys.NewProcess(site)
	if err != nil {
		return nil, nil, err
	}
	files := make([]*core.File, len(paths))
	for i, path := range paths {
		if files[i], err = p.Open(path); err != nil {
			return nil, nil, err
		}
	}
	return p, files, nil
}

// Run drives one scenario end to end: build the cluster, run Setup,
// snapshot the counters, apply the armed faults, run the clients against
// the timed schedule, join, recover, audit the DESIGN.md section 5
// invariants and hand the result to Check.  The error is a build failure
// or the first Must failure; everything the system under test did wrong
// is in the Outcome.
func Run(sc Scenario) (*Outcome, error) {
	sys, err := sc.Spec.Build()
	if err != nil {
		return nil, err
	}
	cl := sys.Cluster()
	defer cl.Shutdown()
	e := &Env{Sys: sys, Clock: cl.Clock(), Trace: Collector(sys), logf: sc.Logf, stop: make(chan struct{})}
	e.aux = vtime.NewGroup(e.Clock)
	var before stats.Snapshot
	if err := e.guard(func(e *Env) {
		if sc.Setup != nil {
			sc.Setup(e)
		}
		before = sys.Stats().Snapshot()
		e.commits, e.aborts, e.lats = 0, 0, nil
		for _, f := range sc.Armed {
			e.Logf("arm %s", f)
			e.apply(f)
		}
	}); err != nil {
		return nil, fmt.Errorf("scenario: setup: %w", err)
	}

	wall, start := time.Now(), e.Clock.Now()
	errs := make([]error, len(sc.Clients))
	clients := vtime.NewGroup(e.Clock)
	for i, fn := range sc.Clients {
		clients.Go(func() { errs[i] = e.guard(fn) })
	}
	if len(sc.Schedule) > 0 {
		e.aux.Go(func() { e.inject(sc.Schedule, start) })
	}
	if sc.Window > 0 {
		e.Clock.Sleep(sc.Window)
	} else {
		clients.Wait()
	}
	close(e.stop)
	clients.Wait()
	e.aux.Wait()
	v, virtual := vtime.AsVirtual(e.Clock)
	if virtual && sc.Profile && !sc.Faults {
		// A fault-free cluster runs no background timer, so the clock can
		// run dry: let phase-two cleanup and the group-commit daemon
		// finish, and the profile and busy fractions cover the whole run.
		v.WaitIdle()
	}
	out := &Outcome{Wall: time.Since(wall), SimTime: e.Clock.Now().Sub(start)}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	recovered := true
	if sc.Recover != NoRecovery {
		out.Checks, recovered = e.recover(sc)
	}
	out.Counters = sys.Stats().Snapshot().Sub(before)
	out.Commits, out.Aborts, out.Latencies = e.commits, e.aborts, e.lats
	if virtual {
		out.SimElapsed = v.Elapsed()
	}
	if sc.Profile {
		reg := sys.Stats().Registry()
		out.Profile, out.Metrics = reg.Profiler().Report(), reg.Snapshot()
	}
	if recovered && sc.Check != nil {
		if err := e.guard(func(e *Env) { sc.Check(e, out) }); err != nil {
			return nil, fmt.Errorf("scenario: check: %w", err)
		}
	}
	return out, nil
}

// inject is the schedule actor: it fires each fault at its offset from
// start, stamping the injection into the trace at the targeted site
// (site 0 for network-wide faults) so forensics interleave faults with
// the transaction events they disturbed.
func (e *Env) inject(sched Schedule, start time.Time) {
	v, virtual := vtime.AsVirtual(e.Clock)
	for _, f := range sched {
		if virtual {
			// Virtual sleeps cost no wall-clock, so sleeping past a
			// closed window is harmless; poll stop around the jump.
			if e.Stopped() {
				return
			}
			v.SleepUntil(start.Add(f.At))
			if e.Stopped() {
				return
			}
		} else {
			select {
			case <-e.stop:
				return
			case <-time.After(time.Until(start.Add(f.At))):
			}
		}
		e.Logf("inject +%s %s", f.At, f.String())
		e.Trace.Site(int(f.Site)).Record(trace.CrashInject, "", f.String(), int64(f.At/time.Millisecond))
		e.apply(f)
	}
}

// apply injects one fault into the live cluster.
func (e *Env) apply(f Fault) {
	cl := e.Sys.Cluster()
	net := cl.Net()
	s := cl.Site(f.Site)
	switch f.Kind {
	case FaultCrash:
		if s != nil && s.Up() {
			s.Crash()
		}
	case FaultDiskCrash:
		if s != nil && s.Up() {
			// Media failure first (volatile pages gone), then the machine
			// goes down with its disks.
			for _, d := range siteDisks(s) {
				d.Crash()
			}
			s.Crash()
		}
	case FaultCrashWrites:
		if s != nil && s.Up() {
			disks := siteDisks(s)
			for _, d := range disks {
				d.CrashAfterWrites(f.N)
			}
			// The crash fires inside whatever write exhausts the budget;
			// a monitor turns the media failure into the site failure the
			// rest of the schedule (and its restart) expects.
			e.aux.Go(func() { e.watchArmedDisks(f.Site, disks) })
		}
	case FaultArmDisk:
		if s == nil || s.Volume(f.Volume) == nil {
			Ok(fmt.Errorf("scenario: %s: no such disk once setup is done", f))
		}
		if d := s.Volume(f.Volume).Disk(); f.ByClass {
			d.CrashAfterWritesOfKind(f.Class, f.N)
		} else {
			d.CrashAfterWrites(f.N)
		}
	case FaultRestart:
		if s != nil && !s.Up() {
			if err := s.Restart(); err != nil {
				e.Logf("restart site %d failed: %v", f.Site, err)
			}
		}
	case FaultPartition:
		net.Partition(f.Site)
	case FaultHeal:
		net.Heal()
	case FaultBlockLink:
		net.BlockLink(f.Site, f.To)
	case FaultUnblockLink:
		net.UnblockLink(f.Site, f.To)
	case FaultDrop:
		net.SetDropRate(f.Rate)
	case FaultDup:
		net.SetDupRate(f.Rate)
	case FaultLatency:
		net.SetLatency(f.Dur)
	case FaultDropOp:
		var mu sync.Mutex
		seen := map[[2]simnet.SiteID]int{}
		net.SetFaultFilter(func(from, to simnet.SiteID, op string) bool {
			if op != f.Op {
				return false
			}
			mu.Lock()
			defer mu.Unlock()
			seen[[2]simnet.SiteID{from, to}]++
			return seen[[2]simnet.SiteID{from, to}]%2 == 1
		})
	}
}

// siteDisks lists the disks under a site's volumes.
func siteDisks(s *cluster.Site) []*simdisk.Disk {
	var disks []*simdisk.Disk
	for _, name := range s.Volumes() {
		if v := s.Volume(name); v != nil {
			disks = append(disks, v.Disk())
		}
	}
	return disks
}

// watchArmedDisks polls a site's armed disks until one trips (then the
// site goes down with its failed media) or the window closes (the budget
// outlived the run; recovery disarms it).
func (e *Env) watchArmedDisks(site simnet.SiteID, disks []*simdisk.Disk) {
	for !e.Stopped() {
		e.Clock.Sleep(time.Millisecond)
		for _, d := range disks {
			if d.Crashed() {
				if s := e.Sys.Cluster().Site(site); s != nil && s.Up() {
					e.Logf("armcrash fired at site %d (disk %s)", site, d.Name())
					s.Crash()
				}
				return
			}
		}
	}
}

// recover brings the cluster back the way the scenario asks and audits
// it.  A cluster that cannot be brought back is a verdict, not a harness
// error: the failed "recovery" check carries the trace tail of the
// object the error names.  ok is false when a restart itself failed and
// there is no recovered state to audit or check.
func (e *Env) recover(sc Scenario) (report invariant.Report, ok bool) {
	cl := e.Sys.Cluster()
	for _, id := range cl.Sites() {
		for _, d := range siteDisks(cl.Site(id)) {
			if !d.Crashed() {
				// The budget survived the run: disarm it so recovery's
				// and the audit's own I/O cannot trip it.
				d.CrashAfterWrites(-1)
			}
		}
	}
	err := invariant.Quiesce(cl, e.Clock, sc.Recover == RestartAll)
	if err == nil && sc.Recover == RestartCrashed && sc.Placement != (Placement{}) {
		// An interrupted ownership move can leave a copy that only its
		// holder's restart purge reclaims.  Audit what recovery alone
		// left behind, then restart every site so each runs its purge:
		// the single-primary check below sees the garbage-collection half
		// of the invariant at every crash point.
		report = invariant.Audit(cl, e.Trace, nil)
		err = invariant.Quiesce(cl, e.Clock, true)
	}
	if err != nil {
		c := invariant.Check{Name: "recovery", Detail: fmt.Sprintf("%d sites", len(cl.Sites()))}
		c.Failf("%v", err)
		// An error that chokes on an object (a log record's key) quotes it.
		if _, rest, found := strings.Cut(err.Error(), `"`); found {
			object, _, _ := strings.Cut(rest, `"`)
			c.Forensics = invariant.Forensics(e.Trace, object)
		}
		report = append(invariant.Report{c}, report...)
		if !errors.Is(err, invariant.ErrStuck) {
			return report, false
		}
	}
	return append(report, invariant.Audit(cl, e.Trace, sc.Files)...), true
}
