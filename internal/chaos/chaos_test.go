package chaos

import (
	"flag"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fs"
	"repro/internal/scenario"
	"repro/internal/simnet"
)

func TestGenScheduleDeterministic(t *testing.T) {
	sites := []simnet.SiteID{1, 2, 3, 4}
	a := GenSchedule(42, 2*time.Second, sites, DefaultFaults())
	b := GenSchedule(42, 2*time.Second, sites, DefaultFaults())
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%s\nvs\n%s", a, b)
	}
	if len(a) == 0 {
		t.Fatal("seed 42 generated an empty schedule")
	}
	c := GenSchedule(43, 2*time.Second, sites, DefaultFaults())
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
	// Every crash has a restart at a later time for the same site.
	for i, f := range a {
		if f.Kind != scenario.FaultCrash && f.Kind != scenario.FaultDiskCrash {
			continue
		}
		found := false
		for _, g := range a[i:] {
			if g.Kind == scenario.FaultRestart && g.Site == f.Site && g.At > f.At {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("crash of site %d at %s has no matching restart", f.Site, f.At)
		}
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	sched := GenSchedule(7, time.Second, []simnet.SiteID{1, 2, 3}, DefaultFaults())
	back, err := scenario.ParseSchedule(sched.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched, back) {
		t.Fatalf("schedule did not round-trip:\n%s\nvs\n%s", sched, back)
	}
	if _, err := scenario.ParseSchedule("100ms:crash:2, 250ms:drop:0.3; 400ms:restart:2,500ms:heal"); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"crash:2", "100ms:warp:1", "100ms:drop:2.0", "100ms:block:12"} {
		if _, err := scenario.ParseSchedule(bad); err == nil {
			t.Errorf("scenario.ParseSchedule(%q) accepted garbage", bad)
		}
	}
}

func TestArmCrashFault(t *testing.T) {
	sched, err := scenario.ParseSchedule("100ms:armcrash:2@17,400ms:restart:2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 2 || sched[0].Kind != scenario.FaultCrashWrites ||
		sched[0].Site != 2 || sched[0].N != 17 {
		t.Fatalf("parsed schedule = %+v", sched)
	}
	if got := sched[0].String(); got != "100ms:armcrash:2@17" {
		t.Fatalf("armcrash did not round-trip: %q", got)
	}
	for _, bad := range []string{"100ms:armcrash:2", "100ms:armcrash:2@-1", "100ms:armcrash"} {
		if _, err := scenario.ParseSchedule(bad); err == nil {
			t.Errorf("scenario.ParseSchedule(%q) accepted garbage", bad)
		}
	}
}

// TestRunArmCrash drives a run whose only faults are write-budget
// crashes: each victim site's disks fail mid-commit at an instant the
// workload's own I/O determines, the monitor takes the site down, and
// the audit must still find every invariant intact.
func TestRunArmCrash(t *testing.T) {
	sched, err := scenario.ParseSchedule("250ms:armcrash:2@25,1250ms:restart:2,1500ms:armcrash:3@10,2500ms:restart:3")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Seed:     5,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
		Schedule: sched,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations under armcrash:\n%s", res.Report(true))
	}
}

// TestRunShort is the deterministic smoke run wired into go test: a small
// cluster, a fixed seed, every fault kind, and the full section 5 audit.
func TestRunShort(t *testing.T) {
	res, err := Run(Options{
		Seed:     1,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations:\n%s", res.Report(true))
	}
	if res.Commits == 0 {
		t.Log("warning: no transaction survived the schedule; faults may be too dense")
	}
	t.Logf("\n%s", res.Report(true))
}

// TestRunShortGroupCommit reruns the smoke schedule with the log-batching
// daemon on every volume: crashes now land between a batch's page writes,
// so the section 5 audit additionally proves a torn batch loses whole
// records (pairs stay all-or-nothing) rather than corrupting the log.
func TestRunShortGroupCommit(t *testing.T) {
	res, err := Run(Options{
		Seed:     1,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
		Spec:     scenario.Spec{Config: cluster.Config{GroupCommitMaxDelay: 200 * time.Microsecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations with group commit:\n%s", res.Report(true))
	}
	t.Logf("\n%s", res.Report(true))
}

// TestRunShortFastPaths drives an explicit partition schedule with the
// commit fast paths on: read-only audit transactions race partitions
// that land between their prepare votes and the phase two they drop out
// of.  The section 5 audit then proves the fast paths leak nothing -
// shared locks released at vote time, no stale prepare records, no
// transaction stuck in doubt.
func TestRunShortFastPaths(t *testing.T) {
	sched, err := scenario.ParseSchedule("400ms:partition:2,1100ms:heal,1600ms:partition:3,2250ms:heal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Seed:     1,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
		Schedule: sched,
		Spec:     scenario.Spec{Config: cluster.Config{FastPaths: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations with fast paths:\n%s", res.Report(true))
	}
	t.Logf("\n%s", res.Report(true))
}

// TestRunShortLeases drives the revoke-during-partition schedule with
// sticky lock leases on: leases are granted, re-hit and revoked inside
// the window, and the partitions land mid-revoke, so callbacks fail, the
// storage site reclaims at once, and the cut-off holders' stale hits
// materialize behind the locks granted meanwhile.  The audit
// (residual locks, pair atomicity, balance conservation) must stay
// clean - leases are a message-count optimization, never a correctness
// change.
func TestRunShortLeases(t *testing.T) {
	sched, err := scenario.ParseSchedule("400ms:partition:2,1100ms:heal,1600ms:partition:3,2250ms:heal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Seed:     1,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
		Schedule: sched,
		Spec:     scenario.Spec{Config: cluster.Config{LockLeases: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations with lock leases:\n%s", res.Report(true))
	}
	t.Logf("\n%s", res.Report(true))
}

// TestRunShortPlacement drives partitions across a run with
// locality-adaptive placement on aggressive knobs: files migrate after
// two accesses, so ownership moves and routed commits land inside the
// partition windows.  Every invariant - including the single-primary
// check the placement mode adds - must hold.
func TestRunShortPlacement(t *testing.T) {
	sched, err := scenario.ParseSchedule("400ms:partition:2,1100ms:heal,1600ms:partition:3,2250ms:heal")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{
		Seed:     1,
		Duration: 3 * time.Second,
		Sites:    3,
		Workers:  4,
		Schedule: sched,
		Spec:     scenario.Spec{Config: cluster.Config{AdaptivePlacement: true, Placement: scenario.Eager}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("invariant violations with adaptive placement:\n%s", res.Report(true))
	}
	t.Logf("\n%s", res.Report(true))
}

// TestReportReproducible runs the same seed twice and demands the exact
// same deterministic report - the property that makes a failure's
// "replay: locus chaos -seed N" line trustworthy.
func TestReportReproducible(t *testing.T) {
	opts := Options{Seed: 99, Duration: 2 * time.Second, Sites: 3, Workers: 4}
	r1, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r1.Report(false), r2.Report(false); a != b {
		t.Fatalf("same seed, different reports:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}

// TestSweep hammers many seeds with crashes, partitions and message
// drops.
func TestSweep(t *testing.T) {
	faults, err := ParseFaults("crash,partition,drop")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			res, err := Run(Options{
				Seed:     seed,
				Duration: 2 * time.Second,
				Sites:    3,
				Workers:  4,
				Faults:   faults,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("seed %d violations:\n%s", seed, res.Report(true))
			}
		})
	}
}

// TestCheckerCatchesTornPair proves the audit has teeth: tear a pair on
// purpose (a non-transaction write to only one file of a committed
// pair, synced so it is durable, after recovery and before the content
// checks) and the atomic-pairs check must flag it.
func TestCheckerCatchesTornPair(t *testing.T) {
	w, err := newWorkload(Options{Seed: 5, Sites: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ps := w.pairs[0]
	sc := w.scenario()
	sc.Schedule, sc.Window = nil, 0
	// Commit one honest marker to the first pair.
	sc.Clients = []func(*scenario.Env){func(e *scenario.Env) {
		ps.attempts = 1
		if !w.runPair(e, 1, ps, []byte(fmt.Sprintf(markerFmt, ps.worker, 0))) {
			t.Error("clean-network pair commit failed")
		}
		ps.confirmed = 0
	}}
	sc.Check = func(e *scenario.Env, out *scenario.Outcome) {
		// Sanity: the audit passes before the sabotage.
		if !out.Checks.OK() || len(w.checkPairs(e).Violations) != 0 {
			t.Errorf("pre-sabotage violations: %v %v", out.Checks.Violations(), w.checkPairs(e).Violations)
		}
		// The bug: a write that reaches only one file of the pair, made
		// durable outside any transaction.
		_, files, err := e.Open(1, ps.pathA)
		scenario.Ok(err)
		scenario.Must(files[0].WriteAt([]byte(fmt.Sprintf(markerFmt, ps.worker, 9999)), 0))
		scenario.Ok(files[0].Sync())
		scenario.Ok(files[0].Close())
		w.check(e, out)
	}
	res, err := w.run(sc)
	if err != nil {
		t.Fatal(err)
	}

	caught := false
	for _, c := range res.Checks {
		if c.Name == "atomic-pairs" && len(c.Violations) != 0 {
			caught = true
			t.Logf("checker caught the injected tear: %v", c.Violations)
			// The failure report must carry forensics: the tail of the
			// causal trace touching the torn file, so the offending
			// write is visible without rerunning anything.
			if len(c.Forensics) == 0 {
				t.Fatal("torn-pair violation carries no forensics")
			}
			joined := strings.Join(c.Forensics, "\n")
			if !strings.Contains(joined, ps.pathA) {
				t.Fatalf("forensics never name the torn file %s:\n%s", ps.pathA, joined)
			}
			if !strings.Contains(joined, "page_write") && !strings.Contains(joined, "lock_") {
				t.Fatalf("forensics hold no page/lock events:\n%s", joined)
			}
			t.Logf("forensics:\n%s", joined)
		}
	}
	if !caught {
		t.Fatal("checker missed a deliberately torn pair")
	}
	// The rendered report embeds the forensics under the FAIL line.
	if rep := res.Report(false); !strings.Contains(rep, "forensics: last") {
		t.Fatalf("Report omits forensics:\n%s", rep)
	}
}

// TestReplayRoundTrip: the replay line is read off the same flag binding
// the command parses, so parsing it back must yield the options of the
// run it came from - every layer, an explicit schedule (block
// faults need shell quoting) and a restricted fault menu included.
func TestReplayRoundTrip(t *testing.T) {
	sched, err := scenario.ParseSchedule("237ms:crash:4,575ms:block:3>4,668ms:restart:4,907ms:unblock:3>4")
	if err != nil {
		t.Fatal(err)
	}
	menu, err := ParseFaults("crash,partition,block,drop,dup,latency")
	if err != nil {
		t.Fatal(err)
	}
	layered := scenario.Spec{Config: cluster.Config{GroupCommitMaxDelay: 5 * time.Millisecond, FastPaths: true, LockLeases: true, AdaptivePlacement: true, Placement: scenario.Eager}}
	layered.Profile = true
	for _, opts := range []Options{
		Defaults(),
		{Seed: 87, Duration: 2 * time.Second, Sites: 4, Workers: 6, Faults: menu},
		{Seed: 3, Duration: time.Second, Sites: 5, Workers: 3, Faults: DefaultFaults(), Schedule: sched, Spec: layered},
	} {
		line := opts.ReplayCommand()
		args := strings.Fields(strings.ReplaceAll(strings.TrimPrefix(line, "locus chaos"), "'", ""))
		back := Defaults()
		fset := flag.NewFlagSet("locus chaos", flag.ContinueOnError)
		back.Flags(fset)
		if err := fset.Parse(args); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !reflect.DeepEqual(back, opts) {
			t.Errorf("%s\nparsed back to %+v\nwant            %+v", line, back, opts)
		}
	}
	if got, want := (Options{Seed: 87, Duration: 2 * time.Second, Sites: 4, Workers: 6, Faults: menu}).ReplayCommand(),
		"locus chaos -faults crash,partition,block,drop,dup,latency -seed 87"; got != want {
		t.Errorf("replay line = %q, want %q", got, want)
	}
}

// TestRecoveryFailureIsAVerdict plants a prepare record recovery cannot
// decode, so the final restart of that site fails: the run must come
// back as a FAIL verdict - a failed recovery check naming the error and
// carrying the record's trace tail, rendered with its replay line - not
// as a harness error that would end a sweep.
func TestRecoveryFailureIsAVerdict(t *testing.T) {
	w, err := newWorkload(Options{Seed: 5, Duration: 100 * time.Millisecond, Sites: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sc := w.scenario()
	sc.Schedule = nil
	sc.Clients = append(sc.Clients, func(e *scenario.Env) {
		vol := e.Sys.Cluster().Site(2).Volume("v2")
		scenario.Ok(vol.Log().Put("prep:00000099.1", fs.KindPrepare, []byte("torn page")))
	})
	res, err := w.run(sc)
	if err != nil {
		t.Fatalf("a recovery that cannot finish must be a verdict, got error %v", err)
	}
	if res.OK() || res.Checks[0].Name != "recovery" {
		t.Fatalf("want a failed recovery check first, got:\n%s", res.Report(false))
	}
	rep := res.Report(false)
	for _, want := range []string{"FAIL recovery", "restart site 2", "prep:00000099.1", "forensics: last", "log_force", "replay: locus chaos"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report lacks %q:\n%s", want, rep)
		}
	}
}
