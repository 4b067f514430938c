// Package chaos is a deterministic fault-injection engine for the
// transaction facility: it runs concurrent multi-site transaction
// workloads against a live cluster while a scheduler injects faults -
// site and disk crashes, partitions, one-way link failures, message
// drop/duplication/latency spikes - from a seed-reproducible schedule,
// then forces full recovery and mechanically checks the DESIGN.md
// section 5 invariants.  A failing run prints its seed and fault
// timeline so the exact schedule replays bit-for-bit.
//
// The run loop, the fault applier, the recovery and the audit are
// scenario.Run's; this package is the schedule generator, the pair and
// transfer workload, and the workload's two content checks.
package chaos

import (
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stats"
)

// Options configures one chaos run.
type Options struct {
	Seed     int64                            // drives schedule generation and worker choices
	Duration time.Duration                    // workload window (default 2s)
	Sites    int                              // cluster size (default 4, min 2)
	Workers  int                              // concurrent workload goroutines (default 6, min 2)
	Faults   FaultSet                         // kinds GenSchedule may draw (default all)
	Schedule scenario.Schedule                // explicit schedule; overrides generation
	Logf     func(format string, args ...any) // live fault/progress log (nil = silent)
	// Spec selects the clock, the optional layers and telemetry; the
	// topology, seed, fault budgets and trace are the engine's own.  Every
	// layer interleaves with the fault schedule: group commit tears
	// batches at crashes, fast paths additionally mix read-only audit
	// transactions into the transfer workers (faults land between a
	// read-only vote and the outcome it never waits for), leases run under
	// the short fault-mode TTL, placement (use scenario.Eager) keeps
	// ownership moves in flight.  On a virtual clock Duration counts
	// simulated time and the schedule fires at exact simulated instants.
	Spec scenario.Spec
}

// Defaults are the options of a bare locus chaos invocation.
func Defaults() Options {
	return Options{Seed: 1, Duration: 2 * time.Second, Sites: 4, Workers: 6, Faults: DefaultFaults()}
}

// boolFlag adapts a derived boolean option to flag.Value.
type boolFlag struct {
	get func() bool
	set func(bool)
}

func (b boolFlag) IsBoolFlag() bool { return true }
func (b boolFlag) String() string   { return strconv.FormatBool(b.get != nil && b.get()) }
func (b boolFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err == nil {
		b.set(v)
	}
	return err
}

// Flags binds the options to the locus chaos flag set, each flag's default
// being the option's current value.  The same binding, read back, is a
// failing run's replay line.
func (o *Options) Flags(fs *flag.FlagSet) {
	fs.Int64Var(&o.Seed, "seed", o.Seed, "schedule and workload seed")
	fs.DurationVar(&o.Duration, "duration", o.Duration, "workload window")
	fs.IntVar(&o.Sites, "sites", o.Sites, "cluster size (one volume per site)")
	fs.IntVar(&o.Workers, "workers", o.Workers, "concurrent workload goroutines")
	fs.Var(&o.Faults, "faults", "fault kinds the generator may draw: all, or a comma list of crash,diskcrash,armcrash,partition,block,drop,dup,latency")
	fs.Var(&o.Schedule, "schedule", "explicit fault schedule (overrides generation), e.g. 100ms:crash:2,400ms:restart:2,500ms:drop:0.3")
	fs.DurationVar(&o.Spec.GroupCommit, "groupcommit", o.Spec.GroupCommit, "enable the group-commit log daemon with this max batching delay (0 = synchronous log forces)")
	fs.BoolVar(&o.Spec.FastPaths, "fastpaths", o.Spec.FastPaths, "enable the commit fast paths (read-only votes, one-phase commit) and mix read-only audit transactions into the workload")
	fs.BoolVar(&o.Spec.Leases, "leases", o.Spec.Leases, "enable sticky lock leases with a short TTL, so callback revokes, partition-delayed revokes and leaseholder crashes interleave with the fault schedule")
	fs.Var(boolFlag{
		func() bool { return o.Spec.Placement != scenario.Placement{} },
		func(on bool) {
			if o.Spec.Placement = (scenario.Placement{}); on {
				o.Spec.Placement = scenario.Eager
			}
		},
	}, "placement", "enable locality-adaptive placement with aggressive knobs, so ownership moves and routed commits interleave with the fault schedule; the audit adds a single-primary convergence check")
	fs.Var(boolFlag{
		func() bool { return o.Spec.Virtual },
		func(on bool) {
			if o.Spec.Virtual, o.Spec.Disk, o.Spec.Msg = false, 0, 0; on {
				o.Spec = o.Spec.At(costmodel.Vax750())
			}
		},
	}, "vtime", "run on the virtual discrete-event clock with VAX-750 latencies: -duration counts simulated time and wall-clock shrinks by orders of magnitude")
	fs.BoolVar(&o.Spec.Profile, "telemetry", o.Spec.Profile, "enable commit-path profiling and append the attribution/utilization summary to the report (nondeterministic, like -stats)")
}

// ReplayCommand is the locus chaos invocation that reproduces this run's
// schedule and verdicts exactly: every flag whose value differs from a
// bare invocation's, read off the flag binding itself.
func (o Options) ReplayCommand() string {
	def := Defaults()
	defaults, current := flag.NewFlagSet("", flag.ContinueOnError), flag.NewFlagSet("", flag.ContinueOnError)
	def.Flags(defaults)
	o.Flags(current)
	cmd := "locus chaos"
	current.VisitAll(func(f *flag.Flag) {
		switch v := f.Value.String(); {
		case v == defaults.Lookup(f.Name).Value.String():
		case v == "true":
			cmd += " -" + f.Name
		case strings.ContainsAny(v, "<>;"):
			cmd += fmt.Sprintf(" -%s '%s'", f.Name, v)
		default:
			cmd += fmt.Sprintf(" -%s %s", f.Name, v)
		}
	})
	return cmd
}

const (
	initialBalance = 1000
	// markerFmt stamps pair files: worker then attempt, fixed width so a
	// committed pair always holds exactly one whole marker.
	markerFmt = "W%03d-%05d"
)

// pairState is one pair worker's ground truth for the audit: the pair
// must end up all-or-nothing, holding a marker the worker issued, no
// older than its last client-confirmed commit.
type pairState struct {
	worker       int
	pathA, pathB string
	attempts     int // markers issued: 0..attempts-1
	confirmed    int // highest attempt whose EndTrans returned nil; -1 = none
}

// Result is the outcome of a chaos run: the options it ran under
// (defaults filled in) and what came of them.  Timeline and Checks are
// deterministic for a given (Seed, Duration, Sites, Workers, Faults);
// everything in the Outcome but its Checks depends on real scheduling
// and is reported separately (under a virtual clock the placement
// counters are exact).
type Result struct {
	Options
	// Timeline is the schedule actually injected: Options.Schedule, or
	// the one generated from the seed.
	Timeline scenario.Schedule
	*scenario.Outcome
}

// OK reports whether every invariant held.
func (r *Result) OK() bool { return r.Checks.OK() }

// Violations flattens every failed check's findings.
func (r *Result) Violations() []string { return r.Checks.Violations() }

// Report renders the run: header, fault timeline, invariant verdicts.
// Everything here is bit-for-bit reproducible from the same options;
// withStats appends the (nondeterministic) commit/abort counts.
func (r *Result) Report(withStats bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d sites=%d workers=%d duration=%s\n",
		r.Seed, r.Sites, r.Workers, r.Duration)
	fmt.Fprintf(&b, "schedule (%d faults):\n%s", len(r.Timeline), r.Timeline.Lines())
	b.WriteString("invariants:\n")
	for _, c := range r.Checks {
		if len(c.Violations) == 0 {
			fmt.Fprintf(&b, "  PASS %s (%s)\n", c.Name, c.Detail)
			continue
		}
		fmt.Fprintf(&b, "  FAIL %s (%s)\n", c.Name, c.Detail)
		for _, v := range c.Violations {
			fmt.Fprintf(&b, "    - %s\n", v)
		}
		for _, f := range c.Forensics {
			fmt.Fprintf(&b, "      %s\n", f)
		}
	}
	if r.OK() {
		b.WriteString("verdict: PASS\n")
	} else {
		fmt.Fprintf(&b, "verdict: FAIL\nreplay: %s\n", r.ReplayCommand())
	}
	if withStats {
		fmt.Fprintf(&b, "stats: %d commits, %d aborts\n", r.Commits, r.Aborts)
		if r.Spec.Placement != (scenario.Placement{}) {
			fmt.Fprintf(&b, "stats: %d owner moves, %d routed commits\n",
				r.Counters.Get(stats.OwnerMoves), r.Counters.Get(stats.RoutedCommits))
		}
		if r.Spec.Virtual {
			fmt.Fprintf(&b, "stats: %s simulated\n", r.SimElapsed)
		}
	}
	return b.String()
}

// workload is the pair and transfer workload of one run, and its ground
// truth for the content checks.
type workload struct {
	opts     Options
	pairs    []*pairState
	accounts []string // account file paths; committed balances must sum to total
	total    int64
}

// Run executes one chaos run end to end: generate or take a fault
// schedule, then drive concurrent pair and transfer transactions through
// scenario.Run while it injects the faults, forces full crash-restart
// recovery and audits the DESIGN.md section 5 invariants.
func Run(opts Options) (*Result, error) {
	w, err := newWorkload(opts)
	if err != nil {
		return nil, err
	}
	return w.run(w.scenario())
}

// newWorkload fills in the option defaults and lays out the files: half
// the workers (at least one) run pair transactions, the rest run
// transfers over 2*Sites accounts.
func newWorkload(opts Options) (*workload, error) {
	def := Defaults()
	if opts.Sites < 2 {
		if opts.Sites != 0 {
			return nil, fmt.Errorf("chaos: need at least 2 sites, got %d", opts.Sites)
		}
		opts.Sites = def.Sites
	}
	if opts.Workers <= 0 {
		opts.Workers = def.Workers
	}
	opts.Workers = max(opts.Workers, 2)
	if opts.Duration <= 0 {
		opts.Duration = def.Duration
	}
	if opts.Faults == nil {
		opts.Faults = def.Faults
	}
	w := &workload{opts: opts}
	n := opts.Sites
	vols := scenario.PerSite(n)
	for i := 0; i < max(opts.Workers/2, 1); i++ {
		w.pairs = append(w.pairs, &pairState{
			worker:    i,
			pathA:     fmt.Sprintf("%s/pair%02d", vols[i%n], i),
			pathB:     fmt.Sprintf("%s/pair%02d", vols[(i+1)%n], i),
			confirmed: -1,
		})
	}
	for k := 0; k < 2*n; k++ {
		w.accounts = append(w.accounts, fmt.Sprintf("%s/acct%02d", vols[k%n], k))
	}
	w.total = int64(len(w.accounts)) * initialBalance
	return w, nil
}

// scenario is the run as a value: one volume per site, faults expected,
// the caller's clock and layers, the workers racing the schedule for
// Duration, then full recovery, the audit and the two content checks.
func (w *workload) scenario() scenario.Scenario {
	opts := w.opts
	sc := scenario.Scenario{
		Spec:     opts.Spec,
		Setup:    w.setup,
		Schedule: opts.Schedule,
		Window:   opts.Duration,
		Recover:  scenario.RestartAll,
		Check:    w.check,
		Logf:     opts.Logf,
	}
	// The collector is always attached: forensics must exist when an
	// invariant fails.
	sc.Volumes, sc.Seed, sc.Faults, sc.Trace = scenario.PerSite(opts.Sites), opts.Seed, true, true
	if sc.Schedule == nil {
		siteIDs := make([]simnet.SiteID, opts.Sites)
		for i := range siteIDs {
			siteIDs[i] = simnet.SiteID(i + 1)
		}
		sc.Schedule = GenSchedule(opts.Seed, opts.Duration, siteIDs, opts.Faults)
	}
	for _, ps := range w.pairs {
		sc.Files = append(sc.Files, ps.pathA, ps.pathB)
	}
	sc.Files = append(sc.Files, w.accounts...)
	for i := 0; i < opts.Workers; i++ {
		rng := rand.New(rand.NewSource(opts.Seed ^ (int64(i+1) << 20)))
		if i < len(w.pairs) {
			sc.Clients = append(sc.Clients, func(e *scenario.Env) { w.pairWorker(e, w.pairs[i], rng) })
		} else {
			sc.Clients = append(sc.Clients, func(e *scenario.Env) { w.transferWorker(e, rng) })
		}
	}
	return sc
}

// run drives sc and wraps its outcome.
func (w *workload) run(sc scenario.Scenario) (*Result, error) {
	out, err := scenario.Run(sc)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	return &Result{Options: w.opts, Timeline: sc.Schedule, Outcome: out}, nil
}

// setup creates the pair files and the committed initial account
// balances before any fault fires.
func (w *workload) setup(e *scenario.Env) {
	p := scenario.Must(e.Sys.NewProcess(1))
	for _, ps := range w.pairs {
		for _, path := range []string{ps.pathA, ps.pathB} {
			scenario.Must(p.Create(path)).Close() //nolint:errcheck
		}
	}
	// Accounts start at a committed balance; one transaction commits them
	// all so the audit's conservation baseline is exact.
	scenario.Ok(e.Txn(p, func() error {
		for _, path := range w.accounts {
			f, err := p.Create(path)
			if err != nil {
				return err
			}
			if _, err := f.WriteAt([]byte(fmt.Sprintf("%08d", initialBalance)), 0); err != nil {
				return err
			}
		}
		return nil
	}))
}

// pairWorker repeatedly writes a fresh marker to both files of its pair
// inside a transaction.  Faults make aborts routine; the audit only
// cares that the pair is never torn and that confirmed commits survive.
func (w *workload) pairWorker(e *scenario.Env, ps *pairState, rng *rand.Rand) {
	for !e.Stopped() {
		attempt := ps.attempts
		ps.attempts++
		marker := []byte(fmt.Sprintf(markerFmt, ps.worker, attempt))
		site := simnet.SiteID(rng.Intn(w.opts.Sites) + 1)
		if w.runPair(e, site, ps, marker) {
			ps.confirmed = attempt
		}
	}
}

// txn runs body inside a transaction of a fresh process at site with
// both files open.  It reports whether the commit was confirmed, backing
// off after any failure.
func (w *workload) txn(e *scenario.Env, site simnet.SiteID, pathA, pathB string, body func(fa, fb *core.File) error) bool {
	p, files, err := e.Open(site, pathA, pathB)
	if err == nil {
		err = e.Txn(p, func() error { return body(files[0], files[1]) })
	}
	if err != nil {
		e.Clock.Sleep(time.Millisecond)
	}
	return err == nil
}

func (w *workload) runPair(e *scenario.Env, site simnet.SiteID, ps *pairState, marker []byte) bool {
	return w.txn(e, site, ps.pathA, ps.pathB, func(fa, fb *core.File) error {
		if _, err := fa.WriteAt(marker, 0); err != nil {
			return err
		}
		_, err := fb.WriteAt(marker, 0)
		return err
	})
}

// transferWorker moves random amounts between random account pairs.
// Every transfer conserves the total, so the final committed balances
// must still sum to the baseline whatever subset of transfers survived.
func (w *workload) transferWorker(e *scenario.Env, rng *rand.Rand) {
	for !e.Stopped() {
		i, j := rng.Intn(len(w.accounts)), rng.Intn(len(w.accounts))
		if i == j {
			continue
		}
		if i > j {
			i, j = j, i // fixed lock order across workers: no ABBA deadlocks
		}
		site := simnet.SiteID(rng.Intn(w.opts.Sites) + 1)
		// With fast paths on, a quarter of the attempts are pure read
		// audits: multi-site transactions whose participants all vote
		// read-only, so faults catch them between the vote (which already
		// released their locks) and the phase two they drop out of.
		if w.opts.Spec.FastPaths && rng.Intn(4) == 0 {
			w.txn(e, site, w.accounts[i], w.accounts[j], readAudit)
			continue
		}
		amt := int64(1 + rng.Intn(10))
		w.txn(e, site, w.accounts[i], w.accounts[j], func(fa, fb *core.File) error { return transfer(fa, fb, amt) })
	}
}

func transfer(fa, fb *core.File, amt int64) error {
	ba, err := readBalance(fa)
	if err != nil {
		return err
	}
	bb, err := readBalance(fb)
	if err != nil {
		return err
	}
	amt = min(amt, ba) // never overdraw; a zero transfer still exercises the protocol
	if _, err := fa.WriteAt([]byte(fmt.Sprintf("%08d", ba-amt)), 0); err != nil {
		return err
	}
	_, err = fb.WriteAt([]byte(fmt.Sprintf("%08d", bb+amt)), 0)
	return err
}

// readAudit reads two balances under shared locks and commits without
// writing anything: every participant votes read-only.
func readAudit(fa, fb *core.File) error {
	for _, f := range []*core.File{fa, fb} {
		if err := f.LockRange(0, 8, core.Shared); err != nil {
			return err
		}
		if _, err := readBalance(f); err != nil {
			return err
		}
	}
	return nil
}

func readBalance(f *core.File) (int64, error) {
	buf := make([]byte, 8)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return 0, err
	}
	var v int64
	if _, err := fmt.Sscanf(string(buf), "%d", &v); err != nil {
		return 0, fmt.Errorf("chaos: unparseable balance %q: %v", buf, err)
	}
	return v, nil
}

// check appends the workload's own ground truth to the audit (which ran
// first: the lock-table scan must precede the content reads, which
// themselves acquire and release locks).
func (w *workload) check(e *scenario.Env, out *scenario.Outcome) {
	out.Checks = append(out.Checks, w.checkPairs(e), w.checkAccounts(e))
}
