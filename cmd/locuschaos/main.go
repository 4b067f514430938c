// Command locuschaos runs the deterministic fault-injection engine
// against a live simulated cluster: concurrent multi-site transactions
// race a seeded schedule of site crashes, disk crashes, partitions,
// one-way link failures and message drop/duplication/latency spikes;
// afterwards every site is crash-restarted, recovery runs to
// completion, and the DESIGN.md section 5 invariants are audited.
//
// The schedule, the fault timeline and every invariant verdict are a
// pure function of (-seed, -duration, -sites, -workers, -faults), so a
// failure report's "replay:" line reproduces the run bit for bit.
//
// Usage:
//
//	locuschaos                          # one 2s run, seed 1, all faults
//	locuschaos -seed 7 -duration 5s     # longer run, different timeline
//	locuschaos -faults crash,partition  # restrict the fault menu
//	locuschaos -schedule 100ms:crash:2,400ms:restart:2
//	                                    # explicit timeline, no generation
//	locuschaos -sweep 20                # seeds 1..20, exit 1 on any FAIL
//	locuschaos -v -stats                # live fault log + commit counts
//	locuschaos -fastpaths -schedule 150ms:partition:2,450ms:heal,700ms:partition:3,1000ms:heal
//	                                    # commit fast paths on, partitions landing
//	                                    # between prepare (read-only votes) and phase two
//	locuschaos -leases -schedule 200ms:partition:2,600ms:heal,900ms:partition:3,1300ms:heal
//	                                    # sticky lock leases on with a short TTL:
//	                                    # partitions land mid-revoke, forcing the
//	                                    # expiry fallback and lease reclaim paths
//	locuschaos -placement -schedule 150ms:partition:2,400ms:heal,700ms:crash:3,1000ms:restart:3
//	                                    # adaptive placement with hair-trigger knobs:
//	                                    # partitions and crashes land mid-ownership-move;
//	                                    # the audit adds single-primary convergence
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
)

// The flags bind straight into the run's options: chaos.Options is the
// source of truth, this command a thin shell over it.
var (
	opts     chaos.Options
	faults   = flag.String("faults", "all", "fault kinds the generator may draw: all, or a comma list of crash,diskcrash,partition,block,drop,dup,latency")
	schedule = flag.String("schedule", "", "explicit fault schedule (overrides generation), e.g. 100ms:crash:2,400ms:restart:2,500ms:drop:0.3")
	sweep    = flag.Int("sweep", 0, "run seeds seed..seed+N-1 instead of a single run")
	stats    = flag.Bool("stats", false, "append nondeterministic commit/abort counts to the report")
	verbose  = flag.Bool("v", false, "log faults and recovery progress as they happen")
	forens   = flag.String("forensics", "", "on any invariant failure, also write the full failure reports (violations + event-trace forensics) to this file; CI uploads it as an artifact")
)

func init() {
	flag.Int64Var(&opts.Seed, "seed", 1, "schedule and workload seed")
	flag.DurationVar(&opts.Duration, "duration", 2*time.Second, "workload window")
	flag.IntVar(&opts.Sites, "sites", 4, "cluster size (one volume per site)")
	flag.IntVar(&opts.Workers, "workers", 6, "concurrent workload goroutines")
	flag.DurationVar(&opts.GroupCommit, "groupcommit", 0, "enable the group-commit log daemon with this max batching delay (0 = synchronous log forces)")
	flag.BoolVar(&opts.FastPaths, "fastpaths", false, "enable the commit fast paths (read-only votes, one-phase commit) and mix read-only audit transactions into the workload")
	flag.BoolVar(&opts.LockLeases, "leases", false, "enable sticky lock leases with a short TTL, so callback revokes, partition-delayed revokes and leaseholder crashes interleave with the fault schedule")
	flag.BoolVar(&opts.Placement, "placement", false, "enable locality-adaptive placement with aggressive knobs, so ownership moves and routed commits interleave with the fault schedule; the audit adds a single-primary convergence check")
	flag.BoolVar(&opts.Vtime, "vtime", false, "run on the virtual discrete-event clock with VAX-750 latencies: -duration counts simulated time and wall-clock shrinks by orders of magnitude")
	flag.BoolVar(&opts.Telemetry, "telemetry", false, "enable commit-path profiling and append the attribution/utilization summary to the report (nondeterministic, like -stats)")
}

func main() {
	flag.Parse()

	var err error
	if opts.Faults, err = chaos.ParseFaults(*faults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *schedule != "" {
		if opts.Schedule, err = chaos.ParseSchedule(*schedule); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		}
	}

	n := *sweep
	if n <= 0 {
		n = 1
	}
	failed := 0
	var failures []string
	first := opts.Seed
	for i := 0; i < n; i++ {
		opts.Seed = first + int64(i)
		res, err := chaos.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "locuschaos: seed %d: %v\n", opts.Seed, err)
			os.Exit(2)
		}
		if n > 1 {
			fmt.Printf("seed %-4d %s\n", opts.Seed, map[bool]string{true: "PASS", false: "FAIL"}[res.OK()])
		}
		if n == 1 || !res.OK() {
			fmt.Print(res.Report(*stats))
		}
		if opts.Telemetry {
			fmt.Print(res.TelemetrySummary())
		}
		if !res.OK() {
			failed++
			failures = append(failures, res.Report(*stats))
		}
	}
	if n > 1 {
		fmt.Printf("sweep: %d/%d seeds passed\n", n-failed, n)
	}
	if failed > 0 {
		if *forens != "" {
			report := strings.Join(failures, "\n")
			if werr := os.WriteFile(*forens, []byte(report), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "locuschaos: writing forensics: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "locuschaos: failure forensics written to %s\n", *forens)
			}
		}
		os.Exit(1)
	}
}
