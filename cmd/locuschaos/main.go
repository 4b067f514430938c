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

	"repro/internal/chaos"
)

// chaos.Options is the source of truth for everything a run depends on:
// it binds its own flags (and prints them back as the replay line), so
// this command adds only what shapes the output.
var (
	opts    = chaos.Defaults()
	sweep   = flag.Int("sweep", 0, "run seeds seed..seed+N-1 instead of a single run")
	stats   = flag.Bool("stats", false, "append nondeterministic commit/abort counts to the report")
	verbose = flag.Bool("v", false, "log faults and recovery progress as they happen")
	forens  = flag.String("forensics", "", "on any invariant failure, also write the full failure reports (violations + event-trace forensics) to this file; CI uploads it as an artifact")
)

func main() {
	opts.Flags(flag.CommandLine)
	flag.Parse()
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
		if res.Profile != nil {
			fmt.Print(res.Profile.Summary(), res.Metrics.Utilization(0))
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
