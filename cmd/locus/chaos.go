package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/chaos"
	"repro/internal/crashprobe"
)

// chaosCmd runs the deterministic fault-injection engine: concurrent
// multi-site transactions race a seeded schedule of site and disk
// crashes, partitions, one-way link failures and message drop,
// duplication and latency spikes; then every site is crash-restarted,
// recovery runs to completion and the DESIGN.md section 5 invariants are
// audited.  The schedule, the fault timeline and every verdict are a
// pure function of the flags chaos.Options binds, so a failing report's
// "replay:" line reproduces the run.
//
//	locus chaos -seed 7 -duration 5s      # one run
//	locus chaos -faults crash,partition   # restrict the fault menu
//	locus chaos -schedule 100ms:crash:2,400ms:restart:2
//	locus chaos -sweep 20                 # seeds 1..20, exit 1 on any FAIL
//	locus chaos -vtime -groupcommit 5ms -fastpaths -leases -placement
func chaosCmd(fs *flag.FlagSet) func() error {
	opts := chaos.Defaults()
	opts.Flags(fs)
	sweep := fs.Int("sweep", 0, "run seeds seed..seed+N-1 instead of a single run")
	stats := fs.Bool("stats", false, "append nondeterministic commit/abort counts to the report")
	verbose := fs.Bool("v", false, "log faults and recovery progress as they happen")
	forensics := fs.String("forensics", "", "on any invariant failure, also write the full failure reports (violations + event-trace forensics) to this file; CI uploads it as an artifact")
	return func() error {
		if *verbose {
			opts.Logf = func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}
		}
		n, first := max(*sweep, 1), opts.Seed
		var failures []string
		for ; opts.Seed < first+int64(n); opts.Seed++ {
			res, err := chaos.Run(opts)
			if err != nil {
				return fmt.Errorf("seed %d: %w", opts.Seed, err)
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
				failures = append(failures, res.Report(*stats))
			}
		}
		if n > 1 {
			fmt.Printf("sweep: %d/%d seeds passed\n", n-len(failures), n)
		}
		if len(failures) > 0 {
			return fail(*forensics, strings.Join(failures, "\n"), fmt.Errorf("%d of %d seeds failed", len(failures), n))
		}
		return nil
	}
}

// probeCmd runs the exhaustive crash-point explorer: for each selected
// workload it learns how many stable page writes every disk performs,
// then replays the workload once per write index with the disk armed to
// crash exactly there, drives full recovery and audits the section 5
// invariants at every point.  The same flags produce byte-identical
// output, -json included.
//
//	locus probe -workload tpc -kind preparelog
//	locus probe -max-points 8 -json
func probeCmd(fs *flag.FlagSet) func() error {
	var opts crashprobe.Options
	fs.StringVar(&opts.Workload, "workload", "all", "workload to sweep: single, diff, tpc, migrate, readonly, onephase, lease, ownermove, replica, or all")
	fs.StringVar(&opts.Kind, "kind", "", "restrict crash points to one I/O class: data, inode, coordlog, preparelog (empty = every stable write)")
	fs.IntVar(&opts.MaxPointsPerDisk, "max-points", 0, "bound the sweep per disk by stride-sampling this many indices (0 = exhaustive)")
	jsonOut := fs.Bool("json", false, "emit the full matrix as deterministic JSON instead of the text report")
	verbose := fs.Bool("v", false, "log per-disk sweep progress")
	forensics := fs.String("forensics", "", "on any violation, also write the full failure report (with event-trace forensics) to this file; CI uploads it as an artifact")
	return func() error {
		opts.Forensics = *forensics != "" || *verbose
		if *verbose {
			opts.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		res, err := crashprobe.Run(opts)
		if err != nil {
			return err
		}
		if *jsonOut {
			out, err := res.JSON()
			if err != nil {
				return err
			}
			fmt.Println(string(out))
		} else {
			fmt.Print(res.Report())
		}
		if !res.OK() {
			return fail(*forensics, res.Report(), errors.New("invariant violations"))
		}
		return nil
	}
}
