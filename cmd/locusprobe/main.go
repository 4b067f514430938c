// Command locusprobe runs the exhaustive crash-point explorer: for each
// selected workload it learns how many stable page writes every disk
// performs, then replays the workload once per write index with the
// disk armed to crash exactly there, drives full recovery, and audits
// the DESIGN.md section 5 invariants at every point.  A clean matrix
// means no instant exists at which a crash of that disk breaks
// atomicity, durability of confirmed commits, log integrity, or
// cross-site resolution.
//
// Everything is deterministic: the same flags produce byte-identical
// output (-json included).
//
// Usage:
//
//	locusprobe                         # all four workloads, every point
//	locusprobe -workload tpc           # one workload's full matrix
//	locusprobe -kind preparelog        # crash only on prepare-log writes
//	locusprobe -max-points 8           # stride-bound each disk's sweep
//	locusprobe -json                   # machine-readable matrix
//	locusprobe -forensics probe.txt    # on failure, write full report
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/crashprobe"
)

var (
	opts    crashprobe.Options
	jsonOut = flag.Bool("json", false, "emit the full matrix as deterministic JSON instead of the text report")
	verbose = flag.Bool("v", false, "log per-disk sweep progress")
	forens  = flag.String("forensics", "", "on any violation, also write the full failure report (with event-trace forensics) to this file; CI uploads it as an artifact")
)

func main() {
	flag.StringVar(&opts.Workload, "workload", "all", "workload to sweep: single, diff, tpc, migrate, readonly, onephase, lease, ownermove, or all")
	flag.StringVar(&opts.Kind, "kind", "", "restrict crash points to one I/O class: data, inode, coordlog, preparelog (empty = every stable write)")
	flag.IntVar(&opts.MaxPointsPerDisk, "max-points", 0, "bound the sweep per disk by stride-sampling this many indices (0 = exhaustive)")
	flag.Parse()
	opts.Forensics = *forens != "" || *verbose
	if *verbose {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := crashprobe.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "locusprobe:", err)
		os.Exit(2)
	}

	if *jsonOut {
		out, err := res.JSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "locusprobe:", err)
			os.Exit(2)
		}
		fmt.Println(string(out))
	} else {
		fmt.Print(res.Report())
	}

	if !res.OK() {
		if *forens != "" {
			if werr := os.WriteFile(*forens, []byte(res.Report()), 0o644); werr != nil {
				fmt.Fprintf(os.Stderr, "locusprobe: writing forensics: %v\n", werr)
			} else {
				fmt.Fprintf(os.Stderr, "locusprobe: failure forensics written to %s\n", *forens)
			}
		}
		os.Exit(1)
	}
}
