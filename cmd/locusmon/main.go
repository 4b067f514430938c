// Command locusmon is the observability console: it runs the concurrent
// transfer workload on the virtual discrete-event clock with the full
// telemetry stack attached — metrics registry, utilization sampler,
// commit critical-path profiler — and reports where the simulated time
// went.  Wall-clock cost is milliseconds regardless of the simulated
// span.
//
// Usage:
//
//	locusmon                          # utilization + critical path, group commit off/on
//	locusmon -clients 16 -txns 25     # heavier workload
//	locusmon -groupcommit             # only the group-commit-on run
//	locusmon -model modern            # contemporary cost model
//	locusmon -interval 50ms           # sampler period (simulated time)
//	locusmon -json tele.json          # canonical locusbench-telemetry/v1 document
//	locusmon -csv samples.csv         # sampler time-series as CSV
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/telemetry"
)

var (
	clients   = flag.Int("clients", 8, "client goroutines")
	txnsPerCl = flag.Int("txns", 25, "transactions per client")
	model     = flag.String("model", "vax750", "cost model: vax750 or modern")
	gcOnly    = flag.Bool("groupcommit", false, "run only with group commit enabled (default runs off then on)")
	interval  = flag.Duration("interval", 100*time.Millisecond, "sampler period in simulated time")
	jsonPath  = flag.String("json", "", "write the canonical telemetry document (locusbench-telemetry/v1) to this path")
	csvPath   = flag.String("csv", "", "write the sampler time-series as CSV to this path (last run's series)")
)

func main() {
	flag.Parse()
	switch *model {
	case "vax750":
	case "modern":
		bench.Vax = costmodel.Modern()
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q (want vax750 or modern)\n", *model)
		os.Exit(2)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func run() error {
	configs := []bool{false, true}
	if *gcOnly {
		configs = []bool{true}
	}
	var rows []bench.ConcurrentRow
	for _, gc := range configs {
		row, err := bench.ConcurrentCommit(bench.ConcurrentOpts{
			Clients:        *clients,
			TxnsPerClient:  *txnsPerCl,
			GroupCommit:    gc,
			Telemetry:      true,
			SampleInterval: *interval,
		}.Simulated())
		if err != nil {
			return err
		}
		rows = append(rows, row)
		report(row)
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, bench.TelemetryDocument(rows), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSamplesCSV(f, rows[len(rows)-1].Samples); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", *csvPath)
	}
	return nil
}

// report prints one run's utilization view: headline numbers, a
// per-interval spindle-utilization strip derived from successive
// disk_busy_ns samples, and the critical-path attribution.
func report(r bench.ConcurrentRow) {
	fmt.Printf("\n## %s — %d clients x %d txns (%s model)\n\n", r.Case, r.Clients, r.TxnsPerCl, bench.Vax.Name)
	fmt.Printf("committed %d, aborted %d in %s simulated (%s total with setup)\n",
		r.Committed, r.Aborted, r.SimTime.Round(time.Millisecond), r.SimTotal.Round(time.Millisecond))
	fmt.Printf("throughput %.1f txns/simulated-second\n", r.TxnsPerSimSec)
	c := r.Metrics.Counters
	if r.SimTotal > 0 {
		fmt.Printf("spindle: %.1f%% busy (%s of %s), %d forces, %d writes, %d reads\n",
			100*float64(c["disk_busy_ns"])/float64(r.SimTotal.Nanoseconds()),
			time.Duration(c["disk_busy_ns"]).Round(time.Millisecond), r.SimTotal.Round(time.Millisecond),
			c["forced_ios"], c["disk_writes"], c["disk_reads"])
	}
	if n := c["msgs_sent"]; n > 0 {
		fmt.Printf("network: %d messages, %s in transit\n", n, time.Duration(c["net_transit_ns"]).Round(time.Millisecond))
	}
	if commits := c["txn_commits"]; commits > 0 {
		fmt.Printf("locality: %.1f%% local commits (%d of %d), %d remote participant sites, %d owner moves, %d routed, %d proc moves\n",
			100*float64(c["local_commits"])/float64(commits), c["local_commits"], commits,
			c["remote_participants"], c["owner_moves"], c["routed_commits"], c["placement_migrations"])
	}
	if h, ok := r.Metrics.Histograms["lock_wait_ns"]; ok && h.Count > 0 {
		fmt.Printf("lock manager: %d queue waits, mean %s\n",
			h.Count, time.Duration(int64(float64(h.Sum)/float64(h.Count))).Round(time.Microsecond))
	}
	if h, ok := r.Metrics.Histograms["group_commit_batch_size"]; ok && h.Count > 0 {
		lg := r.Metrics.Histograms["group_commit_linger_ns"]
		fmt.Printf("group commit: %d flushes, mean batch %.1f records, mean linger %s\n",
			h.Count, float64(h.Sum)/float64(h.Count),
			time.Duration(int64(float64(lg.Sum)/float64(max(lg.Count, 1)))).Round(time.Microsecond))
	}
	if strip := utilizationStrip(r.Samples, *interval); strip != "" {
		fmt.Printf("utilization %s  (one cell per %s, . <25%% : <50%% + <75%% # <=100%%)\n", strip, *interval)
	}
	fmt.Println()
	fmt.Print(r.Profile.Summary())
}

// utilizationStrip renders successive-sample disk_busy_ns deltas as a
// coarse per-interval utilization bar.
func utilizationStrip(samples []telemetry.Sample, interval time.Duration) string {
	if len(samples) == 0 || interval <= 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('[')
	var prev int64
	for _, sm := range samples {
		busy := sm.Values["disk_busy_ns"]
		frac := float64(busy-prev) / float64(interval.Nanoseconds())
		prev = busy
		switch {
		case frac < 0.25:
			b.WriteByte('.')
		case frac < 0.5:
			b.WriteByte(':')
		case frac < 0.75:
			b.WriteByte('+')
		default:
			b.WriteByte('#')
		}
	}
	b.WriteByte(']')
	return b.String()
}
