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
		o := bench.ConcurrentOpts{Clients: *clients, TxnsPerClient: *txnsPerCl, SampleInterval: *interval}.Simulated()
		o.Spec.Profile = true
		row, err := bench.ConcurrentCommit(o, gc)
		if err != nil {
			return err
		}
		rows = append(rows, row)
		fmt.Print(row.TelemetryReport(*interval))
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
