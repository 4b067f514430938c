// Command benchmark is the performance ledger of the Locus reproduction:
// four long closed-loop workloads on the virtual clock, reported in host
// cost (what the simulator burns per transaction) and simulated cost (what
// the paper's user would see on the modelled VAX-750s), with a traced run
// and per-layer micro-benchmarks that say which layer a number sits in.
// See README.md in this directory.
//
//	go run ./benchmark                          every workload, both runs, the layers section
//	go run ./benchmark -workload remote_2pc     one workload
//	go run ./benchmark -compare A.json B.json   verdict per (workload, end-to-end metric)
//
// The benchmark driver's form is
//
//	<command> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// which prints, as its last line, one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the run length the
// per-workload transaction counts were calibrated for.
const defaultSeconds = 10

// ledger is the result document one invocation writes.
type ledger struct {
	Schema     string                     `json:"schema"`
	Claim      *string                    `json:"claim"` // always null: the benchmark claims no gain
	Commit     string                     `json:"commit"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NProc      int                        `json:"nproc"`
	Seed       int64                      `json:"seed"`
	Seconds    int                        `json:"seconds"`
	Workloads  map[string]*workloadLedger `json:"workloads"`
	Layers     map[string]float64         `json:"layers,omitempty"`
}

// workloadLedger holds every run made of one workload.
type workloadLedger struct {
	Preset  string       `json:"preset"`
	Clients int          `json:"clients"`
	Txns    int          `json:"txns"`
	Runs    []*runLedger `json:"runs"`
}

// runLedger is one seed's result: the untraced run's end-to-end metrics
// and, when a traced run was made, the per-layer metrics.
type runLedger struct {
	Seed      int64              `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Problems  []string           `json:"problems,omitempty"`
	P99Beyond int                `json:"p99_samples_beyond"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

func main() {
	var (
		wlName   = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Int64("seed", 1, "seed the inputs are generated from")
		seconds  = flag.Int("seconds", defaultSeconds, "run length the frozen per-second transaction counts are scaled by")
		traceArg = flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics (traced run + layers section); default both")
		runs     = flag.Int("runs", 1, "runs per workload, with seeds seed, seed+1, ...")
		out      = flag.String("out", ".bench_build/ledger.json", "where the result JSON is written (empty: nowhere)")
		spansOut = flag.String("spans", "", "write the last traced run's spans to this CSV file")
		compare  = flag.Bool("compare", false, "compare two result files under ./BENCHMARK.json's directions and bounds: -compare A.json B.json")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	if *seconds < 1 || *runs < 1 {
		fatalf("-seconds and -runs must be at least 1")
	}
	// Under the virtual clock goroutines hand off to one another and a
	// second P adds only cross-thread wake-ups, whose cost is the host
	// scheduler's (see README); the GOMAXPROCS variable still overrides.
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	selected := workloads
	if *wlName != "" {
		w := workloadByName(*wlName)
		if w == nil {
			fatalf("unknown workload %q", *wlName)
		}
		selected = []*workload{w}
	}
	wantE2E, wantLayers := *traceArg != 1, *traceArg != 0

	led := &ledger{
		Schema: "locus-ledger/v1", Commit: vcsRevision(), GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadLedger{},
	}
	if wantLayers {
		led.Layers = runLayers(time.Duration(*seconds) * time.Second / 10)
		printMetrics("layers", led.Layers)
	}
	allCorrect := true
	var last *runLedger
	for _, w := range selected {
		n := w.txnsPerSecond * *seconds
		wl := &workloadLedger{Preset: w.presetName, Clients: len(w.clients), Txns: n}
		led.Workloads[w.name] = wl
		for r := 0; r < *runs; r++ {
			rl, spans, err := runOnce(w, n, *seed+int64(r), wantLayers)
			if err != nil {
				fatalf("%v", err)
			}
			wl.Runs = append(wl.Runs, rl)
			allCorrect = allCorrect && rl.Correct
			last = rl
			fmt.Printf("\n%s  seed %d  %d txns attempted, %d failed, correct=%v  (p99 has %d samples beyond it)\n",
				w.name, rl.Seed, rl.Attempted, rl.Failed, rl.Correct, rl.P99Beyond)
			for _, p := range rl.Problems {
				fmt.Printf("  PROBLEM: %s\n", p)
			}
			if wantE2E {
				printMetrics("end to end", rl.EndToEnd)
			}
			if wantLayers {
				printMetrics("per layer", rl.PerLayer)
			}
			if *spansOut != "" && spans != nil {
				if err := writeFile(*spansOut, func(f *os.File) error { return writeSpans(f, spans) }); err != nil {
					fatalf("%v", err)
				}
			}
		}
	}
	if *out != "" {
		if err := writeFile(*out, func(f *os.File) error { return jsonTo(f, led) }); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("\nresult written to %s\n", *out)
	}
	if len(selected) == 1 && *runs == 1 {
		metrics := map[string]float64{}
		maps.Copy(metrics, last.PerLayer)
		maps.Copy(metrics, led.Layers)
		if wantE2E {
			maps.Copy(metrics, last.EndToEnd)
		}
		fmt.Println(driverLine(last, metrics))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runOnce makes the untraced run of one workload at one seed and, when the
// per-layer metrics are wanted, the traced run after it.
func runOnce(w *workload, txns int, seed int64, traced bool) (*runLedger, []*spanLog, error) {
	plain, err := runWorkload(w, txns, seed, false)
	if err != nil {
		return nil, nil, err
	}
	rl := &runLedger{
		Seed: seed, Attempted: plain.Attempted, Failed: plain.Failed, Correct: plain.Correct,
		Problems: plain.Problems, P99Beyond: plain.P99Beyond, EndToEnd: plain.Metrics,
	}
	if !traced {
		return rl, nil, nil
	}
	tr, err := runWorkload(w, txns, seed, true)
	if err != nil {
		return nil, nil, err
	}
	rl.Correct = rl.Correct && tr.Correct
	for _, p := range tr.Problems {
		rl.Problems = append(rl.Problems, "traced run: "+p)
	}
	rl.PerLayer = tr.Metrics
	rl.PerLayer["trace.overhead_share"] = 1 - tr.HostRate/plain.HostRate
	return rl, tr.spans, nil
}

// driverLine renders the one-line JSON object the benchmark driver reads.
func driverLine(rl *runLedger, metrics map[string]float64) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{rl.Correct, rl.Attempted, rl.Failed, map[string]mv{}}
	for k, v := range metrics {
		line.Metrics[k] = mv{v, unitOf(k)}
	}
	b, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	return string(b)
}

// printMetrics prints one "name value unit" row per metric, sorted.
func printMetrics(title string, m map[string]float64) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("  -- %s --\n", title)
	for _, k := range names {
		fmt.Printf("  %-42s %16.6g  %s\n", k, m[k], unitOf(k))
	}
}

// endToEndUnits gives every end-to-end metric's unit, as BENCHMARK.json
// declares it.  Simulated quantities carry sim_ units so they are never
// mistaken for host time.
var endToEndUnits = map[string]string{
	"host_txn_per_s":          "1/s",
	"host_cpu_us_per_txn":     "us",
	"host_allocs_per_txn":     "count",
	"host_bytes_per_txn":      "B",
	"host_live_heap_mb":       "MiB",
	"setup_s":                 "s",
	"sim_txn_per_s":           "1/sim_s",
	"sim_commit_ms_p50":       "sim_ms",
	"sim_commit_ms_p99":       "sim_ms",
	"forced_ios_per_txn":      "count",
	"msgs_and_forces_per_txn": "count",
	"txn_commit_share":        "share",
}

// unitOf derives a metric's unit: end-to-end metrics from the table, per-
// layer metrics from their name's suffix.
func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_sim_ms"):
		return "sim_ms"
	case strings.HasSuffix(name, "_host_us"):
		return "us"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.HasSuffix(name, "bytes_per_txn"), strings.HasSuffix(name, "bytes_copied_per_txn"):
		return "B"
	case strings.Contains(name, "_share") || strings.Contains(name, "share."):
		return "share"
	}
	return "count"
}

// vcsRevision is the commit the binary was built from, when the toolchain
// stamped one (a checkout that is not a git repository has none).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func jsonTo(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(v)
}

func writeFile(path string, write func(*os.File) error) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
