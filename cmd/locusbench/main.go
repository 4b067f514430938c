// Command locusbench regenerates every table and figure of the paper's
// evaluation (section 6) and prints them as paper-style tables with the
// reported 1985 values alongside.
//
// Usage:
//
//	locusbench                 # run every experiment
//	locusbench -exp fig5       # one experiment (-exp help lists them)
//	locusbench -exp concurrent -clients 16
//	                           # group-commit throughput, 16 clients
//	locusbench -markdown       # emit Markdown tables (for EXPERIMENTS.md)
//	locusbench -model modern   # re-run under a contemporary cost model
//	locusbench -json out.json  # write the perf-tracking snapshot
//	locusbench -check BENCH_BASELINE.json
//	                           # gate the snapshot against the baseline
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/lockmgr"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// experiments is the one registry the -exp flag, its help text, the
// run-everything order and the smoke test are all driven from.
var experiments = []struct {
	name string
	run  func() error
}{
	{"fig1", fig1},
	{"fig5", fig5},
	{"lock", lockCost},
	{"fig6", fig6},
	{"pagesize", pageSize},
	{"shadowlog", shadowLog},
	{"preplog", prepLog},
	{"lockcache", lockCache},
	{"replica", replica},
	{"prefetch", prefetch},
	{"fn7", fn7},
	{"granularity", granularity},
	{"recovery", recovery},
	{"concurrent", concurrent},
	{"mixed", mixed},
	{"repeat", repeat},
	{"skew", skew},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, " ")
}

var (
	expFlag   = flag.String("exp", "all", "experiment to run: all "+experimentNames())
	markdown  = flag.Bool("markdown", false, "emit Markdown tables")
	model     = flag.String("model", "vax750", "cost model: vax750 (the paper's testbed) or modern")
	clients   = flag.Int("clients", 8, "client goroutines for the concurrent experiment")
	txnsPerCl = flag.Int("txns", 25, "transactions per client for the concurrent experiment")
	jsonPath  = flag.String("json", "", "write a machine-readable benchmark snapshot (stable schema) to this path")
	checkPath = flag.String("check", "", "regenerate the snapshot and gate it against this baseline file (rows of experiment, case, metric, value, better, tolerance); exit 1 on a regression or a missing row")
	vtimeF    = flag.Bool("vtime", false, "run the concurrent experiment on the virtual discrete-event clock with the cost model's disk latency: latencies and throughput are reported in simulated time, wall-clock shrinks by orders of magnitude")
	telemF    = flag.Bool("telemetry", false, "run the concurrent pair with the metrics registry, utilization sampler and commit critical-path profiler attached; prints the attribution summary (with -json, writes the canonical locusbench-telemetry/v1 document instead of the classic snapshot)")
	interval  = flag.Duration("interval", 100*time.Millisecond, "telemetry sampler period (simulated time under -vtime)")
)

func main() {
	flag.Parse()
	switch *model {
	case "vax750":
		// The default; bench.Vax is already the calibrated 1985 model.
	case "modern":
		bench.Vax = costmodel.Modern()
		fmt.Println("cost model: modern-nvme-10g (absolute numbers shrink ~1000x; the shapes - who wins, where crossovers fall - should not)")
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q (want vax750 or modern)"+"\n", *model)
		os.Exit(2)
	}
	run := func() error {
		ran := false
		for _, e := range experiments {
			if *expFlag == "all" || *expFlag == e.name {
				ran = true
				if err := e.run(); err != nil {
					return fmt.Errorf("experiment %s: %w", e.name, err)
				}
			}
		}
		if !ran {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of: all %s)\n", *expFlag, experimentNames())
			os.Exit(2)
		}
		return nil
	}
	if *telemF {
		run = telemetryCmd
	} else if *jsonPath != "" || *checkPath != "" {
		run = snapshotCmd
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

// table prints rows with a header; in Markdown mode it emits a pipe
// table, otherwise an aligned text table.
func table(title string, header []string, rows [][]string) {
	fmt.Printf("\n## %s\n\n", title)
	if *markdown {
		fmt.Println("| " + strings.Join(header, " | ") + " |")
		seps := make([]string, len(header))
		for i := range seps {
			seps[i] = "---"
		}
		fmt.Println("| " + strings.Join(seps, " | ") + " |")
		for _, r := range rows {
			fmt.Println("| " + strings.Join(r, " | ") + " |")
		}
		return
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
}

// show prints an experiment's rows as a table, one cells() line per row,
// then the notes; the experiment's error passes through.
func show[R any](title string, header []string, rows []R, err error, cells func(R) []string, notes ...string) error {
	if err != nil {
		return err
	}
	out := make([][]string, len(rows))
	for i, r := range rows {
		out[i] = cells(r)
	}
	table(title, header, out)
	for _, n := range notes {
		fmt.Println(n)
	}
	return nil
}

// ms renders a simulated duration in milliseconds at the given precision.
func ms(d time.Duration, prec int) string {
	return fmt.Sprintf("%.*fms", prec, float64(d.Microseconds())/1000)
}

// fig1 prints the lock compatibility matrix by probing a live lock table
// (experiment E1).
func fig1() error {
	type probe struct {
		name string
		mode lockmgr.Mode // ModeNone = Unix (unlocked access)
	}
	modes := []probe{{"Unix", lockmgr.ModeNone}, {"Shared", lockmgr.ModeShared}, {"Exclusive", lockmgr.ModeExclusive}}
	cell := func(held, req probe) string {
		fl := lockmgr.NewFileLocks("probe", nil, stats.NewSet())
		holder := lockmgr.Holder{PID: 1, Txn: "H"}
		requester := lockmgr.Holder{PID: 2, Txn: "R"}
		// unix reports what unlocked (Unix-mode) access h still has,
		// checking read and write separately.
		unix := func(h lockmgr.Holder) string {
			switch {
			case fl.CheckAccess(h, true, 0, 10) == nil:
				return "r/w"
			case fl.CheckAccess(h, false, 0, 10) == nil:
				return "read"
			}
			return "no"
		}
		if held.mode == lockmgr.ModeNone && req.mode != lockmgr.ModeNone {
			// Unix access is not a persistent table entry; the matrix
			// cell expresses concurrency: grant the requested lock, then
			// ask what unlocked access remains possible for the Unix
			// side (enforced at access time, Figure 1).
			if _, err := fl.Lock(lockmgr.Request{Holder: requester, Mode: req.mode, Off: 0, Len: 10}); err != nil {
				return "err"
			}
			return unix(holder)
		}
		if held.mode != lockmgr.ModeNone {
			if _, err := fl.Lock(lockmgr.Request{Holder: holder, Mode: held.mode, Off: 0, Len: 10}); err != nil {
				return "err"
			}
		}
		if req.mode == lockmgr.ModeNone {
			return unix(requester)
		}
		_, err := fl.Lock(lockmgr.Request{Holder: requester, Mode: req.mode, Off: 0, Len: 10})
		if err != nil {
			return "no"
		}
		if req.mode == lockmgr.ModeShared {
			return "read"
		}
		return "r/w"
	}
	var rows [][]string
	for _, held := range modes {
		row := []string{held.name}
		for _, req := range modes {
			row = append(row, cell(held, req))
		}
		rows = append(rows, row)
	}
	table("Figure 1: transaction synchronization rules (held \\ requested)",
		[]string{"held \\ req", "Unix", "Shared", "Exclusive"}, rows)
	fmt.Println("paper:  Unix/Unix r/w, Shared row: read read no, Exclusive row: no no no")
	return nil
}

func fig5() error {
	for _, mode := range []struct {
		double bool
		label  string
	}{{false, "intended design (footnote 9 fixed)"}, {true, "1985 implementation (footnote 9)"}} {
		rows, err := bench.Fig5(mode.double)
		if err := show("Figure 5: transaction I/O overhead - "+mode.label,
			[]string{"configuration", "coord log (1+4)", "data (2)", "prepare (3)", "inode (5)", "total", "paper"},
			rows, err, func(r bench.Fig5Row) []string {
				paper := "-"
				if r.PaperTotal > 0 {
					paper = fmt.Sprint(r.PaperTotal)
				}
				return []string{
					r.Case,
					fmt.Sprint(r.CoordLog), fmt.Sprint(r.DataPages),
					fmt.Sprint(r.PrepareLog), fmt.Sprint(r.Inode),
					fmt.Sprint(r.Total), paper,
				}
			}); err != nil {
			return err
		}
	}
	return nil
}

func lockCost() error {
	rows, err := bench.LockCost(64)
	return show("Section 6.2: record locking cost (per lock)",
		[]string{"case", "instructions", "messages", "sim service", "sim latency", "paper"},
		rows, err, func(r bench.LockRow) []string {
			return []string{
				r.Case,
				fmt.Sprint(r.InstrPerLock),
				fmt.Sprintf("%.0f", r.MsgsPerLock),
				ms(r.SimService, 3), ms(r.SimLatency, 3),
				r.PaperNote,
			}
		})
}

func fig6() error {
	rows, err := bench.Fig6()
	return show("Figure 6: measured commit performance",
		[]string{"case", "instr", "reads/writes", "msgs", "sim service", "sim latency", "paper"},
		rows, err, func(r bench.Fig6Row) []string {
			return []string{
				r.Case,
				fmt.Sprint(r.Instr),
				fmt.Sprintf("%d/%d", r.Reads, r.Writes),
				fmt.Sprint(r.Msgs),
				ms(r.SimService, 1), ms(r.SimLatency, 1),
				r.PaperValues,
			}
		})
}

func pageSize() error {
	rows, err := bench.PageSizeDifferencing([]int{512, 1024, 2048, 4096, 8192})
	return show("Footnote 11: page size vs differencing cost (substantial copy)",
		[]string{"page size", "bytes copied", "sim service", "delta vs 1K"},
		rows, err, func(r bench.PageSizeRow) []string {
			return []string{
				fmt.Sprint(r.PageSize),
				fmt.Sprint(r.BytesCopied),
				ms(r.SimService, 2),
				fmt.Sprintf("%+.2fms", float64(r.DeltaVs1K.Microseconds())/1000),
			}
		}, "paper:  1K -> 4K pages adds ~1ms when a substantial portion is copied")
}

func shadowLog() error {
	rows, err := bench.ShadowVsWAL(
		[]workload.Pattern{workload.Sequential, workload.Random, workload.HotCold},
		[]int{64, 256, 1024},
		[]int{1, 4, 8},
	)
	return show("Section 6 / [Weinstein85]: shadow paging vs commit logging (I/Os per txn)",
		[]string{"pattern", "rec size", "recs/txn", "shadow IO", "wal IO", "shadow lat", "wal lat", "winner"},
		rows, err, func(r bench.ShadowVsWALRow) []string {
			return []string{
				r.Pattern.String(), fmt.Sprint(r.RecordSize), fmt.Sprint(r.RecsPerTxn),
				fmt.Sprintf("%.2f", r.ShadowIO), fmt.Sprintf("%.2f", r.WALIO),
				ms(r.ShadowLatency, 0), ms(r.WALLatency, 0),
				r.Winner,
			}
		},
		"paper:  relative performance is highly dependent on the access strings;",
		"        logging wins small scattered records, shadow paging is competitive elsewhere")
}

func prepLog() error {
	rows, err := bench.PrepareLogGranularity([]int{1, 2, 4, 8})
	return show("Footnote 10: prepare log granularity (step-3 writes per txn)",
		[]string{"files/txn", "per volume (design)", "per file (1985 impl)"},
		rows, err, func(r bench.PrepGranRow) []string {
			return []string{
				fmt.Sprint(r.FilesPerTxn),
				fmt.Sprintf("%d (paper %d)", r.PerVolumeIO, r.PaperPerVolume),
				fmt.Sprintf("%d (paper %d)", r.PerFileIO, r.PaperPerFile),
			}
		})
}

func lockCache() error {
	rows, err := bench.LockCacheAblation(32)
	return perOpTable("Section 5.1 ablation: requesting-site lock cache", "access", rows, err)
}

func replica() error {
	rows, err := bench.ReplicaLocality(16)
	return perOpTable("Section 5.2: replication - reads at the closest storage site", "read", rows, err)
}

// perOpTable prints an experiment that repeats one remote operation.
func perOpTable(title, op string, rows []bench.PerOpRow, err error) error {
	return show(title, []string{"case", "msgs/" + op, "sim latency/" + op},
		rows, err, func(r bench.PerOpRow) []string {
			return []string{r.Case, fmt.Sprintf("%.2f", r.MsgsPerOp), ms(r.SimLatency, 1)}
		})
}

func prefetch() error {
	rows, err := bench.PrefetchAblation()
	return show("Section 5.2: prefetch on lock (remote lock + first read)",
		[]string{"case", "lock latency", "first read latency"},
		rows, err, func(r bench.PrefetchRow) []string {
			return []string{r.Case, ms(r.LockLatency, 1), ms(r.ReadLatency, 1)}
		})
}

func fn7() error {
	rows, err := bench.Footnote7Ablation()
	return show("Footnote 7: differencing from the buffer pool (overlap commit)",
		[]string{"case", "page reads", "sim latency"},
		rows, err, func(r bench.Fn7Row) []string {
			return []string{r.Case, fmt.Sprint(r.Reads), ms(r.SimLatency, 1)}
		})
}

func granularity() error {
	rows, err := bench.LockGranularity(4, 4, 5*time.Millisecond)
	return show("Section 7.1: record-level vs whole-file locking (4 workers, disjoint records)",
		[]string{"case", "lock waits", "wall clock"},
		rows, err, func(r bench.GranularityRow) []string {
			return []string{r.Case, fmt.Sprint(r.LockWaits), r.WallClock.Round(time.Millisecond).String()}
		},
		"paper:  whole file locking restricts concurrent access; record locking was",
		"        the new facility's motivation for database workloads")
}

func concurrent() error {
	rows, err := bench.ConcurrentPair(concurrentOpts())
	if err != nil {
		return err
	}
	var out [][]string
	for _, r := range rows {
		row := []string{
			r.Case,
			fmt.Sprintf("%d", r.Committed),
			fmt.Sprintf("%.0f", r.TxnsPerSec),
			r.P50.String(), r.P95.String(), r.P99.String(),
			fmt.Sprintf("%.2f", r.ForcedPerTxn),
			fmt.Sprintf("%d", r.DiskWrites),
		}
		if *vtimeF {
			row = append(row, r.SimTime.Round(time.Millisecond).String(), fmt.Sprintf("%.0f", r.TxnsPerSimSec))
		}
		out = append(out, row)
	}
	hdr := []string{"case", "committed", "txns/sec", "p50", "p95", "p99", "forced IOs/txn", "page writes"}
	title := fmt.Sprintf("Group commit: concurrent transfer throughput (%d clients x %d txns)", *clients, *txnsPerCl)
	if *vtimeF {
		hdr = append(hdr, "sim time", "txns/sim-sec")
		title += " [virtual clock; latencies in simulated time]"
	}
	table(title, hdr, out)
	var phases [][]string
	for _, r := range rows {
		for _, ph := range []struct {
			name string
			h    trace.Histogram
		}{{"total", r.PhaseTotal}, {"prepare", r.PhasePrepare}, {"phase2", r.PhasePhase2}} {
			phases = append(phases, []string{
				r.Case, ph.name, fmt.Sprint(ph.h.Count),
				bench.Ms(ph.h.P50).String(), bench.Ms(ph.h.P95).String(), bench.Ms(ph.h.P99).String(),
			})
		}
	}
	table("Per-2PC-phase commit latency (from the event trace)",
		[]string{"case", "phase", "txns", "p50", "p95", "p99"}, phases)
	if *vtimeF && rows[0].TxnsPerSimSec > 0 {
		fmt.Printf("speedup: %.2fx committed-txns/sim-sec at %s disk speed; per-page write counts\n",
			rows[1].TxnsPerSimSec/rows[0].TxnsPerSimSec, bench.Vax.Name)
		fmt.Println("identical, so the Figure 5 I/O tables reproduce unchanged")
	} else if rows[0].TxnsPerSec > 0 {
		fmt.Printf("speedup: %.2fx committed-txns/sec; per-page write counts identical, so the\n", rows[1].TxnsPerSec/rows[0].TxnsPerSec)
		fmt.Println("Figure 5 I/O tables reproduce unchanged (batching only merges sync forces)")
	}
	return nil
}

// concurrentOpts is the concurrent experiment as the flags select it:
// the traced transfer workload, on the virtual clock at the cost
// model's disk latency under -vtime.
func concurrentOpts() bench.ConcurrentOpts {
	o := bench.ConcurrentOpts{Clients: *clients, TxnsPerClient: *txnsPerCl, Spec: scenario.Spec{Trace: true}}
	if *vtimeF {
		o = o.Simulated()
	}
	return o
}

// telemetryCmd runs the concurrent pair with the registry, sampler and
// profiler attached.  Without -json it prints the human attribution and
// utilization summary; with -json it writes the canonical
// locusbench-telemetry/v1 document (fixed field order, sorted keys) -
// the artifact the CI golden-snapshot job diffs byte-for-byte.
func telemetryCmd() error {
	o := concurrentOpts()
	o.Spec.Trace, o.Spec.Profile, o.SampleInterval = false, true, *interval
	rows, err := bench.ConcurrentPair(o)
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, bench.TelemetryDocument(rows), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
		return nil
	}
	for _, r := range rows {
		fmt.Print(r.TelemetryReport(*interval))
	}
	return nil
}

// mixed prints the commit fast-path table (experiment E17): the mixed
// read/write workload at several read shares, fast paths off and on.
func mixed() error {
	rows, err := bench.MixedSweep()
	return show(fmt.Sprintf("Commit fast paths: mixed read/write workload (%d txns per config)", bench.MixedTxns),
		[]string{"case", "reads", "committed", "sim p50", "sim p99", "forced IOs/txn",
			"coord log", "prepare log", "ro votes", "1-phase"},
		rows, err, func(r bench.MixedRow) []string {
			return []string{
				r.Case, fmt.Sprintf("%d%%", r.ReadShare),
				fmt.Sprint(r.Committed),
				r.P50.String(), r.P99.String(),
				fmt.Sprintf("%.2f", r.ForcedPerTxn),
				fmt.Sprint(r.CoordWrites), fmt.Sprint(r.PrepWrites),
				fmt.Sprint(r.ReadOnly), fmt.Sprint(r.OnePhase),
			}
		},
		"fast paths: read-only votes skip the prepare force and phase two; a",
		"single-site transaction commits in one combined message (DESIGN.md section 10)")
}

// repeat prints the skewed repeated-access table (experiment E20): one
// serial client re-touching a single hot remote file across many small
// transactions, sticky lock leases off and on.  With leases the storage
// site retains the coverage between transactions (escalating to a
// whole-file lease under dense access), so the lock messages per
// transaction column should approach zero.
func repeat() error {
	rows, err := bench.RepeatPair()
	return show(fmt.Sprintf("Section 5.1 extended: repeated access to a hot remote file (%d txns per config)", bench.RepeatTxns),
		[]string{"case", "committed", "lock msgs", "lock msgs/txn", "lease hits", "revokes", "escalations"},
		rows, err, func(r bench.RepeatRow) []string {
			return []string{
				r.Case,
				fmt.Sprint(r.Committed),
				fmt.Sprint(r.LockMsgs),
				fmt.Sprintf("%.3f", r.LockMsgsPerTxn),
				fmt.Sprint(r.LeaseHits),
				fmt.Sprint(r.LeaseRevokes),
				fmt.Sprint(r.Escalations),
			}
		},
		"sticky leases: the storage site keeps a released lock as a lease for the",
		"requesting site; repeat hits cost zero lock messages until a conflicting",
		"site forces a callback revoke (DESIGN.md section 13)")
}

// skew prints the locality-adaptive placement table (experiment E21):
// two client sites driving disjoint Zipfian hot sets against a file
// pool mounted at a third site, adaptive placement off and on.  With
// placement on, ownership moves and commit routing drive the local
// commit fraction toward one and the messages per transaction down.
func skew() error {
	rows, err := bench.SkewSweep()
	return show(fmt.Sprintf("Locality-adaptive placement: skewed clients vs one storage site (%d measured txns)", 2*bench.SkewTxns),
		[]string{"case", "committed", "local frac", "remote parts/txn", "msgs/txn", "forced IOs/txn", "owner moves", "routed", "proc moves"},
		rows, err, func(r bench.SkewRow) []string {
			return []string{
				r.Case,
				fmt.Sprint(r.Committed),
				fmt.Sprintf("%.3f", r.LocalCommitFraction),
				fmt.Sprintf("%.2f", r.RemotePartsPerTxn),
				fmt.Sprintf("%.2f", r.MsgsPerTxn),
				fmt.Sprintf("%.2f", r.ForcedPerTxn),
				fmt.Sprint(r.OwnerMoves),
				fmt.Sprint(r.RoutedCommits),
				fmt.Sprint(r.ProcMoves),
			}
		},
		"adaptive placement: the heat tracker migrates each client's hot files to",
		"that client and commit routing localizes the rest, so hot commits stop",
		"crossing the network (DESIGN.md section 14)")
}

// snapshot is the stable -json schema ("locusbench/v1"); the JSON tags of
// the row types in internal/bench are its field names.  Fields are
// append-only: future PRs may add keys but must not rename or remove
// these, so perf trajectories stay comparable across snapshots.
type snapshot struct {
	Schema     string                `json:"schema"`
	Model      string                `json:"model"`
	Fig5       []bench.Fig5Row       `json:"fig5"`
	Concurrent []bench.ConcurrentRow `json:"concurrent"`
	// The mixed read/write sweep at read shares 0/50/90, fast paths
	// off/on.
	Mixed []bench.MixedRow `json:"mixed"`
	// The concurrent pair re-run in discrete-event time at the cost
	// model's disk latency, reporting simulated-time throughput.
	Vtime []bench.ConcurrentRow `json:"vtime"`
	// The repeated-access workload, sticky lock leases off and on.
	Repeat []bench.RepeatRow `json:"repeat"`
	// The skewed-client sweep, adaptive placement off and on.
	Skew []bench.SkewRow `json:"skew"`
}

func buildSnapshot() (snapshot, error) {
	snap := snapshot{Schema: "locusbench/v1", Model: *model}
	for _, double := range []bool{false, true} {
		rows, err := bench.Fig5(double)
		if err != nil {
			return snap, err
		}
		snap.Fig5 = append(snap.Fig5, rows...)
	}
	o := bench.ConcurrentOpts{Clients: *clients, TxnsPerClient: *txnsPerCl, Spec: scenario.Spec{Trace: true}}
	var err error
	if snap.Concurrent, err = bench.ConcurrentPair(o); err != nil {
		return snap, err
	}
	if snap.Vtime, err = bench.ConcurrentPair(o.Simulated()); err != nil {
		return snap, err
	}
	if snap.Mixed, err = bench.MixedSweep(); err != nil {
		return snap, err
	}
	if snap.Repeat, err = bench.RepeatPair(); err != nil {
		return snap, err
	}
	snap.Skew, err = bench.SkewSweep()
	return snap, err
}

// snapshotCmd regenerates the snapshot once, writes it under -json and
// gates it under -check.
func snapshotCmd() error {
	snap, err := buildSnapshot()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	if *checkPath == "" {
		return nil
	}
	base, err := os.ReadFile(*checkPath)
	if err != nil {
		return err
	}
	return check(base, data)
}

// gate is one row of the baseline file: the value a snapshot metric had
// when the baseline was cut, which direction is better, and how far on
// the worse side (relative) a run may land before the gate fails.
type gate struct {
	Experiment string  `json:"experiment"`
	Case       string  `json:"case"`
	Metric     string  `json:"metric"`
	Value      float64 `json:"value"`
	Better     string  `json:"better"`
	Tolerance  float64 `json:"tolerance"`
}

// check gates a marshalled snapshot against a baseline file's rows,
// printing one "want -> got" line per row.
func check(baseline, snap []byte) error {
	var gates []gate
	dec := json.NewDecoder(bytes.NewReader(baseline))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gates); err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	got, err := metrics(snap)
	if err != nil {
		return err
	}
	missed := 0
	for _, g := range gates {
		if g.Better != "lower" && g.Better != "higher" {
			return fmt.Errorf("baseline: %s %s %s: better is %q, want lower or higher", g.Experiment, g.Case, g.Metric, g.Better)
		}
		v, ok := got[[3]string{g.Experiment, g.Case, g.Metric}]
		verdict := "OK"
		switch {
		case !ok:
			verdict = "MISSING from this run"
		case g.Better == "lower" && v > g.Value*(1+g.Tolerance), g.Better == "higher" && v < g.Value*(1-g.Tolerance):
			verdict = fmt.Sprintf("REGRESSED (%s is better, tolerance %g%%)", g.Better, 100*g.Tolerance)
		}
		if verdict != "OK" {
			missed++
		}
		fmt.Printf("%s %s: %s %v -> %v %s\n", g.Experiment, g.Case, g.Metric, g.Value, v, verdict)
	}
	if missed > 0 {
		return fmt.Errorf("%d of %d gated metrics missed their baseline", missed, len(gates))
	}
	return nil
}

// metrics flattens a marshalled snapshot into (experiment, case, metric)
// -> value over every numeric field of every row.  The mixed rows share
// a case across read shares, so there the case key carries the share:
// "fast-paths on @50%".
func metrics(snap []byte) (map[[3]string]float64, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(snap, &doc); err != nil {
		return nil, err
	}
	out := map[[3]string]float64{}
	for exp, raw := range doc {
		var rows []map[string]any
		if json.Unmarshal(raw, &rows) != nil {
			continue // schema, model: not a row section
		}
		for _, row := range rows {
			name, _ := row["case"].(string)
			if share, ok := row["read_share"]; ok {
				name = fmt.Sprintf("%s @%v%%", name, share)
			}
			for metric, v := range row {
				if f, ok := v.(float64); ok {
					out[[3]string{exp, name, metric}] = f
				}
			}
		}
	}
	return out, nil
}

func recovery() error {
	rows, err := bench.Recovery()
	return show("Sections 4.3-4.4: abort and crash recovery matrix",
		[]string{"scenario", "observed", "recovery I/Os", "all-or-nothing"},
		rows, err, func(r bench.RecoveryRow) []string {
			return []string{r.Scenario, r.Outcome, fmt.Sprint(r.RecoverIO), map[bool]string{true: "PASS", false: "FAIL"}[r.Correct]}
		})
}
