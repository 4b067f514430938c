package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/costmodel"
	"repro/internal/lockmgr"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchFlags is the bench subcommand: the paper's section 6 tables with
// the reported 1985 values alongside, the locusbench/v1 snapshot and its
// gate, and the telemetry attribution of the concurrent pair.
//
//	locus bench                        # every experiment
//	locus bench -exp fig5 -markdown    # one experiment as a Markdown table
//	locus bench -exp concurrent        # group commit in simulated time
//	locus bench -model modern          # a contemporary cost model
//	locus bench -check BENCH_BASELINE.json
//	locus bench -telemetry -json t.json -csv s.csv
type benchFlags struct {
	exp, model, jsonPath, checkPath, csvPath string
	markdown, telemetry                      bool
	clients, txns                            int
	interval                                 time.Duration
}

func benchCmd(fs *flag.FlagSet) func() error { return newBench(fs).run }

func newBench(fs *flag.FlagSet) *benchFlags {
	b := &benchFlags{}
	fs.StringVar(&b.exp, "exp", "all", "experiment to run: all "+b.names())
	fs.BoolVar(&b.markdown, "markdown", false, "emit Markdown tables")
	fs.StringVar(&b.model, "model", "vax750", "cost model: vax750 (the paper's testbed) or modern")
	fs.IntVar(&b.clients, "clients", 8, "client goroutines for the concurrent experiment")
	fs.IntVar(&b.txns, "txns", 25, "transactions per client for the concurrent experiment")
	fs.StringVar(&b.jsonPath, "json", "", "write a machine-readable benchmark snapshot (stable schema) to this path")
	fs.StringVar(&b.checkPath, "check", "", "regenerate the snapshot and gate it against this baseline file (rows of experiment, case, metric, value, better, tolerance); exit 1 on a regression or a missing row")
	fs.BoolVar(&b.telemetry, "telemetry", false, "run the concurrent pair with the metrics registry, utilization sampler and commit critical-path profiler attached; prints the attribution summary (with -json, writes the canonical locusbench-telemetry/v1 document instead of the classic snapshot)")
	fs.DurationVar(&b.interval, "interval", 100*time.Millisecond, "telemetry sampler period, in simulated time")
	fs.StringVar(&b.csvPath, "csv", "", "with -telemetry, write the group-commit-on run's sampler time-series as CSV to this path")
	return b
}

func (b *benchFlags) run() error {
	switch b.model {
	case "vax750":
		// The default; bench.Vax is already the calibrated 1985 model.
	case "modern":
		bench.Vax = costmodel.Modern()
		fmt.Println("cost model: modern-nvme-10g (absolute numbers shrink ~1000x; the shapes - who wins, where crossovers fall - should not)")
	default:
		return fmt.Errorf("unknown model %q (want vax750 or modern)", b.model)
	}
	if b.telemetry {
		return b.telemetryRun()
	}
	if b.jsonPath != "" || b.checkPath != "" {
		return b.snapshotRun()
	}
	ran := false
	for _, e := range b.experiments() {
		if b.exp == "all" || b.exp == e.name {
			ran = true
			if err := e.show(b.markdown); err != nil {
				return fmt.Errorf("experiment %s: %w", e.name, err)
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want one of: all %s)", b.exp, b.names())
	}
	return nil
}

func (b *benchFlags) names() string {
	var names []string
	for _, e := range b.experiments() {
		names = append(names, e.name)
	}
	return strings.Join(names, " ")
}

// experiment is one table of the evaluation: its title, the function
// computing its rows (a slice of col-tagged structs, see printTable) and
// the paper's notes printed under it.  more, when set, prints what
// follows from the rows.
type experiment struct {
	name, title string
	rows        func() (any, error)
	notes       []string
	more        func(rows any)
}

func (e experiment) show(markdown bool) error {
	rows, err := e.rows()
	if err != nil {
		return err
	}
	printTable(os.Stdout, markdown, e.title, rows, e.notes...)
	if e.more != nil {
		e.more(rows)
	}
	return nil
}

// experiments is the one registry -exp, its help text and the
// run-everything order are drawn from.
func (b *benchFlags) experiments() []experiment {
	concurrent := fmt.Sprintf("Group commit: concurrent transfer throughput (%d clients x %d txns) [latencies in simulated time]", b.clients, b.txns)
	return []experiment{
		{name: "fig1", title: "Figure 1: transaction synchronization rules (held \\ requested)",
			rows:  func() (any, error) { return fig1Matrix(), nil },
			notes: []string{"paper:  Unix/Unix r/w, Shared row: read read no, Exclusive row: no no no"}},
		{name: "fig5", title: "Figure 5: transaction I/O overhead - intended design and 1985 implementation (footnote 9)",
			rows: func() (any, error) { return bench.Fig5() }},
		{name: "lock", title: "Section 6.2: record locking cost (per lock)",
			rows: func() (any, error) { return bench.LockCost(64) }},
		{name: "fig6", title: "Figure 6: measured commit performance",
			rows: func() (any, error) { return bench.Fig6() }},
		{name: "pagesize", title: "Footnote 11: page size vs differencing cost (substantial copy)",
			rows:  func() (any, error) { return bench.PageSizeDifferencing([]int{512, 1024, 2048, 4096, 8192}) },
			notes: []string{"paper:  1K -> 4K pages adds ~1ms when a substantial portion is copied"}},
		{name: "shadowlog", title: "Section 6 / [Weinstein85]: shadow paging vs commit logging (I/Os per txn)",
			rows: func() (any, error) {
				return bench.ShadowVsWAL([]workload.Pattern{workload.Sequential, workload.Random, workload.HotCold},
					[]int{64, 256, 1024}, []int{1, 4, 8})
			},
			notes: []string{"paper:  relative performance is highly dependent on the access strings;",
				"        logging wins small scattered records, shadow paging is competitive elsewhere"}},
		{name: "preplog", title: "Footnote 10: prepare log granularity (step-3 writes per txn)",
			rows: func() (any, error) { return bench.PrepLogRows() }},
		{name: "lockcache", title: "Section 5.1 ablation: requesting-site lock cache (op = one record access)",
			rows: func() (any, error) { return bench.LockCacheAblation(32) }},
		{name: "replica", title: "Section 5.2: replication - reads at the closest storage site (op = one read)",
			rows: func() (any, error) { return bench.ReplicaRows() }},
		{name: "prefetch", title: "Section 5.2: prefetch on lock (remote lock + first read)",
			rows: func() (any, error) { return bench.PrefetchRows() }},
		{name: "fn7", title: "Footnote 7: differencing from the buffer pool (overlap commit)",
			rows: func() (any, error) { return bench.Fn7Rows() }},
		{name: "granularity", title: "Section 7.1: record-level vs whole-file locking (4 workers, disjoint records)",
			rows: func() (any, error) { return bench.LockGranularity(4, 4, 5*time.Millisecond) },
			notes: []string{"paper:  whole file locking restricts concurrent access; record locking was",
				"        the new facility's motivation for database workloads"}},
		{name: "recovery", title: "Sections 4.3-4.4: abort and crash recovery matrix",
			rows: func() (any, error) { return bench.Recovery() }},
		{name: "concurrent", title: concurrent,
			rows: func() (any, error) { return bench.ConcurrentPair(b.concurrentOpts()) },
			more: func(rows any) { b.phases(rows.([]bench.ConcurrentRow)) }},
		{name: "mixed", title: fmt.Sprintf("Commit fast paths: mixed read/write workload (%d txns per config)", bench.MixedTxns),
			rows: func() (any, error) { return bench.MixedSweep() },
			notes: []string{"fast paths: read-only votes skip the prepare force and phase two; a",
				"single-site transaction commits in one combined message (DESIGN.md section 10)"}},
		{name: "repeat", title: fmt.Sprintf("Section 5.1 extended: repeated access to a hot remote file (%d txns per config)", bench.RepeatTxns),
			rows: func() (any, error) { return bench.RepeatPair() },
			notes: []string{"sticky leases: the storage site keeps a released lock as a lease for the",
				"requesting site; repeat hits cost zero lock messages until a conflicting",
				"site forces a callback revoke (DESIGN.md section 13)"}},
		{name: "skew", title: fmt.Sprintf("Locality-adaptive placement: skewed clients vs one storage site (%d measured txns)", 2*bench.SkewTxns),
			rows: func() (any, error) { return bench.SkewSweep() },
			notes: []string{"adaptive placement: the heat tracker migrates each client's hot files to",
				"that client and commit routing localizes the rest, so hot commits stop",
				"crossing the network (DESIGN.md section 14)"}},
	}
}

type fig1Row struct {
	Held      string `col:"held \\ req"`
	Unix      string `col:"Unix"`
	Shared    string `col:"Shared"`
	Exclusive string `col:"Exclusive"`
}

// fig1Matrix probes a live lock table for every pair of held and
// requested modes (experiment E1).
func fig1Matrix() []fig1Row {
	modes := []lockmgr.Mode{lockmgr.ModeNone, lockmgr.ModeShared, lockmgr.ModeExclusive} // ModeNone = Unix (unlocked access)
	cell := func(held, req lockmgr.Mode) string {
		if held == lockmgr.ModeNone {
			// Unix access is no table entry, only a check at access time,
			// so a Unix cell is its mirror: what unlocked access the Unix
			// side keeps beside the other's lock.
			held, req = req, held
		}
		fl := lockmgr.NewFileLocks("probe", nil, stats.NewSet())
		lock := func(h lockmgr.Holder, m lockmgr.Mode) error {
			_, err := fl.Lock(lockmgr.Request{Holder: h, Mode: m, Off: 0, Len: 10})
			return err
		}
		requester := lockmgr.Holder{PID: 2, Txn: "R"}
		if held != lockmgr.ModeNone && lock(lockmgr.Holder{PID: 1, Txn: "H"}, held) != nil {
			return "err"
		}
		switch {
		case req != lockmgr.ModeNone && lock(requester, req) != nil:
			return "no"
		case req == lockmgr.ModeShared:
			return "read"
		case req == lockmgr.ModeExclusive:
			return "r/w"
		case fl.CheckAccess(requester, true, 0, 10) == nil: // Unix: what unlocked access is left
			return "r/w"
		case fl.CheckAccess(requester, false, 0, 10) == nil:
			return "read"
		}
		return "no"
	}
	var rows []fig1Row
	for i, name := range []string{"Unix", "Shared", "Exclusive"} {
		rows = append(rows, fig1Row{name, cell(modes[i], modes[0]), cell(modes[i], modes[1]), cell(modes[i], modes[2])})
	}
	return rows
}

// phaseRow is one 2PC phase of one concurrent run, from the event trace.
type phaseRow struct {
	Case  string   `col:"case"`
	Phase string   `col:"phase"`
	Txns  int      `col:"txns"`
	P50   bench.Ms `col:"p50"`
	P95   bench.Ms `col:"p95"`
	P99   bench.Ms `col:"p99"`
}

// phases prints the concurrent pair's per-phase latencies and speedup.
func (b *benchFlags) phases(rows []bench.ConcurrentRow) {
	var phases []phaseRow
	for _, r := range rows {
		for _, ph := range []struct {
			name string
			h    trace.Histogram
		}{{"total", r.PhaseTotal}, {"prepare", r.PhasePrepare}, {"phase2", r.PhasePhase2}} {
			phases = append(phases, phaseRow{r.Case, ph.name, ph.h.Count, bench.Ms(ph.h.P50), bench.Ms(ph.h.P95), bench.Ms(ph.h.P99)})
		}
	}
	printTable(os.Stdout, b.markdown, "Per-2PC-phase commit latency (from the event trace)", phases)
	if off, on := rows[0].TxnsPerSimSec, rows[1].TxnsPerSimSec; off > 0 {
		fmt.Printf("speedup: %.2fx committed-txns/sim-sec at %s disk speed; per-page write counts identical,\nso the Figure 5 I/O tables reproduce unchanged (batching only merges sync forces)\n", on/off, bench.Vax.Name)
	}
}

// concurrentOpts is the concurrent experiment as the flags select it:
// the traced transfer workload at the cost model's disk latency.
func (b *benchFlags) concurrentOpts() bench.ConcurrentOpts {
	return bench.ConcurrentOpts{Clients: b.clients, TxnsPerClient: b.txns, Spec: scenario.Spec{Trace: true}}.Simulated()
}

// telemetryRun runs the concurrent pair with the registry, sampler and
// profiler attached.  Without -json it prints the human attribution and
// utilization summary; with -json it writes the canonical
// locusbench-telemetry/v1 document (fixed field order, sorted keys) -
// the artifact the CI golden-snapshot job diffs byte-for-byte.
func (b *benchFlags) telemetryRun() error {
	o := b.concurrentOpts()
	o.Spec.Trace, o.Spec.Profile, o.SampleInterval = false, true, b.interval
	rows, err := bench.ConcurrentPair(o)
	if err != nil {
		return err
	}
	if b.jsonPath == "" {
		for _, r := range rows {
			fmt.Print(r.TelemetryReport(b.interval))
		}
	} else if err := writeFile(b.jsonPath, bench.TelemetryDocument(rows)); err != nil {
		return err
	}
	if b.csvPath == "" {
		return nil
	}
	var csv bytes.Buffer
	if err := telemetry.WriteSamplesCSV(&csv, rows[len(rows)-1].Samples); err != nil {
		return err
	}
	return writeFile(b.csvPath, csv.Bytes())
}

// writeFile writes data to path and says so.
func writeFile(path string, data []byte) error {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// snapshot is the stable -json schema ("locusbench/v1"); the JSON tags of
// the row types in internal/bench are its field names.  Fields are
// append-only: future PRs may add keys but must not rename or remove
// these, so perf trajectories stay comparable across snapshots.  Every
// field is a function of the flags (no host-speed figure), so two runs
// write the same bytes.
type snapshot struct {
	Schema string          `json:"schema"`
	Model  string          `json:"model"`
	Fig5   []bench.Fig5Row `json:"fig5"`
	// The concurrent pair at bench.DefaultDiskSyncDelay per force.
	Concurrent []bench.ConcurrentRow `json:"concurrent"`
	// The mixed read/write sweep at read shares 0/50/90, fast paths
	// off/on.
	Mixed []bench.MixedRow `json:"mixed"`
	// The concurrent pair re-run at the cost model's disk latency, then
	// with one client (cases "group-commit off, 1 client" / "on, 1
	// client"): a serial stream, which batching must not slow down.
	Vtime []bench.ConcurrentRow `json:"vtime"`
	// The repeated-access workload, sticky lock leases off and on.
	Repeat []bench.RepeatRow `json:"repeat"`
	// The skewed-client sweep, adaptive placement off and on.
	Skew []bench.SkewRow `json:"skew"`
}

// snapshotRun regenerates the snapshot once, writes it under -json and
// gates it under -check.
func (b *benchFlags) snapshotRun() error {
	snap := snapshot{Schema: "locusbench/v1", Model: b.model}
	o := bench.ConcurrentOpts{Clients: b.clients, TxnsPerClient: b.txns, Spec: scenario.Spec{Trace: true}}
	var err error
	if snap.Fig5, err = bench.Fig5(); err != nil {
		return err
	}
	if snap.Concurrent, err = bench.ConcurrentPair(o); err != nil {
		return err
	}
	if snap.Vtime, err = bench.ConcurrentPair(o.Simulated()); err != nil {
		return err
	}
	serial := o.Simulated()
	serial.Clients = 1
	one, err := bench.ConcurrentPair(serial)
	if err != nil {
		return err
	}
	for i := range one {
		one[i].Case += ", 1 client"
	}
	snap.Vtime = append(snap.Vtime, one...)
	if snap.Mixed, err = bench.MixedSweep(); err != nil {
		return err
	}
	if snap.Repeat, err = bench.RepeatPair(); err != nil {
		return err
	}
	if snap.Skew, err = bench.SkewSweep(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if b.jsonPath != "" {
		if err := writeFile(b.jsonPath, append(data, '\n')); err != nil {
			return err
		}
	}
	if b.checkPath == "" {
		return nil
	}
	base, err := os.ReadFile(b.checkPath)
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
// printing one "want -> got" line per row; a missed row is a violation.
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
		return violation{fmt.Errorf("%d of %d gated metrics missed their baseline", missed, len(gates))}
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
