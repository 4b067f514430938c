package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// DefaultDiskSyncDelay is the concurrent-commit experiment's default
// charge per forced disk I/O: a simulated seek+sync cost (serialized at
// the disk, like one spindle), which is what makes the log force the
// bottleneck the paper's section 5 describes.  It approximates one
// rotation of a 3600-rpm disk at half stroke - the paper's 1985-era
// charge.  The group-commit linger always matches it: a record waits at
// most one disk force for companions, so batching can never more than
// double a lone record's latency while a full batch divides the force
// count by its size.
const DefaultDiskSyncDelay = 300 * time.Microsecond

// ConcurrentRow is one mode of the concurrent-commit throughput
// experiment: N client goroutines driving disjoint two-account transfer
// transactions against one accounts file at one storage site.
type ConcurrentRow struct {
	Case         string  `json:"case" col:"case"` // "group-commit off" / "group-commit on"
	Clients      int     `json:"clients"`
	TxnsPerCl    int     `json:"txns_per_client"`
	Committed    int64   `json:"committed" col:"committed"`
	Aborted      int64   `json:"-"`
	TxnsPerSec   float64 `json:"txns_per_sec" col:"txns/sec,%.0f"`
	P50          Ms      `json:"p50_ms" col:"p50"` // per-transaction latency on the run's clock
	P95          Ms      `json:"p95_ms" col:"p95"`
	P99          Ms      `json:"p99_ms" col:"p99"`
	ForcedIOs    int64   `json:"-"`                                            // synchronous disk forces during the run
	ForcedPerTxn float64 `json:"forced_ios_per_txn" col:"forced IOs/txn,%.2f"` // forces per committed transaction
	Batches      int64   `json:"group_commit_batches"`                         // group-commit flushes issued
	BatchRecords int64   `json:"group_commit_records"`                         // log records carried by those flushes
	DiskWrites   int64   `json:"disk_writes" col:"page writes"`                // per-page writes (identical in both modes)
	// Counters is the run's full stats delta (the -json snapshot embeds
	// it so perf trajectories can drill past the headline numbers).
	Counters stats.Snapshot `json:"counters"`
	// Per-2PC-phase latency histograms reconstructed from the event
	// trace; zero-valued when the run was untraced (the configuration the
	// regression benchmark uses to keep the tracing-off fast path
	// honest).  MarshalJSON flattens the prepare and phase-two
	// percentiles into the snapshot row.
	PhaseTotal   trace.Histogram `json:"-"` // TxnBegin -> outcome
	PhasePrepare trace.Histogram `json:"-"` // first PrepareSent -> last vote
	PhasePhase2  trace.Histogram `json:"-"` // last vote -> last CommitApplied
	// SimTime is the simulated duration of a virtual-clock run (zero on
	// the real clock); TxnsPerSimSec is throughput against that clock -
	// the figure the paper's VAX-750 testbed would have measured, no
	// matter how fast the host ran the simulation.
	SimTime       time.Duration `json:"sim_time_ns,omitempty" col:"sim time,,omitempty"`
	TxnsPerSimSec float64       `json:"txns_per_sim_sec,omitempty" col:"txns/sim-sec,%.0f,omitempty"`
	// SimTotal is the virtual clock's total elapsed time at measurement,
	// setup included (SimTime counts only the workload window).  It is
	// the denominator matching cumulative registry counters like
	// disk_busy_ns, which also count from boot.
	SimTotal time.Duration `json:"-"`
	// ClientCommitted/ClientAborted are the client goroutines' own
	// tallies.  Committed/Aborted above come from the stats registry
	// delta; keeping both lets tests assert the two surfaces never
	// drift.  Excluded from JSON - the registry figures are canonical.
	ClientCommitted int64 `json:"-"`
	ClientAborted   int64 `json:"-"`
	// Telemetry artifacts, populated when ConcurrentOpts.Spec.Profile is
	// set.  Excluded from the classic -json row (TelemetryJSON renders
	// them canonically instead, so golden snapshots stay byte-stable).
	Samples []telemetry.Sample       `json:"-"`
	Profile *telemetry.ProfileReport `json:"-"`
	Metrics telemetry.Snapshot       `json:"-"`
}

// Ms is a duration the snapshot schema carries as fractional
// milliseconds at microsecond precision, and tables print the same way.
type Ms time.Duration

func (m Ms) ms() float64 { return float64(time.Duration(m).Microseconds()) / 1000 }

func (m Ms) String() string { return fmt.Sprintf("%.1fms", m.ms()) }

// MarshalJSON renders the duration as a millisecond number.
func (m Ms) MarshalJSON() ([]byte, error) { return json.Marshal(m.ms()) }

// MarshalJSON is the tagged row plus the trace-derived phase percentiles.
func (r ConcurrentRow) MarshalJSON() ([]byte, error) {
	type row ConcurrentRow // the tagged fields, without this method
	return json.Marshal(struct {
		row
		PrepareP50 Ms `json:"prepare_p50_ms"`
		PrepareP95 Ms `json:"prepare_p95_ms"`
		PrepareP99 Ms `json:"prepare_p99_ms"`
		Phase2P50  Ms `json:"phase2_p50_ms"`
		Phase2P95  Ms `json:"phase2_p95_ms"`
		Phase2P99  Ms `json:"phase2_p99_ms"`
	}{row(r),
		Ms(r.PhasePrepare.P50), Ms(r.PhasePrepare.P95), Ms(r.PhasePrepare.P99),
		Ms(r.PhasePhase2.P50), Ms(r.PhasePhase2.P95), Ms(r.PhasePhase2.P99)})
}

// ConcurrentOpts parameterizes ConcurrentCommit.
type ConcurrentOpts struct {
	Clients       int
	TxnsPerClient int
	// Spec selects the clock, the per-forced-I/O charge (Disk; zero means
	// DefaultDiskSyncDelay - pass a costmodel figure, e.g. the VAX-750
	// 26ms, to reproduce 1985 hardware), Trace (fills the per-phase
	// histograms) and Profile (commit-path profiling plus the periodic
	// utilization sampler, filling the row's Samples/Profile/Metrics; a
	// virtual-clock run then also drains to full quiescence before the
	// final measurements, so the telemetry is complete and
	// deterministic).  Topology and the group-commit linger are the
	// experiment's own.
	Spec scenario.Spec
	// SampleInterval is the sampler period (simulated time on a virtual
	// clock); zero means the sampler default.
	SampleInterval time.Duration
}

// Simulated returns the options on the virtual clock charging the
// active cost model's disk latency per force, so rows report simulated
// time and txns/sim-sec at 1985 (or modern) hardware speed while the run
// itself takes milliseconds of wall-clock.
func (o ConcurrentOpts) Simulated() ConcurrentOpts {
	o.Spec.Virtual, o.Spec.Disk = true, Vax.DiskWriteTime
	return o
}

// ConcurrentCommit runs the transfer workload once.  groupCommit toggles
// the log batching daemon, lingering one disk force (so batching can
// never more than double a lone record's latency); everything else -
// workload, sync delay, page writes - is identical, so an off/on pair
// isolates the batching win.
func ConcurrentCommit(o ConcurrentOpts, groupCommit bool) (ConcurrentRow, error) {
	spec := o.Spec
	spec.Volumes = []string{"bank"}
	if spec.Disk == 0 {
		spec.Disk = DefaultDiskSyncDelay
	}
	if groupCommit {
		spec.GroupCommit = spec.Disk
	}
	// One page per client: the two accounts a client transfers between
	// share its page, and no page is shared across clients, so every
	// transaction flushes exactly one data page and the differencing
	// paths never fire.  The log force is the only shared resource.
	const pageSize = 1024
	var sampler *telemetry.Sampler
	row := ConcurrentRow{Case: "group-commit " + onOff(groupCommit), Clients: o.Clients, TxnsPerCl: o.TxnsPerClient}
	sc := scenario.Scenario{
		Spec: spec,
		Setup: func(e *scenario.Env) {
			baseFile(scenario.Must(e.Sys.NewProcess(1)), "bank/accounts", o.Clients*pageSize)
			if spec.Profile {
				sampler = telemetry.NewSampler(e.Sys.Stats().Registry(), o.SampleInterval)
				sampler.Start(e.Clock)
			}
		},
		Check: func(e *scenario.Env, _ *scenario.Outcome) {
			sampler.Stop()
			row.Samples = sampler.Samples()
			row.PhaseTotal, row.PhasePrepare, row.PhasePhase2 =
				trace.LatencyHistograms(trace.PhaseLatencies(e.Trace.Events()))
		},
	}
	for c := 0; c < o.Clients; c++ {
		sc.Clients = append(sc.Clients, func(e *scenario.Env) {
			p, files, err := e.Open(1, "bank/accounts")
			scenario.Ok(err)
			from := int64(c) * pageSize
			for i := 0; i < o.TxnsPerClient; i++ {
				// Lock both accounts, then update both.
				e.Txn(p, func() error { //nolint:errcheck // tallied
					for _, acct := range []int64{from, from + 8} {
						if err := files[0].LockRange(acct, 8, core.Exclusive); err != nil {
							return err
						}
					}
					for _, acct := range []int64{from, from + 8} {
						if _, err := files[0].WriteAt([]byte(fmt.Sprintf("%08d", i)), acct); err != nil {
							return err
						}
					}
					return nil
				})
			}
		})
	}
	out, err := scenario.Run(sc)
	if err != nil {
		return ConcurrentRow{}, err
	}

	pct := percentiles(out.Latencies)
	d := out.Counters
	row.Committed, row.Aborted = d.Get(stats.TxnCommits), d.Get(stats.TxnAborts)
	row.ClientCommitted, row.ClientAborted = out.Commits, out.Aborts
	row.P50, row.P95, row.P99 = pct(0.50), pct(0.95), pct(0.99)
	row.ForcedIOs = d.Get(stats.ForcedIOs)
	row.Batches, row.BatchRecords = d.Get(stats.GroupCommitBatches), d.Get(stats.GroupCommitRecords)
	row.DiskWrites, row.Counters = d.Get(stats.DiskWrites), d
	row.Profile, row.Metrics = out.Profile, out.Metrics
	if spec.Virtual {
		row.SimTime, row.SimTotal = out.SimTime, out.SimElapsed
	}
	if row.Committed > 0 {
		row.TxnsPerSec = float64(row.Committed) / out.Wall.Seconds()
		row.ForcedPerTxn = float64(row.ForcedIOs) / float64(row.Committed)
		if row.SimTime > 0 {
			row.TxnsPerSimSec = float64(row.Committed) / row.SimTime.Seconds()
		}
	}
	return row, nil
}

// TelemetryJSON renders the row's telemetry artifacts as one canonical
// JSON document: fixed field order, sorted metric keys, no
// map-iteration dependence.  Virtual-clock runs produce byte-identical
// output, concurrent ones included (the clock's run queue decides every
// same-instant tie) - the CI golden-snapshot job diffs a 4-client run
// against a checked-in copy (DESIGN.md section 12).
func (r ConcurrentRow) TelemetryJSON() []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"schema":"locusbench-telemetry/v1","case":%q,"clients":%d,"txns_per_client":%d,"committed":%d,"aborted":%d,"sim_time_ns":%d,`,
		r.Case, r.Clients, r.TxnsPerCl, r.Committed, r.Aborted, r.SimTime.Nanoseconds())
	fmt.Fprintf(&buf, `"sim_total_ns":%d,`, r.SimTotal.Nanoseconds())
	buf.WriteString(`"metrics":`)
	mb, _ := r.Metrics.MarshalJSON()
	buf.Write(mb)
	buf.WriteString(`,"profile":`)
	if r.Profile != nil {
		pb, _ := r.Profile.MarshalJSON()
		buf.Write(pb)
	} else {
		buf.WriteString("null")
	}
	buf.WriteString(`,"samples":`)
	buf.Write(telemetry.MarshalSamplesJSON(r.Samples))
	buf.WriteString("}")
	return buf.Bytes()
}

// TelemetryReport renders a profiled run's utilization view: headline
// numbers, the per-resource utilization lines, a per-interval
// spindle-utilization strip derived from successive disk_busy_ns samples
// (interval is the sampler period), and the critical-path attribution.
func (r ConcurrentRow) TelemetryReport(interval time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "\n## %s — %d clients x %d txns (%s model)\n\n", r.Case, r.Clients, r.TxnsPerCl, Vax.Name)
	fmt.Fprintf(&b, "committed %d, aborted %d in %s simulated (%s total with setup)\n",
		r.Committed, r.Aborted, r.SimTime.Round(time.Millisecond), r.SimTotal.Round(time.Millisecond))
	fmt.Fprintf(&b, "throughput %.1f txns/simulated-second\n", r.TxnsPerSimSec)
	b.WriteString(r.Metrics.Utilization(r.SimTotal))
	if strip := utilizationStrip(r.Samples, interval); strip != "" {
		fmt.Fprintf(&b, "utilization %s  (one cell per %s, . <25%% : <50%% + <75%% # <=100%%)\n", strip, interval)
	}
	return b.String() + "\n" + r.Profile.Summary()
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

// ConcurrentPair runs the workload with group commit off then on and
// returns both rows (the locus bench concurrent table).
func ConcurrentPair(o ConcurrentOpts) ([]ConcurrentRow, error) {
	var rows []ConcurrentRow
	for _, groupCommit := range []bool{false, true} {
		r, err := ConcurrentCommit(o, groupCommit)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// TelemetryDocument renders rows' telemetry as the canonical
// locusbench-telemetry/v1 document: one TelemetryJSON object per line in
// a JSON array - the artifact the CI golden-snapshot job diffs.
func TelemetryDocument(rows []ConcurrentRow) []byte {
	parts := make([][]byte, len(rows))
	for i, r := range rows {
		parts[i] = r.TelemetryJSON()
	}
	return append(append([]byte("[\n"), bytes.Join(parts, []byte(",\n"))...), "\n]\n"...)
}

// percentiles sorts lats and returns the nearest-rank lookup over them
// (zero when empty).
func percentiles(lats []time.Duration) func(p float64) Ms {
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return func(p float64) Ms {
		if len(lats) == 0 {
			return 0
		}
		return Ms(lats[int(p*float64(len(lats)-1))])
	}
}
