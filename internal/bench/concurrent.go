package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Defaults for the concurrent-commit experiment.  The sync delay gives
// every forced disk I/O a simulated seek+sync cost (serialized at the
// disk, like one spindle), which is what makes the log force the
// bottleneck the paper's section 5 describes; the group-commit delay is
// how long a log record waits for companions.
const (
	// DefaultDiskSyncDelay approximates one rotation of a 3600-rpm disk
	// at half stroke - the paper's 1985-era seek+sync charge.
	DefaultDiskSyncDelay = 300 * time.Microsecond
	// DefaultGroupCommitDelay matches the sync cost: a record waits at
	// most one disk force for companions, so batching can never more
	// than double a lone record's latency while a full batch divides
	// the force count by its size.
	DefaultGroupCommitDelay = 300 * time.Microsecond
)

// ConcurrentRow is one mode of the concurrent-commit throughput
// experiment: N client goroutines driving disjoint two-account transfer
// transactions against one accounts file at one storage site.
type ConcurrentRow struct {
	Case         string  `json:"case"` // "group-commit off" / "group-commit on"
	Clients      int     `json:"clients"`
	TxnsPerCl    int     `json:"txns_per_client"`
	Committed    int64   `json:"committed"`
	Aborted      int64   `json:"-"`
	TxnsPerSec   float64 `json:"txns_per_sec"`
	P50          Ms      `json:"p50_ms"` // per-transaction latency on the run's clock
	P95          Ms      `json:"p95_ms"`
	P99          Ms      `json:"p99_ms"`
	ForcedIOs    int64   `json:"-"`                    // synchronous disk forces during the run
	ForcedPerTxn float64 `json:"forced_ios_per_txn"`   // forces per committed transaction
	Batches      int64   `json:"group_commit_batches"` // group-commit flushes issued
	BatchRecords int64   `json:"group_commit_records"` // log records carried by those flushes
	DiskWrites   int64   `json:"disk_writes"`          // per-page writes (identical in both modes)
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
	SimTime       time.Duration `json:"sim_time_ns,omitempty"`
	TxnsPerSimSec float64       `json:"txns_per_sim_sec,omitempty"`
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
	// Telemetry artifacts, populated when ConcurrentOpts.Telemetry is
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

// ConcurrentOpts parameterizes ConcurrentCommitOpts beyond the classic
// pair of knobs.
type ConcurrentOpts struct {
	Clients       int
	TxnsPerClient int
	GroupCommit   bool
	// DiskSyncDelay is the per-forced-I/O charge; zero means
	// DefaultDiskSyncDelay (pass a costmodel figure, e.g. the VAX-750
	// 26ms, to reproduce 1985 hardware).
	DiskSyncDelay time.Duration
	// GroupCommitDelay is the batching linger; zero means
	// DefaultGroupCommitDelay.  Scale it with DiskSyncDelay - the
	// defaults match each other, so a record never waits longer than
	// one force.
	GroupCommitDelay time.Duration
	// Vtime runs the workload on a virtual discrete-event clock: the
	// sync delays elapse as timestamp arithmetic, latency percentiles
	// and TxnsPerSimSec are reported in simulated time, and wall-clock
	// shrinks by orders of magnitude.
	Vtime bool
	// Trace attaches an event collector and fills the per-phase
	// histograms.
	Trace bool
	// Telemetry enables commit-path profiling and the periodic
	// utilization sampler, filling the row's Samples/Profile/Metrics.
	// Under Vtime the run additionally drains to full quiescence (all
	// background phase-two and cleanup actors done) before the final
	// measurements, so the telemetry is complete and deterministic.
	Telemetry bool
	// SampleInterval is the sampler period (simulated time under Vtime);
	// zero means the sampler default.
	SampleInterval time.Duration
}

// Simulated returns the options on the virtual clock charging the
// active cost model's disk latency per force and as the batching linger,
// so rows report simulated time and txns/sim-sec at 1985 (or modern)
// hardware speed while the run itself takes milliseconds of wall-clock.
func (o ConcurrentOpts) Simulated() ConcurrentOpts {
	o.Vtime, o.DiskSyncDelay, o.GroupCommitDelay = true, Vax.DiskWriteTime, Vax.DiskWriteTime
	return o
}

// ConcurrentCommit runs the transfer workload once.  GroupCommit toggles
// the log batching daemon; everything else - workload, sync delay, page
// writes - is identical, so an off/on pair isolates the batching win.
func ConcurrentCommit(o ConcurrentOpts) (ConcurrentRow, error) {
	clients, txnsPerClient := o.Clients, o.TxnsPerClient
	spec := scenario.Spec{
		Volumes: []string{"bank"},
		Virtual: o.Vtime,
		Disk:    o.DiskSyncDelay,
		Trace:   o.Trace,
		Profile: o.Telemetry,
	}
	if spec.Disk == 0 {
		spec.Disk = DefaultDiskSyncDelay
	}
	if o.GroupCommit {
		spec.GroupCommit = DefaultGroupCommitDelay
		if o.GroupCommitDelay > 0 {
			spec.GroupCommit = o.GroupCommitDelay
		}
	}
	sys, err := spec.Build()
	if err != nil {
		return ConcurrentRow{}, err
	}
	defer sys.Cluster().Shutdown()
	clk, col := sys.Cluster().Clock(), scenario.Collector(sys)

	setup, err := sys.NewProcess(1)
	if err != nil {
		return ConcurrentRow{}, err
	}
	// One page per client: the two accounts a client transfers between
	// share its page, and no page is shared across clients, so every
	// transaction flushes exactly one data page and the differencing
	// paths never fire.  The log force is the only shared resource.
	const pageSize = 1024
	if _, err := baseFile(setup, "bank/accounts", clients*pageSize); err != nil {
		return ConcurrentRow{}, err
	}

	reg := sys.Stats().Registry()
	var sampler *telemetry.Sampler
	if o.Telemetry {
		sampler = telemetry.NewSampler(reg, o.SampleInterval)
	}

	before := sys.Stats().Snapshot()
	var committed, aborted atomic.Int64
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	start := time.Now()
	simStart := clk.Now()
	sampler.Start(clk)
	client := func(c int) error {
		p, err := sys.NewProcess(1)
		if err != nil {
			return err
		}
		file, err := p.Open("bank/accounts")
		if err != nil {
			return err
		}
		from := int64(c) * pageSize
		to := from + 8
		lats[c] = make([]time.Duration, 0, txnsPerClient)
		for i := 0; i < txnsPerClient; i++ {
			t0 := clk.Now()
			if _, err := p.BeginTrans(); err != nil {
				return err
			}
			// Lock both accounts, then update both.
			var err error
			for _, acct := range []int64{from, to} {
				if err == nil {
					err = file.LockRange(acct, 8, core.Exclusive)
				}
			}
			for _, acct := range []int64{from, to} {
				if err == nil {
					_, err = file.WriteAt([]byte(fmt.Sprintf("%08d", i)), acct)
				}
			}
			if err != nil {
				p.AbortTrans() //nolint:errcheck
				aborted.Add(1)
				continue
			}
			if err := p.EndTrans(); err != nil {
				aborted.Add(1)
				continue
			}
			committed.Add(1)
			lats[c] = append(lats[c], clk.Now().Sub(t0))
		}
		return nil
	}
	wg := vtime.NewGroup(clk)
	for c := 0; c < clients; c++ {
		c := c
		wg.Go(func() { errs[c] = client(c) })
	}
	wg.Wait()
	if o.Telemetry {
		if v, ok := vtime.AsVirtual(clk); ok {
			// Clients are done, but background actors (phase-two
			// cleanup, log-record deletion, the group-commit daemon)
			// still hold work.  Drain to quiescence so the snapshot,
			// profile and busy fractions cover the whole run.
			v.WaitIdle()
		}
	}
	sampler.Stop()
	wall := time.Since(start)
	simElapsed := clk.Now().Sub(simStart)
	for _, err := range errs {
		if err != nil {
			return ConcurrentRow{}, err
		}
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	pct := percentiles(all)

	d := sys.Stats().Snapshot().Sub(before)
	row := ConcurrentRow{
		Case:            "group-commit " + onOff(o.GroupCommit),
		Clients:         clients,
		TxnsPerCl:       txnsPerClient,
		Committed:       d.Get(stats.TxnCommits),
		Aborted:         d.Get(stats.TxnAborts),
		ClientCommitted: committed.Load(),
		ClientAborted:   aborted.Load(),
		P50:             pct(0.50),
		P95:             pct(0.95),
		P99:             pct(0.99),
		ForcedIOs:       d.Get(stats.ForcedIOs),
		Batches:         d.Get(stats.GroupCommitBatches),
		BatchRecords:    d.Get(stats.GroupCommitRecords),
		DiskWrites:      d.Get(stats.DiskWrites),
		Counters:        d,
	}
	if o.Vtime {
		row.SimTime = simElapsed
		if v, ok := vtime.AsVirtual(clk); ok {
			row.SimTotal = v.Elapsed()
		}
	}
	if row.Committed > 0 {
		row.TxnsPerSec = float64(row.Committed) / wall.Seconds()
		row.ForcedPerTxn = float64(row.ForcedIOs) / float64(row.Committed)
		if o.Vtime && simElapsed > 0 {
			row.TxnsPerSimSec = float64(row.Committed) / simElapsed.Seconds()
		}
	}
	if col != nil {
		row.PhaseTotal, row.PhasePrepare, row.PhasePhase2 =
			trace.LatencyHistograms(trace.PhaseLatencies(col.Events()))
	}
	if o.Telemetry {
		row.Samples = sampler.Samples()
		row.Profile = reg.Profiler().Report()
		row.Metrics = reg.Snapshot()
	}
	return row, nil
}

// TelemetryJSON renders the row's telemetry artifacts as one canonical
// JSON document: fixed field order, sorted metric keys, no
// map-iteration dependence.  Serial (1-client) virtual-clock runs
// produce byte-identical output - the CI golden-snapshot job diffs one
// against a checked-in copy.  Concurrent runs are deterministic in
// aggregate (commit counts, attribution fractions, per-page I/O) but
// same-instant scheduling ties leave batch composition and
// per-boundary samples to the Go scheduler (DESIGN.md section 12).
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

// ConcurrentPair runs the workload with group commit off then on and
// returns both rows (the locusbench concurrent table).
func ConcurrentPair(o ConcurrentOpts) ([]ConcurrentRow, error) {
	var rows []ConcurrentRow
	for _, o.GroupCommit = range []bool{false, true} {
		r, err := ConcurrentCommit(o)
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
