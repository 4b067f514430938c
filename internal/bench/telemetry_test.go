package bench

import (
	"bytes"
	"testing"
	"time"
)

// profiled is the telemetry configuration: the virtual clock at the cost
// model's disk latency, profiler and sampler attached.
func profiled(clients, txns int) ConcurrentOpts {
	o := ConcurrentOpts{Clients: clients, TxnsPerClient: txns, SampleInterval: 100 * time.Millisecond}.Simulated()
	o.Spec.Profile = true
	return o
}

func telemetryRun(t *testing.T, groupCommit bool) ConcurrentRow {
	t.Helper()
	row, err := ConcurrentCommit(profiled(4, 6), groupCommit)
	if err != nil {
		t.Fatal(err)
	}
	return row
}

// TestTelemetryDeterministic: two same-configuration serial (1-client)
// virtual-clock runs must emit byte-identical canonical telemetry JSON
// — the contract the CI golden-snapshot job relies on.  The scope
// matches the repo's virtual-time determinism rule (DESIGN.md §11):
// serial workloads are byte-stable; concurrent workloads keep
// deterministic aggregate invariants (commit counts, attribution
// fractions — tested below) but batch composition and per-boundary
// samples depend on which goroutine the Go scheduler runs first when
// several are released at the same virtual instant.
func TestTelemetryDeterministic(t *testing.T) {
	run := func(gc bool) []byte {
		row, err := ConcurrentCommit(profiled(1, 8), gc)
		if err != nil {
			t.Fatal(err)
		}
		return row.TelemetryJSON()
	}
	for _, gc := range []bool{false, true} {
		a, b := run(gc), run(gc)
		if !bytes.Equal(a, b) {
			t.Fatalf("groupCommit=%v: runs differ:\n%s\n%s", gc, a, b)
		}
	}
}

// TestTelemetryAttribution: at least 95% of EVERY committed
// transaction's simulated latency must be attributed to named
// resources (the issue's acceptance bar; in practice the decomposition
// tiles the whole latency).
func TestTelemetryAttribution(t *testing.T) {
	for _, gc := range []bool{false, true} {
		row := telemetryRun(t, gc)
		p := row.Profile
		if p == nil || p.Committed == 0 {
			t.Fatalf("groupCommit=%v: no profile", gc)
		}
		if p.AttributedFraction < 0.95 {
			t.Fatalf("groupCommit=%v: attributed %.3f < 0.95", gc, p.AttributedFraction)
		}
		if p.MinTxnAttributed < 0.95 {
			t.Fatalf("groupCommit=%v: worst txn attributed %.3f < 0.95", gc, p.MinTxnAttributed)
		}
	}
}

// TestTelemetryTallyConsistency: the row's stats-delta commit counts,
// the clients' own tallies and the profiler must agree — the drift this
// PR's stats consolidation fixed.
func TestTelemetryTallyConsistency(t *testing.T) {
	row := telemetryRun(t, true)
	want := int64(4 * 6)
	if row.Committed != want || row.ClientCommitted != want {
		t.Fatalf("stats committed %d, client committed %d, want %d",
			row.Committed, row.ClientCommitted, want)
	}
	if row.Aborted != 0 || row.ClientAborted != 0 {
		t.Fatalf("aborted %d/%d, want 0", row.Aborted, row.ClientAborted)
	}
	if got := int64(row.Profile.Committed); got != want {
		t.Fatalf("profiler committed %d, want %d", got, want)
	}
	if row.Metrics.Counters["txn_commits"] < want {
		t.Fatalf("registry txn_commits %d < %d", row.Metrics.Counters["txn_commits"], want)
	}
}

// TestTelemetrySamplerSeries: the virtual-clock sampler emits a dense,
// strictly increasing boundary series with monotone cumulative busy
// time, and the spindle-busy total matches the registry counter.
func TestTelemetrySamplerSeries(t *testing.T) {
	row := telemetryRun(t, true)
	if len(row.Samples) == 0 {
		t.Fatal("no samples")
	}
	var prevOff time.Duration
	var prevBusy int64
	for i, sm := range row.Samples {
		if sm.Offset <= prevOff {
			t.Fatalf("sample %d offset %v not increasing past %v", i, sm.Offset, prevOff)
		}
		busy := sm.Values["disk_busy_ns"]
		if busy < prevBusy {
			t.Fatalf("sample %d disk_busy_ns %d shrank from %d", i, busy, prevBusy)
		}
		prevOff, prevBusy = sm.Offset, busy
	}
	if final := row.Metrics.Counters["disk_busy_ns"]; prevBusy > final {
		t.Fatalf("last sample busy %d exceeds final counter %d", prevBusy, final)
	}
	// Busy time can never exceed the full simulated span (one spindle).
	if busy := row.Metrics.Counters["disk_busy_ns"]; busy > row.SimTotal.Nanoseconds() {
		t.Fatalf("spindle busy %dns > total simulated %dns", busy, row.SimTotal.Nanoseconds())
	}
}

// TestTelemetryGroupCommitHistograms: satellite 2 — the group-commit
// daemon's batch-size and linger histograms fill under load.
func TestTelemetryGroupCommitHistograms(t *testing.T) {
	row := telemetryRun(t, true)
	batch, ok := row.Metrics.Histograms["group_commit_batch_size"]
	if !ok || batch.Count == 0 {
		t.Fatal("group_commit_batch_size histogram empty")
	}
	if batch.Sum < batch.Count {
		t.Fatalf("batch sizes below 1: sum %d over %d flushes", batch.Sum, batch.Count)
	}
	linger, ok := row.Metrics.Histograms["group_commit_linger_ns"]
	if !ok || linger.Count == 0 {
		t.Fatal("group_commit_linger_ns histogram empty")
	}
	// Records linger at most one MaxDelay plus one in-flight flush.
	off := telemetryRun(t, false)
	if h := off.Metrics.Histograms["group_commit_batch_size"]; h.Count != 0 {
		t.Fatalf("group-commit-off run flushed %d batches", h.Count)
	}
}
