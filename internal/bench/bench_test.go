package bench

import (
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/workload"
)

func TestFig5MatchesPaperCounts(t *testing.T) {
	rows, err := Fig5(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Single file, 1 page: exactly the paper's 5 protocol I/Os -
	// 2 coordinator log writes (record + commit mark), 1 data page, 1
	// prepare log, 1 inode.
	r := rows[0]
	if r.CoordLog != 2 || r.DataPages != 1 || r.PrepareLog != 1 || r.Inode != 1 || r.Total != 5 {
		t.Fatalf("single-page txn I/O = %+v, want 2/1/1/1 total 5", r)
	}
	// Multi-page single file: only step 2 repeats.
	r = rows[1]
	if r.DataPages != 4 || r.CoordLog != 2 || r.PrepareLog != 1 || r.Total != 8 {
		t.Fatalf("4-page txn I/O = %+v", r)
	}
	// Two files on one volume: still one prepare log record; two inodes.
	r = rows[2]
	if r.PrepareLog != 1 || r.Inode != 2 {
		t.Fatalf("two-file one-volume I/O = %+v", r)
	}
	// Two volumes: step 3 repeats per volume.
	r = rows[3]
	if r.PrepareLog != 2 {
		t.Fatalf("two-volume I/O = %+v", r)
	}
}

func TestFig5Footnote9Mode(t *testing.T) {
	rows, err := Fig5(true)
	if err != nil {
		t.Fatal(err)
	}
	// Steps 1 and 3 each cost two I/Os: 5 + 2 = 7 for the single-page
	// transaction (the commit mark stays in place, one I/O).
	r := rows[0]
	if r.Total != 7 {
		t.Fatalf("footnote-9 single-page total = %d (%+v), want 7", r.Total, r)
	}
}

func TestLockCostMatchesPaperShape(t *testing.T) {
	rows, err := LockCost(64)
	if err != nil {
		t.Fatal(err)
	}
	local, remote := rows[0], rows[1]
	// Local: no messages, ~1.5-2.5 ms.
	if local.MsgsPerLock != 0 {
		t.Fatalf("local lock sent messages: %+v", local)
	}
	if local.SimLatency < 1*time.Millisecond || local.SimLatency > 3*time.Millisecond {
		t.Fatalf("local lock latency = %v, want ~2ms", local.SimLatency)
	}
	if local.InstrPerLock < 500 || local.InstrPerLock > 1500 {
		t.Fatalf("local lock instructions = %d, want ~750", local.InstrPerLock)
	}
	// Remote: one round trip, ~18 ms dominated by the RTT.
	if remote.MsgsPerLock != 2 {
		t.Fatalf("remote lock msgs = %v, want 2", remote.MsgsPerLock)
	}
	if remote.SimLatency < 15*time.Millisecond || remote.SimLatency > 22*time.Millisecond {
		t.Fatalf("remote lock latency = %v, want ~18ms", remote.SimLatency)
	}
	if remote.SimLatency < 4*local.SimLatency {
		t.Fatal("remote/local ratio too small; RTT not dominating")
	}
}

func TestFig6MatchesPaperShape(t *testing.T) {
	rows, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	byCase := map[string]Fig6Row{}
	for _, r := range rows {
		byCase[r.Case] = r
	}
	ln := byCase["local, non-overlap"]
	lo := byCase["local, overlap"]
	rn := byCase["remote, non-overlap"]
	ro := byCase["remote, overlap"]

	// Local non-overlap: ~20ms service / ~70ms latency (paper: 21/73).
	if ln.SimService < 15*time.Millisecond || ln.SimService > 27*time.Millisecond {
		t.Fatalf("local non-overlap service = %v, want ~21ms", ln.SimService)
	}
	if ln.SimLatency < 60*time.Millisecond || ln.SimLatency > 85*time.Millisecond {
		t.Fatalf("local non-overlap latency = %v, want ~73ms", ln.SimLatency)
	}
	// Overlap takes the differencing path: one extra read, ~25-30ms more
	// latency (paper: 73 -> 100ms).
	if lo.Reads != ln.Reads+1 {
		t.Fatalf("overlap reads = %d, non-overlap = %d; want +1", lo.Reads, ln.Reads)
	}
	extra := lo.SimLatency - ln.SimLatency
	if extra < 20*time.Millisecond || extra > 40*time.Millisecond {
		t.Fatalf("overlap latency delta = %v, want ~27ms", extra)
	}
	// Overlap service cost is a moderate increase (paper: 21 -> 24ms).
	if lo.SimService <= ln.SimService || lo.SimService > ln.SimService+8*time.Millisecond {
		t.Fatalf("overlap service = %v vs %v", lo.SimService, ln.SimService)
	}
	// Remote adds network latency (paper: 73 -> 131ms).
	if rn.Msgs < 2 {
		t.Fatalf("remote commit msgs = %d", rn.Msgs)
	}
	if rn.SimLatency <= ln.SimLatency+10*time.Millisecond {
		t.Fatalf("remote latency = %v vs local %v; network missing", rn.SimLatency, ln.SimLatency)
	}
	if ro.SimLatency <= rn.SimLatency {
		// Paper's remote overlap is slightly CHEAPER at the requesting
		// site; system-wide ours is slightly more expensive.  Only
		// require both remote cases to be in the same band.
		diff := rn.SimLatency - ro.SimLatency
		if diff > 20*time.Millisecond {
			t.Fatalf("remote overlap %v vs non-overlap %v", ro.SimLatency, rn.SimLatency)
		}
	}
}

func TestPageSizeDifferencingFootnote11(t *testing.T) {
	rows, err := PageSizeDifferencing([]int{512, 1024, 2048, 4096})
	if err != nil {
		t.Fatal(err)
	}
	var at1k, at4k PageSizeRow
	for _, r := range rows {
		switch r.PageSize {
		case 1024:
			at1k = r
		case 4096:
			at4k = r
		}
	}
	if at4k.BytesCopied <= at1k.BytesCopied {
		t.Fatalf("copied bytes did not grow: %d vs %d", at4k.BytesCopied, at1k.BytesCopied)
	}
	// Footnote 11: ~1ms more when a substantial portion of a 4K page is
	// copied (vs 1K).
	delta := at4k.DeltaVs1K
	if delta < 500*time.Microsecond || delta > 2*time.Millisecond {
		t.Fatalf("4K-1K service delta = %v, want ~1ms", delta)
	}
}

func TestShadowVsWALCrossover(t *testing.T) {
	rows, err := ShadowVsWAL(
		[]workload.Pattern{workload.Random, workload.Sequential},
		[]int{64, 1024},
		[]int{1, 8},
	)
	if err != nil {
		t.Fatal(err)
	}
	find := func(p workload.Pattern, rs, rpt int) ShadowVsWALRow {
		for _, r := range rows {
			if r.Pattern == p && r.RecordSize == rs && r.RecsPerTxn == rpt {
				return r
			}
		}
		t.Fatalf("row %v/%d/%d missing", p, rs, rpt)
		return ShadowVsWALRow{}
	}
	// Small random single-record transactions: logging wins (section 6's
	// concession that logging can significantly outperform).
	small := find(workload.Random, 64, 1)
	if small.WALIO >= small.ShadowIO {
		t.Fatalf("logging should win small random: wal=%.2f shadow=%.2f", small.WALIO, small.ShadowIO)
	}
	// Page-sized records: shadow paging is competitive (within 2x) or
	// better - the paper's claim.
	big := find(workload.Random, 1024, 1)
	if big.ShadowIO > 2*big.WALIO {
		t.Fatalf("shadow not competitive at page-size records: shadow=%.2f wal=%.2f", big.ShadowIO, big.WALIO)
	}
	// Sequential multi-record transactions cluster updates: shadow's
	// per-page cost amortizes.
	seq := find(workload.Sequential, 64, 8)
	one := find(workload.Random, 64, 1)
	if seq.ShadowIO/float64(8) >= one.ShadowIO {
		t.Fatalf("batching did not amortize shadow cost: %.2f/8 vs %.2f", seq.ShadowIO, one.ShadowIO)
	}
}

func TestPrepareLogGranularityFootnote10(t *testing.T) {
	rows, err := PrepareLogGranularity([]int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.PerVolumeIO != 1 {
			t.Fatalf("per-volume mode wrote %d prepare records for %d files, want 1", r.PerVolumeIO, r.FilesPerTxn)
		}
		if r.PerFileIO != int64(r.FilesPerTxn) {
			t.Fatalf("per-file mode wrote %d prepare records for %d files", r.PerFileIO, r.FilesPerTxn)
		}
	}
}

func TestLockCacheAblationSavesRPCs(t *testing.T) {
	rows, err := LockCacheAblation(32)
	if err != nil {
		t.Fatal(err)
	}
	with, without := rows[0], rows[1]
	// With the cache, a covered write is one round trip (2 msgs);
	// without it, two round trips (4 msgs).
	if with.MsgsPerOp > 2.2 {
		t.Fatalf("cached msgs/op = %.2f, want ~2", with.MsgsPerOp)
	}
	if without.MsgsPerOp < 3.8 {
		t.Fatalf("uncached msgs/op = %.2f, want ~4", without.MsgsPerOp)
	}
	if without.SimLatency <= with.SimLatency {
		t.Fatal("ablation did not increase latency")
	}
}

func TestRecoveryScenariosAllCorrect(t *testing.T) {
	rows, err := Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Correct {
			t.Fatalf("scenario %q incorrect: %s", r.Scenario, r.Outcome)
		}
	}
}

func TestReplicaLocality(t *testing.T) {
	rows, err := ReplicaLocality(16)
	if err != nil {
		t.Fatal(err)
	}
	without, with := rows[0], rows[1]
	if without.MsgsPerOp < 1.9 {
		t.Fatalf("remote read msgs/op = %.2f, want ~2", without.MsgsPerOp)
	}
	if with.MsgsPerOp != 0 {
		t.Fatalf("replica read msgs/op = %.2f, want 0", with.MsgsPerOp)
	}
	if with.SimLatency >= without.SimLatency {
		t.Fatal("replica did not reduce read latency")
	}
}

func TestPrefetchMovesReadLatencyUnderLock(t *testing.T) {
	rows, err := PrefetchAblation()
	if err != nil {
		t.Fatal(err)
	}
	without, with := rows[0], rows[1]
	// Without prefetch the first read pays the page read (~26ms extra);
	// with prefetch it is served from the buffer cache.
	if with.ReadLatency >= without.ReadLatency {
		t.Fatalf("prefetch did not speed the read: %v vs %v", with.ReadLatency, without.ReadLatency)
	}
	if without.ReadLatency-with.ReadLatency < 20*time.Millisecond {
		t.Fatalf("read delta = %v, want ~26ms (one page read)", without.ReadLatency-with.ReadLatency)
	}
	// The lock absorbs the prefetch cost.
	if with.LockLatency <= without.LockLatency {
		t.Fatal("prefetch cost did not appear under the lock")
	}
}

func TestFootnote7DiffFromBufferPool(t *testing.T) {
	rows, err := Footnote7Ablation()
	if err != nil {
		t.Fatal(err)
	}
	without, with := rows[0], rows[1]
	if without.Reads != with.Reads+1 {
		t.Fatalf("reads: %d vs %d, want exactly one saved", without.Reads, with.Reads)
	}
	saved := without.SimLatency - with.SimLatency
	if saved < 20*time.Millisecond || saved > 32*time.Millisecond {
		t.Fatalf("saved latency = %v, want ~26ms (one page read)", saved)
	}
}

func TestLockGranularityConcurrency(t *testing.T) {
	rows, err := LockGranularity(4, 4, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	record, whole := rows[0], rows[1]
	// Disjoint records never conflict under record locking...
	if record.LockWaits != 0 {
		t.Fatalf("record locking waited %d times on disjoint records", record.LockWaits)
	}
	// ...but serialize behind whole-file locks.
	if whole.LockWaits == 0 {
		t.Fatal("whole-file locking never waited; contention missing")
	}
	// Serialization shows up as wall-clock: whole-file takes materially
	// longer than record-level for the same work.
	if whole.WallClock < record.WallClock*2 {
		t.Fatalf("whole-file %v vs record %v: serialization invisible", whole.WallClock, record.WallClock)
	}
}

func TestConcurrentCommitGroupCommitCutsForcedIOs(t *testing.T) {
	// Deterministic acceptance for the group-commit tentpole: the same
	// concurrent workload must charge identical per-page write counts in
	// both modes while batching cuts the synchronous force count by at
	// least 20% (in practice ~7.0 vs ~3.0 forces per transaction at 8
	// clients; 4 clients keeps the test fast).
	rows, err := ConcurrentPair(ConcurrentOpts{Clients: 4, TxnsPerClient: 5, Spec: scenario.Spec{Trace: true}})
	if err != nil {
		t.Fatal(err)
	}
	off, on := rows[0], rows[1]
	want := int64(4 * 5)
	if off.Committed != want || on.Committed != want {
		t.Fatalf("committed = %d/%d, want %d in both modes", off.Committed, on.Committed, want)
	}
	if off.Aborted != 0 || on.Aborted != 0 {
		t.Fatalf("aborted = %d/%d, want 0", off.Aborted, on.Aborted)
	}
	if off.DiskWrites != on.DiskWrites {
		t.Fatalf("per-page writes differ across modes: off=%d on=%d", off.DiskWrites, on.DiskWrites)
	}
	if off.Batches != 0 || off.BatchRecords != 0 {
		t.Fatalf("zero-delay mode used the daemon: batches=%d records=%d", off.Batches, off.BatchRecords)
	}
	// Every transaction writes 5 log records (coordinator record, prepare
	// record, commit mark, two deletes); all of them must ride batches.
	if on.BatchRecords != 5*want {
		t.Fatalf("BatchRecords = %d, want %d", on.BatchRecords, 5*want)
	}
	if on.Batches == 0 || on.Batches > on.BatchRecords {
		t.Fatalf("Batches = %d, want 1..%d", on.Batches, on.BatchRecords)
	}
	if float64(on.ForcedIOs) > 0.8*float64(off.ForcedIOs) {
		t.Fatalf("forced I/Os barely shrank: off=%d on=%d", off.ForcedIOs, on.ForcedIOs)
	}
}

func TestConcurrentCommitPhaseHistograms(t *testing.T) {
	// The traced variant must reconstruct per-2PC-phase latency
	// percentiles from the event log; the untraced variant must not.
	row, err := ConcurrentCommit(ConcurrentOpts{Clients: 2, TxnsPerClient: 4, Spec: scenario.Spec{Trace: true}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.Committed != 8 {
		t.Fatalf("committed = %d, want 8", row.Committed)
	}
	if row.PhaseTotal.Count != 8 {
		t.Fatalf("PhaseTotal.Count = %d, want 8 committed txns", row.PhaseTotal.Count)
	}
	if row.PhasePrepare.Count != 8 || row.PhasePhase2.Count != 8 {
		t.Fatalf("phase counts = %d/%d, want 8/8", row.PhasePrepare.Count, row.PhasePhase2.Count)
	}
	if row.PhaseTotal.P50 <= 0 || row.PhaseTotal.P99 < row.PhaseTotal.P50 {
		t.Fatalf("total percentiles disordered: %+v", row.PhaseTotal)
	}
	if row.PhasePrepare.P50 <= 0 {
		t.Fatalf("prepare p50 = %v, want > 0 (prepare phase forces the log)", row.PhasePrepare.P50)
	}
	if row.PhaseTotal.P50 < row.PhasePrepare.P50 {
		t.Fatalf("total p50 %v < prepare p50 %v", row.PhaseTotal.P50, row.PhasePrepare.P50)
	}
	if row.P95 < row.P50 || row.P99 < row.P95 {
		t.Fatalf("wall percentiles disordered: p50=%v p95=%v p99=%v", row.P50, row.P95, row.P99)
	}

	plain, err := ConcurrentCommit(ConcurrentOpts{Clients: 2, TxnsPerClient: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	if plain.PhaseTotal.Count != 0 {
		t.Fatalf("untraced run grew phase histograms: %+v", plain.PhaseTotal)
	}
}
