// Benchmarks regenerating the paper's evaluation (section 6): one
// benchmark per table or figure, driving the shared experiment code in
// internal/bench.  Each reports the simulated VAX-era metric the paper
// used (latency in ms, I/Os per transaction, messages per operation)
// alongside Go's native ns/op.
//
// Run: go test -bench=. -benchmem
// The same experiments print as paper-style tables via cmd/locusbench.
package repro

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/workload"
)

// BenchmarkFig5TransactionIOOverhead regenerates Figure 5: the I/O
// overhead of the transaction mechanism (coordinator log, data flush,
// prepare log, commit mark, phase-two inode write) for the paper's
// configurations, in both the intended 5-I/O design and the footnote-9
// 7-I/O 1985 implementation.
func BenchmarkFig5TransactionIOOverhead(b *testing.B) {
	for _, mode := range []struct {
		name   string
		double bool
	}{{"design-5io", false}, {"footnote9-7io", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig5(mode.double)
				if err != nil {
					b.Fatal(err)
				}
				total = rows[0].Total
			}
			b.ReportMetric(float64(total), "protocolIOs/txn")
		})
	}
}

// BenchmarkSec62LocalLock regenerates the first half of section 6.2:
// repeatedly locking ascending byte groups with the process at the file's
// storage site (paper: ~750 instructions, 1.5 ms excluding system call
// overhead, ~2 ms including it).
func BenchmarkSec62LocalLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.LockCost(64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].SimLatency.Microseconds())/1000, "simMs/lock")
		b.ReportMetric(float64(rows[0].InstrPerLock), "instr/lock")
	}
}

// BenchmarkSec62RemoteLock regenerates the second half of section 6.2:
// the same locking with requester and storage site separated (paper:
// ~18 ms, indistinguishable from the round-trip message cost).
func BenchmarkSec62RemoteLock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.LockCost(64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].SimLatency.Microseconds())/1000, "simMs/lock")
		b.ReportMetric(rows[1].MsgsPerLock, "msgs/lock")
	}
}

// BenchmarkFig6CommitPerformance regenerates Figure 6: record commit
// service time and latency in the four cases {local, remote} x
// {non-overlap, overlap}.
func BenchmarkFig6CommitPerformance(b *testing.B) {
	cases := []string{"local, non-overlap", "local, overlap", "remote, non-overlap", "remote, overlap"}
	for _, name := range cases {
		b.Run(name, func(b *testing.B) {
			var svcMs, latMs float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.Fig6()
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range rows {
					if r.Case == name {
						svcMs = float64(r.SimService.Microseconds()) / 1000
						latMs = float64(r.SimLatency.Microseconds()) / 1000
					}
				}
			}
			b.ReportMetric(svcMs, "simServiceMs")
			b.ReportMetric(latMs, "simLatencyMs")
		})
	}
}

// BenchmarkFn11PageSizeDifferencing regenerates footnote 11: the extra
// differencing cost of larger pages when a substantial portion of the
// page is copied (paper: 1 KB -> 4 KB adds ~1 ms).
func BenchmarkFn11PageSizeDifferencing(b *testing.B) {
	var deltaMs float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.PageSizeDifferencing([]int{512, 1024, 2048, 4096, 8192})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.PageSize == 4096 {
				deltaMs = float64(r.DeltaVs1K.Microseconds()) / 1000
			}
		}
	}
	b.ReportMetric(deltaMs, "4Kvs1K-deltaMs")
}

// BenchmarkShadowVsWAL regenerates the section 6 / [Weinstein85]
// comparison: shadow paging vs commit logging across access strings.
func BenchmarkShadowVsWAL(b *testing.B) {
	points := []struct {
		name string
		pat  workload.Pattern
		rs   int
		rpt  int
	}{
		{"random-64B-1rec", workload.Random, 64, 1},
		{"random-1KB-1rec", workload.Random, 1024, 1},
		{"sequential-64B-8rec", workload.Sequential, 64, 8},
		{"hotcold-256B-4rec", workload.HotCold, 256, 4},
	}
	for _, pt := range points {
		b.Run(pt.name, func(b *testing.B) {
			var shadowIO, walIO float64
			for i := 0; i < b.N; i++ {
				rows, err := bench.ShadowVsWAL(
					[]workload.Pattern{pt.pat}, []int{pt.rs}, []int{pt.rpt})
				if err != nil {
					b.Fatal(err)
				}
				shadowIO, walIO = rows[0].ShadowIO, rows[0].WALIO
			}
			b.ReportMetric(shadowIO, "shadowIO/txn")
			b.ReportMetric(walIO, "walIO/txn")
		})
	}
}

// BenchmarkFn10PrepareLogGranularity regenerates footnote 10: one prepare
// log per volume (the design) vs one per file (the 1985 implementation).
func BenchmarkFn10PrepareLogGranularity(b *testing.B) {
	var perVol, perFile float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.PrepareLogGranularity([]int{4})
		if err != nil {
			b.Fatal(err)
		}
		perVol = float64(rows[0].PerVolumeIO)
		perFile = float64(rows[0].PerFileIO)
	}
	b.ReportMetric(perVol, "perVolume-IOs")
	b.ReportMetric(perFile, "perFile-IOs")
}

// BenchmarkLockCacheAblation regenerates the section 5.1 design point:
// the requesting-site lock cache halves the messages per transactional
// access.
func BenchmarkLockCacheAblation(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.LockCacheAblation(32)
		if err != nil {
			b.Fatal(err)
		}
		with, without = rows[0].MsgsPerOp, rows[1].MsgsPerOp
	}
	b.ReportMetric(with, "msgs/op-cached")
	b.ReportMetric(without, "msgs/op-uncached")
}

// BenchmarkRecovery regenerates the section 4.3/4.4 behaviour: crash and
// partition scenarios, verifying all-or-nothing outcomes and measuring
// recovery I/O.
func BenchmarkRecovery(b *testing.B) {
	var recoverIO float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Recovery()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if !r.Correct {
				b.Fatalf("scenario %q failed: %s", r.Scenario, r.Outcome)
			}
		}
		recoverIO = float64(rows[0].RecoverIO)
	}
	b.ReportMetric(recoverIO, "recoveryIOs")
}

// BenchmarkReplicaReadLocality regenerates the section 5.2 replication
// point: reads are served by the closest available storage site, so a
// local replica removes the round trip entirely.
func BenchmarkReplicaReadLocality(b *testing.B) {
	var without, with float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.ReplicaLocality(16)
		if err != nil {
			b.Fatal(err)
		}
		without, with = rows[0].MsgsPerOp, rows[1].MsgsPerOp
	}
	b.ReportMetric(without, "msgs/read-noreplica")
	b.ReportMetric(with, "msgs/read-replica")
}

// BenchmarkPrefetchOnLock regenerates the other section 5.2 optimization:
// prefetching the locked pages moves the disk read under the lock
// exchange, so the first data access after a lock is served from memory.
func BenchmarkPrefetchOnLock(b *testing.B) {
	var withoutMs, withMs float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.PrefetchAblation()
		if err != nil {
			b.Fatal(err)
		}
		withoutMs = float64(rows[0].ReadLatency.Microseconds()) / 1000
		withMs = float64(rows[1].ReadLatency.Microseconds()) / 1000
	}
	b.ReportMetric(withoutMs, "readMs-noprefetch")
	b.ReportMetric(withMs, "readMs-prefetch")
}

// BenchmarkFn7DiffFromBufferPool regenerates footnote 7: keeping clean
// copies of frequently used pages in the buffer pool removes the overlap
// commit's previous-version re-read.
func BenchmarkFn7DiffFromBufferPool(b *testing.B) {
	var withoutMs, withMs float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Footnote7Ablation()
		if err != nil {
			b.Fatal(err)
		}
		withoutMs = float64(rows[0].SimLatency.Microseconds()) / 1000
		withMs = float64(rows[1].SimLatency.Microseconds()) / 1000
	}
	b.ReportMetric(withoutMs, "commitMs-reread")
	b.ReportMetric(withMs, "commitMs-bufferpool")
}

// BenchmarkLockGranularity regenerates the section 7.1 comparison: the
// previous Locus facility's whole-file locking vs this paper's record
// locking, concurrent disjoint updates to one file.
func BenchmarkLockGranularity(b *testing.B) {
	var recordMs, wholeMs float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.LockGranularity(4, 2, 2*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		recordMs = float64(rows[0].WallClock.Microseconds()) / 1000
		wholeMs = float64(rows[1].WallClock.Microseconds()) / 1000
	}
	b.ReportMetric(recordMs, "wallMs-recordlock")
	b.ReportMetric(wholeMs, "wallMs-wholefile")
}
