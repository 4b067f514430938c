package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// MixedRow is one configuration of the mixed read/write workload: a
// serial client at site 1 driving transactions over two volumes (va at
// site 1, vb at site 2), with readShare percent of them pure reads.
// The writes alternate between a single-site shape (one-phase commit
// candidate) and a write-plus-remote-read shape (read-only vote
// candidate), so every fast path shows up in the counters.  The client
// is serial, the fault-free schedule fixed and the clock virtual, so
// every counter and latency is deterministic - `locus bench -check` gates
// ForcedPerTxn against BENCH_BASELINE.json.
type MixedRow struct {
	Case         string         `json:"case" col:"case"` // "fast-paths off" / "fast-paths on"
	FastPaths    bool           `json:"fast_paths"`
	ReadShare    int            `json:"read_share" col:"reads,%d%%"` // percent of transactions that only read
	Txns         int            `json:"txns"`
	Committed    int64          `json:"committed" col:"committed"`
	Aborted      int64          `json:"-"`
	P50          Ms             `json:"p50_ms" col:"sim p50"` // per-transaction simulated latency
	P99          Ms             `json:"p99_ms" col:"sim p99"`
	ForcedIOs    int64          `json:"forced_ios"`                                   // synchronous disk forces during the run
	ForcedPerTxn float64        `json:"forced_ios_per_txn" col:"forced IOs/txn,%.2f"` // forces per committed transaction
	CoordWrites  int64          `json:"coord_log_writes" col:"coord log"`             // coordinator-log forces
	PrepWrites   int64          `json:"prepare_log_writes" col:"prepare log"`         // prepare-log forces
	ReadOnly     int64          `json:"read_only_votes" col:"ro votes"`               // VoteReadOnly answers observed
	OnePhase     int64          `json:"one_phase_commits" col:"1-phase"`              // one-phase commits taken
	Counters     stats.Snapshot `json:"counters"`
}

// The mixed experiment's fixed shape: MixedTxns transactions per
// configuration at each of MixedShares percent reads.
const MixedTxns = 50

var MixedShares = []int{0, 50, 90}

// serialSpec is the scenario of the serial counting experiments (mixed,
// repeat, skew): the virtual clock charging DefaultDiskSyncDelay per
// force over an instantaneous network, so the run costs no wall-clock
// and every count and simulated latency is deterministic.
func serialSpec(volumes ...string) scenario.Spec {
	return scenario.Spec{Volumes: volumes, Virtual: true, Disk: DefaultDiskSyncDelay}
}

// MixedCommit runs the mixed workload once.  txns transactions execute
// serially; readShare (0-100) selects the read fraction with an
// even deterministic interleave.
func MixedCommit(txns, readShare int, fastPaths bool) (MixedRow, error) {
	if readShare < 0 || readShare > 100 {
		return MixedRow{}, fmt.Errorf("bench: read share %d%% out of range", readShare)
	}
	spec := serialSpec("va", "vb")
	spec.FastPaths = fastPaths
	var p *core.Process
	var local, remote *core.File
	out, err := scenario.Run(scenario.Scenario{
		Spec: spec,
		Setup: func(e *scenario.Env) {
			setup := scenario.Must(e.Sys.NewProcess(1))
			for _, path := range []string{"va/data", "vb/data"} {
				scenario.Ok(baseFile(setup, path, 1024).Close())
			}
			var files []*core.File
			var err error
			p, files, err = e.Open(1, "va/data", "vb/data")
			scenario.Ok(err)
			local, remote = files[0], files[1]
		},
		Clients: []func(*scenario.Env){func(e *scenario.Env) {
			buf := make([]byte, 8)
			// read takes a shared lock on f's record and reads it.
			read := func(f *core.File) error {
				if err := f.LockRange(0, 8, core.Shared); err != nil {
					return err
				}
				_, err := f.ReadAt(buf, 0)
				return err
			}
			writes := 0
			for i := 0; i < txns; i++ {
				// write takes the exclusive lock on the local record and
				// updates it.
				write := func() error {
					if err := local.LockRange(0, 8, core.Exclusive); err != nil {
						return err
					}
					_, err := local.WriteAt([]byte(fmt.Sprintf("%08d", i)), 0)
					return err
				}
				// Bresenham interleave: transaction i reads iff the running
				// count of reads is behind the requested share.
				isRead := (i+1)*readShare/100 > i*readShare/100
				if !isRead {
					writes++
				}
				e.Txn(p, func() error { //nolint:errcheck // tallied
					switch {
					case isRead:
						// Pure read across both sites: every participant
						// votes read-only, so the fast-path run skips the
						// commit force.
						if err := read(local); err != nil {
							return err
						}
						return read(remote)
					case writes%2 == 1:
						// Single-site write: the one-phase commit candidate.
						return write()
					}
					// Write at site 1 plus a shared read at site 2: the
					// remote participant is the read-only vote candidate.
					if err := write(); err != nil {
						return err
					}
					return read(remote)
				})
			}
		}},
	})
	if err != nil {
		return MixedRow{}, err
	}
	pct := percentiles(out.Latencies)
	d := out.Counters
	row := MixedRow{
		Case: "fast-paths " + onOff(fastPaths), FastPaths: fastPaths,
		ReadShare: readShare, Txns: txns,
		Committed: out.Commits, Aborted: out.Aborts,
		P50: pct(0.50), P99: pct(0.99),
		ForcedIOs:   d.Get(stats.ForcedIOs),
		CoordWrites: d.Get(stats.CoordLogWrites),
		PrepWrites:  d.Get(stats.PrepareLogWrites),
		ReadOnly:    d.Get(stats.ReadOnlyVotes),
		OnePhase:    d.Get(stats.OnePhaseCommits),
		Counters:    d,
	}
	if row.Committed > 0 {
		row.ForcedPerTxn = float64(row.ForcedIOs) / float64(row.Committed)
	}
	return row, nil
}

// MixedSweep runs the mixed workload at each read share, fast paths off
// then on - the locus bench "mixed" experiment.
func MixedSweep() ([]MixedRow, error) {
	var rows []MixedRow
	for _, share := range MixedShares {
		for _, fast := range []bool{false, true} {
			row, err := MixedCommit(MixedTxns, share, fast)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
