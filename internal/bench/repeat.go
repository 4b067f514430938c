package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// RepeatRow is one configuration of the skewed repeated-access workload:
// a serial client at site 1 hammering one hot remote file at site 2,
// each transaction touching an 8-byte record whose offset cycles through
// a small set.  Without leases every transaction pays the lock round
// trip (the section 5.1 cache is per-transaction, and each transaction
// is new); with sticky leases the storage site retains the released
// coverage for site 1, escalates to a whole-file lease under the dense
// access, and the steady state sends zero lock messages - the experiment
// E20 win condition is LockMsgsPerTxn approaching zero.
type RepeatRow struct {
	Case           string         `json:"case" col:"case"` // "leases off" / "leases on"
	Leases         bool           `json:"leases"`
	Txns           int            `json:"txns"`
	Committed      int64          `json:"committed" col:"committed"`
	Aborted        int64          `json:"-"`
	LockMsgs       int64          `json:"lock_msgs" col:"lock msgs"`
	LockMsgsPerTxn float64        `json:"lock_msgs_per_txn" col:"lock msgs/txn,%.3f"`
	LeaseHits      int64          `json:"lease_hits" col:"lease hits"`
	LeaseRevokes   int64          `json:"lease_revokes" col:"revokes"`
	Escalations    int64          `json:"escalations" col:"escalations"`
	Counters       stats.Snapshot `json:"counters"`
}

// RepeatTxns is the repeat experiment's transactions per configuration.
const RepeatTxns = 64

// RepeatAccess runs the repeated-access workload once.  The client is
// serial and fault-free, so every counter is deterministic -
// `locus bench -check` gates LockMsgsPerTxn against BENCH_BASELINE.json.
func RepeatAccess(txns int, leases bool) (RepeatRow, error) {
	if txns <= 0 {
		return RepeatRow{}, fmt.Errorf("bench: txns %d out of range", txns)
	}
	spec := serialSpec("va", "vb")
	spec.Leases = leases
	var p *core.Process
	var hot *core.File
	out, err := scenario.Run(scenario.Scenario{
		Spec: spec,
		Setup: func(e *scenario.Env) {
			scenario.Ok(baseFile(scenario.Must(e.Sys.NewProcess(1)), "vb/hot", 1024).Close())
			var files []*core.File
			var err error
			p, files, err = e.Open(1, "vb/hot")
			scenario.Ok(err)
			hot = files[0]
		},
		Clients: []func(*scenario.Env){func(e *scenario.Env) {
			for i := 0; i < txns; i++ {
				// Skewed repeated access: the offset cycles through 16
				// records of the one hot file.  Implicit locking acquires
				// the record lock at write time (section 3.1) - the path
				// leases shortcut.
				e.Txn(p, func() error { //nolint:errcheck // tallied
					_, err := hot.WriteAt([]byte(fmt.Sprintf("%08d", i)), int64((i%16)*8))
					return err
				})
			}
		}},
	})
	if err != nil {
		return RepeatRow{}, err
	}
	d := out.Counters
	row := RepeatRow{
		Case: "leases " + onOff(leases), Leases: leases, Txns: txns,
		Committed: out.Commits, Aborted: out.Aborts,
		LockMsgs:     d.Get(stats.LockMsgs),
		LeaseHits:    d.Get(stats.LeaseHits),
		LeaseRevokes: d.Get(stats.LeaseRevokes),
		Escalations:  d.Get(stats.LeaseEscalations),
		Counters:     d,
	}
	if row.Committed > 0 {
		row.LockMsgsPerTxn = float64(row.LockMsgs) / float64(row.Committed)
	}
	return row, nil
}

// RepeatPair runs the repeated-access workload leases off then on - the
// locus bench "repeat" experiment.
func RepeatPair() ([]RepeatRow, error) {
	var rows []RepeatRow
	for _, leases := range []bool{false, true} {
		row, err := RepeatAccess(RepeatTxns, leases)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}
