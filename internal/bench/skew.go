package bench

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/workload"
)

// SkewRow is one configuration of the skewed-placement experiment: two
// client sites (2 and 3) driving Zipfian transactions against a pool of
// files all mounted at site 1, each client with its own rotated rank
// order so the hot sets are disjoint.  With adaptive placement off,
// every commit crosses the network to site 1 forever; with it on, the
// heat tracker migrates each client's hot files to that client and
// commit routing localizes what remains, so after the warm-up
// window most transactions commit with zero remote participant sites.
// The run is serial (the two clients alternate turns in one goroutine)
// on the virtual clock, so every counter is deterministic -
// `locus bench -check` gates LocalCommitFraction (higher is better),
// ForcedPerTxn and MsgsPerTxn against BENCH_BASELINE.json.
type SkewRow struct {
	Case     string `json:"case" col:"case"` // e.g. "zipfian placement off"
	Pattern  string `json:"pattern"`         // "zipfian" / "shifting-hotspot"
	Adaptive bool   `json:"adaptive_placement"`
	// Txns is the measured-window transaction count (after warm-up).
	Txns      int   `json:"txns"`
	Committed int64 `json:"committed" col:"committed"`
	Aborted   int64 `json:"-"`
	// The headline locality metrics, all measured after warm-up.
	LocalCommits        int64   `json:"-"`
	LocalCommitFraction float64 `json:"local_commit_fraction" col:"local frac,%.3f"`             // LocalCommits / Committed
	RemotePartsPerTxn   float64 `json:"remote_participants_per_txn" col:"remote parts/txn,%.2f"` // remote participant sites per commit
	MsgsPerTxn          float64 `json:"msgs_per_txn" col:"msgs/txn,%.2f"`
	ForcedPerTxn        float64 `json:"forced_ios_per_txn" col:"forced IOs/txn,%.2f"`
	// Placement machinery activity over the whole run (warm-up
	// included - that is where the moves happen).
	OwnerMoves    int64          `json:"owner_moves" col:"owner moves"`
	RoutedCommits int64          `json:"routed_commits" col:"routed"`
	SimTime       time.Duration  `json:"-"`
	Counters      stats.Snapshot `json:"counters"`
}

// SkewOpts parameterizes SkewPlacement.
type SkewOpts struct {
	Pattern  workload.Pattern // Zipfian or ShiftingHotspot
	Adaptive bool
}

// The skew experiment's fixed shape: each client runs skewWarmup
// discarded transactions then SkewTxns measured ones, picking among
// skewFiles files mounted at site 1 with the workload package's default
// Zipf exponent.
const (
	SkewTxns   = 64
	skewWarmup = 64
	skewFiles  = 32
)

// skewClient is one of the two client sites.  Client c's rank r maps to
// slot (r + c*Files/2) mod Files, so the hot heads are disjoint and a
// correct policy must split the pool, not herd it to one site.
type skewClient struct {
	p      *core.Process
	files  map[string]*core.File
	choose *workload.Chooser
	rot    int
	next   int // access index (feeds Chooser.Next in order)
}

var errNoHandle = errors.New("bench: file not open yet")

// SkewPlacement runs the skewed workload once: the warm-up window (where
// the heat accumulates and the moves happen) is the run's setup, the
// measured window its one serial client.
func SkewPlacement(o SkewOpts) (SkewRow, error) {
	spec := serialSpec(threeSites...)
	spec.FastPaths = true
	if o.Adaptive {
		// The measured windows are short (tens of accesses per hot
		// file), so the policy knobs come down proportionally: a file
		// moves once a remote site holds 60% of at least 3 decayed
		// accesses, and may move again after 8 more.
		spec.Placement = scenario.Placement{MinAccesses: 3, Cooldown: 8}
	}
	row := SkewRow{
		Case:     fmt.Sprintf("%s placement %s", o.Pattern, onOff(o.Adaptive)),
		Pattern:  o.Pattern.String(),
		Adaptive: o.Adaptive,
		Txns:     2 * SkewTxns,
	}
	paths := make([]string, skewFiles)
	clients := make([]*skewClient, 2)
	// window runs n rounds of one transaction per client, in turn.
	window := func(e *scenario.Env, first, n int) {
		for i := first; i < first+n; i++ {
			for _, c := range clients {
				rank := int(c.choose.Next(c.next))
				c.next++
				path := paths[(rank+c.rot)%skewFiles]
				if c.files[path] == nil {
					// The client learns it holds no handle only after its
					// transaction has begun, and an open inside it would
					// tangle the file list: it gives that transaction up,
					// opens outside and starts over.  Handles are kept for
					// the run (live opens also exercise the move's ref
					// inheritance).
					c.p.RunTransaction(1, func() error { return errNoHandle }) //nolint:errcheck
					c.files[path] = scenario.Must(c.p.Open(path))
				}
				if e.Txn(c.p, func() error {
					_, err := c.files[path].WriteAt([]byte(fmt.Sprintf("%08d", i)), int64(c.rot))
					return err
				}) != nil {
					row.Aborted++
				}
			}
		}
	}
	out, err := scenario.Run(scenario.Scenario{
		Spec: spec,
		Setup: func(e *scenario.Env) {
			// The shared pool: one page-sized file per slot at site 1.
			setup := scenario.Must(e.Sys.NewProcess(1))
			for i := range paths {
				paths[i] = fmt.Sprintf("va/f%02d", i)
				scenario.Ok(baseFile(setup, paths[i], 256).Close())
			}
			total := skewWarmup + SkewTxns
			for c := range clients {
				clients[c] = &skewClient{
					p:      scenario.Must(e.Sys.NewProcess([]simnet.SiteID{2, 3}[c])),
					files:  make(map[string]*core.File),
					choose: workload.NewChooser(o.Pattern, skewFiles, int64(c), workload.DefaultZipfS, total/4, total),
					rot:    c * skewFiles / 2,
				}
			}
			window(e, 0, skewWarmup)
		},
		Clients: []func(*scenario.Env){func(e *scenario.Env) { window(e, skewWarmup, SkewTxns) }},
		Check: func(e *scenario.Env, _ *scenario.Outcome) {
			// Machinery activity over the whole run, warm-up included.
			whole := e.Sys.Stats().Snapshot()
			row.OwnerMoves = whole.Get(stats.OwnerMoves)
			row.RoutedCommits = whole.Get(stats.RoutedCommits)
			for _, c := range clients {
				for _, f := range c.files {
					scenario.Ok(f.Close())
				}
			}
		},
	})
	if err != nil {
		return row, err
	}
	d := out.Counters
	row.SimTime, row.Counters = out.SimTime, d
	row.Committed = d.Get(stats.TxnCommits)
	row.LocalCommits = d.Get(stats.LocalCommits)
	if row.Committed > 0 {
		row.LocalCommitFraction = float64(row.LocalCommits) / float64(row.Committed)
		row.RemotePartsPerTxn = float64(d.Get(stats.RemoteParticipants)) / float64(row.Committed)
		row.MsgsPerTxn = float64(d.Get(stats.MsgsSent)) / float64(row.Committed)
		row.ForcedPerTxn = float64(d.Get(stats.ForcedIOs)) / float64(row.Committed)
	}
	return row, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// SkewSweep runs the experiment's four rows: both access patterns,
// placement off then on - the locus bench "skew" experiment.
func SkewSweep() ([]SkewRow, error) {
	var rows []SkewRow
	for _, pat := range []workload.Pattern{workload.Zipfian, workload.ShiftingHotspot} {
		for _, adaptive := range []bool{false, true} {
			row, err := SkewPlacement(SkewOpts{Pattern: pat, Adaptive: adaptive})
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
