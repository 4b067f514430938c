// Command locustrace runs a small cross-site transaction workload with
// the event trace attached and renders the merged, causally-ordered
// result: a human timeline by default, Chrome trace_event JSON
// (chrome://tracing, Perfetto) with -chrome, or the canonical machine
// form with -canonical.
//
// The default workload is deterministic: a single serial client at site
// 1 commits transactions whose files live on exactly one remote storage
// site, over a zero-jitter network.  Two runs with the same -seed
// produce byte-identical -canonical output (DESIGN.md §8).
//
// Usage:
//
//	locustrace                       # human timeline on stdout
//	locustrace -chrome trace.json    # load the file in chrome://tracing
//	locustrace -canonical            # stable machine form (diffable)
//	locustrace -filter prepare       # only events mentioning "prepare"
//	locustrace -sites 4 -txns 10     # bigger cluster, more transactions
//	locustrace -vtime -canonical     # VAX-750 latencies in simulated time;
//	                                 # same seed => same bytes, same sim duration
//	locustrace -vtime -drop commit2  # force the retry/backoff path; still
//	                                 # byte-identical on same-seed runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/trace"
)

var (
	seed      = flag.Int64("seed", 1, "simnet seed (workload is serial, so this fixes the trace bytes)")
	sites     = flag.Int("sites", 3, "cluster size; site 1 runs the client, the rest store files (min 2)")
	txns      = flag.Int("txns", 5, "transactions to commit")
	chrome    = flag.String("chrome", "", "write Chrome trace_event JSON to this path instead of a timeline")
	canonical = flag.Bool("canonical", false, "emit the canonical machine form (wall-time free, byte-stable)")
	filter    = flag.String("filter", "", "only show events whose type, txn or object contains this substring")
	outPath   = flag.String("out", "", "write output here instead of stdout")
	vtimeF    = flag.Bool("vtime", false, "run on the virtual discrete-event clock with VAX-750 latencies; the simulated duration is reported on stderr, outside the (still byte-stable) trace output")
	dropOp    = flag.String("drop", "", "drop every other delivery of this message op (e.g. commit2), forcing the CallRetry backoff path; deterministic, so same-seed -vtime runs stay byte-identical")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "locustrace:", err)
		os.Exit(1)
	}
}

func run() error {
	col, sim, err := runWorkload(*seed, *sites, *txns, *vtimeF, *dropOp)
	if err != nil {
		return err
	}
	if *vtimeF {
		fmt.Fprintf(os.Stderr, "locustrace: %s simulated\n", sim)
	}
	evs := filterEvents(col.Events(), *filter)

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close() //nolint:errcheck
		w = f
	}
	switch {
	case *chrome != "":
		f, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, evs); err != nil {
			f.Close() //nolint:errcheck
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d events to %s (load in chrome://tracing or Perfetto)\n", len(evs), *chrome)
		return nil
	case *canonical:
		_, err := w.Write(trace.Canonical(evs))
		return err
	default:
		return trace.Timeline(w, evs)
	}
}

// runWorkload commits txns serial transactions, each writing one file
// that lives on a single storage site different from the requesting
// site, and returns the attached collector plus the simulated duration
// (zero unless vt).  Zero network jitter plus a serial client makes the
// merged trace a pure function of the inputs - on either clock.  A
// non-empty dropOp arms a deterministic fault that drops every other
// delivery of that op, so each retried call walks the per-call seeded
// backoff exactly once.
func runWorkload(seed int64, sites, txns int, vt bool, dropOp string) (*trace.Collector, time.Duration, error) {
	if sites < 2 {
		return nil, 0, fmt.Errorf("need at least 2 sites (client + storage), got %d", sites)
	}
	sc := scenario.Scenario{Spec: scenario.Spec{Volumes: scenario.PerSite(sites), Seed: seed, Trace: true}}
	if vt {
		sc.Spec = sc.Spec.At(costmodel.Vax750())
	}
	if dropOp != "" {
		sc.Armed = scenario.Schedule{{Kind: scenario.FaultDropOp, Op: dropOp}}
	}
	var col *trace.Collector
	sc.Clients = []func(*scenario.Env){func(e *scenario.Env) {
		col = e.Trace
		p := scenario.Must(e.Sys.NewProcess(1))
		for i := 0; i < txns; i++ {
			target := 2 + i%(sites-1) // storage site, never the client's site
			f := scenario.Must(p.Create(fmt.Sprintf("v%d/obj%02d", target, i)))
			scenario.Ok(e.Txn(p, func() error {
				_, err := f.WriteAt([]byte(fmt.Sprintf("payload %02d", i)), 0)
				return err
			}))
			scenario.Ok(f.Close())
		}
	}}
	out, err := scenario.Run(sc)
	if err != nil {
		return nil, 0, err
	}
	return col, out.SimElapsed, nil
}

// filterEvents keeps events whose type name, transaction or object
// contains the substring.  Empty substring keeps everything.
func filterEvents(evs []trace.Event, sub string) []trace.Event {
	if sub == "" {
		return evs
	}
	var out []trace.Event
	for _, ev := range evs {
		if strings.Contains(ev.Type.String(), sub) ||
			strings.Contains(ev.Txn, sub) ||
			strings.Contains(ev.Object, sub) {
			out = append(out, ev)
		}
	}
	return out
}
