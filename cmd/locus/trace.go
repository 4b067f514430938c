package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// traceCmd runs a small cross-site transaction workload with the event
// trace attached and renders the merged, causally-ordered result: a
// human timeline by default, Chrome trace_event JSON (chrome://tracing,
// Perfetto) with -chrome, or the canonical machine form with -canonical.
// A single serial client at site 1 commits transactions whose files live
// on one remote storage site each, at VAX-750 latencies in simulated
// time, so two runs with the same flags produce byte-identical
// -canonical output (DESIGN.md section 8).  The simulated duration is
// reported on stderr, outside the trace output.
//
//	locus trace -filter prepare  # only events mentioning "prepare"
//	locus trace -drop commit2    # force the retry/backoff path
func traceCmd(fs *flag.FlagSet) func() error {
	seed := fs.Int64("seed", 1, "simnet seed (workload is serial, so this fixes the trace bytes)")
	sites := fs.Int("sites", 3, "cluster size; site 1 runs the client, the rest store files (min 2)")
	txns := fs.Int("txns", 5, "transactions to commit")
	chrome := fs.String("chrome", "", "write Chrome trace_event JSON to this path instead of a timeline")
	canonical := fs.Bool("canonical", false, "emit the canonical machine form (wall-time free, byte-stable)")
	filter := fs.String("filter", "", "only show events whose type, txn or object contains this substring")
	outPath := fs.String("out", "", "write output here instead of stdout")
	dropOp := fs.String("drop", "", "drop every other delivery of this message op (e.g. commit2), forcing the ExchangeRetry backoff path; deterministic, so same-seed runs stay byte-identical")
	return func() error {
		col, sim, err := runWorkload(*seed, *sites, *txns, *dropOp)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "locus trace: %s simulated\n", sim)
		evs := filterEvents(col.Events(), *filter)
		var out bytes.Buffer
		switch {
		case *chrome != "":
			var doc bytes.Buffer
			if err := trace.WriteChrome(&doc, evs); err != nil {
				return err
			}
			if err := os.WriteFile(*chrome, doc.Bytes(), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(&out, "wrote %d events to %s (load in chrome://tracing or Perfetto)\n", len(evs), *chrome)
		case *canonical:
			out.Write(trace.Canonical(evs))
		default:
			if err := trace.Timeline(&out, evs); err != nil {
				return err
			}
		}
		if *outPath != "" {
			return os.WriteFile(*outPath, out.Bytes(), 0o644)
		}
		_, err = os.Stdout.Write(out.Bytes())
		return err
	}
}

// runWorkload commits txns serial transactions, each writing one file
// that lives on a single storage site different from the requesting
// site, and returns the attached collector plus the simulated duration.
// A non-empty dropOp arms a deterministic fault that drops every other
// delivery of that op, so each retried call walks the per-call seeded
// backoff exactly once.
func runWorkload(seed int64, sites, txns int, dropOp string) (*trace.Collector, time.Duration, error) {
	if sites < 2 {
		return nil, 0, fmt.Errorf("need at least 2 sites (client + storage), got %d", sites)
	}
	spec := scenario.Spec{Volumes: scenario.PerSite(sites), Trace: true}
	spec.Net.Seed = seed
	sc := scenario.Scenario{Spec: spec.At(costmodel.Vax750())}
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
