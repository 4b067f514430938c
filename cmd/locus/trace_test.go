package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestWorkloadTraceDeterministic is the §8 acceptance check: the default
// workload (serial client, single remote storage site per transaction,
// zero-jitter network) must produce byte-identical canonical traces on
// every same-seed run.
func TestWorkloadTraceDeterministic(t *testing.T) {
	run := func() []byte {
		col, _, err := runWorkload(1, 3, 5, "")
		if err != nil {
			t.Fatal(err)
		}
		return trace.Canonical(col.Events())
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty canonical trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
}

// TestVtimeTraceDeterministic is the simulated-time half of the
// acceptance check: with VAX-750 latencies simulated in timestamps, two
// same-seed runs must agree byte for byte on the canonical trace AND on
// the total simulated duration.
func TestVtimeTraceDeterministic(t *testing.T) {
	run := func() ([]byte, time.Duration) {
		col, sim, err := runWorkload(1, 3, 5, "")
		if err != nil {
			t.Fatal(err)
		}
		return trace.Canonical(col.Events()), sim
	}
	a, simA := run()
	b, simB := run()
	if len(a) == 0 {
		t.Fatal("empty canonical trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if simA != simB || simA <= 0 {
		t.Fatalf("simulated durations diverged or degenerate: %v vs %v", simA, simB)
	}
}

// TestChromeExportStructure validates the trace_event JSON structurally:
// a metadata track per site, one async begin/end span pair per committed
// transaction, and instant events carrying the full vocabulary.
func TestChromeExportStructure(t *testing.T) {
	const nTxns = 4
	col, _, err := runWorkload(1, 3, nTxns, "")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, col.Events()); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			ID    string         `json:"id"`
			Cat   string         `json:"cat"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if doc.DisplayUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q, want ms", doc.DisplayUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}

	meta := map[int]bool{}
	begins := map[string]bool{}
	ends := map[string]bool{}
	instants := 0
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "M":
			if ev.Name != "process_name" {
				t.Fatalf("metadata event %q, want process_name", ev.Name)
			}
			meta[ev.PID] = true
		case "b":
			if ev.Cat != "txn" || ev.ID == "" {
				t.Fatalf("async begin missing cat/id: %+v", ev)
			}
			begins[ev.ID] = true
		case "e":
			ends[ev.ID] = true
		case "i":
			instants++
			if ev.TS < 0 {
				t.Fatalf("negative timestamp: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	// All three sites took part: client at 1, files on 2 and 3.
	for _, site := range []int{1, 2, 3} {
		if !meta[site] {
			t.Fatalf("no process_name track for site %d (have %v)", site, meta)
		}
	}
	if len(begins) != nTxns {
		t.Fatalf("async spans begun = %d, want %d", len(begins), nTxns)
	}
	for id := range begins {
		if !ends[id] {
			t.Fatalf("span %q begun but never ended", id)
		}
	}
	if instants < len(doc.TraceEvents)/2 {
		t.Fatalf("only %d instant events among %d", instants, len(doc.TraceEvents))
	}
}

// TestFilterEvents checks the -filter substring match across type, txn
// and object fields.
func TestFilterEvents(t *testing.T) {
	col, _, err := runWorkload(1, 2, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	evs := col.Events()
	for _, ev := range filterEvents(evs, "prepare") {
		ok := bytes.Contains([]byte(ev.Type.String()), []byte("prepare")) ||
			bytes.Contains([]byte(ev.Txn), []byte("prepare")) ||
			bytes.Contains([]byte(ev.Object), []byte("prepare"))
		if !ok {
			t.Fatalf("filter leaked event %+v", ev)
		}
	}
	if n := len(filterEvents(evs, "prepare")); n == 0 {
		t.Fatal("filter found no prepare events in a 2PC workload")
	}
	if got := len(filterEvents(evs, "")); got != len(evs) {
		t.Fatalf("empty filter dropped events: %d vs %d", got, len(evs))
	}
	if got := len(filterEvents(evs, "zzz-no-such")); got != 0 {
		t.Fatalf("bogus filter matched %d events", got)
	}
}

// TestWorkloadValidation rejects degenerate cluster sizes.
func TestWorkloadValidation(t *testing.T) {
	if _, _, err := runWorkload(1, 1, 1, ""); err == nil {
		t.Fatal("accepted a 1-site cluster (no remote storage site possible)")
	}
	if _, _, err := runWorkload(1, 0, 1, ""); err == nil {
		t.Fatal("accepted a 0-site cluster")
	}
}

// TestDropRetryTraceDeterministic covers the retry path: with every
// other commit2 delivery dropped, each phase-two call walks ExchangeRetry's
// backoff.  The jitter is derived per call from the network seed (not
// drawn from the shared rng stream), so two same-seed runs must
// still agree byte for byte and on the simulated duration.
func TestDropRetryTraceDeterministic(t *testing.T) {
	run := func() ([]byte, time.Duration) {
		col, sim, err := runWorkload(1, 3, 5, "commit2")
		if err != nil {
			t.Fatal(err)
		}
		return trace.Canonical(col.Events()), sim
	}
	a, simA := run()
	b, simB := run()
	if len(a) == 0 {
		t.Fatal("empty canonical trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed retry runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if simA != simB {
		t.Fatalf("simulated durations diverged: %v vs %v", simA, simB)
	}
	// The retry path actually ran: dropped deliveries cost call timeouts
	// plus backoff, so the run simulates strictly more time than the
	// clean one.
	_, simClean, err := runWorkload(1, 3, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if simA <= simClean {
		t.Fatalf("drop run simulated %v <= clean run %v: retry path not exercised", simA, simClean)
	}
}
