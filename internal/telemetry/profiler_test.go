package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func at(d time.Duration) time.Time {
	return time.Unix(0, 0).Add(d)
}

// TestAttributionDecomposition checks the window algebra: leaf charges
// stay themselves, window gaps become the derived resources, and the
// whole latency is claimed when the windows tile the transaction.
func TestAttributionDecomposition(t *testing.T) {
	p := NewProfiler()
	p.TxnBegin("t1", at(0))
	p.Charge("t1", ResLockWait, 10*time.Millisecond)
	p.Window("t1", WinOp, 15*time.Millisecond) // 5ms beyond lock wait -> store_queue
	p.Window("t1", WinCommit, 85*time.Millisecond)
	p.Window("t1", WinPrepare, 40*time.Millisecond)
	p.Charge("t1", ResDataFlush, 20*time.Millisecond)
	p.Charge("t1", ResPrepareForce, 10*time.Millisecond) // prepare gap: 10ms network
	p.Charge("t1", ResCoordLog, 15*time.Millisecond)
	p.Window("t1", WinPhase2, 20*time.Millisecond)
	p.Charge("t1", ResPhase2Apply, 18*time.Millisecond) // phase2 gap: 2ms network
	// commit window gap: 85 - 40 - 20 - 15 = 10ms coordinator queue
	p.TxnEnd("t1", at(100*time.Millisecond), true)

	rep := p.Report()
	if rep.Committed != 1 || rep.Aborted != 0 {
		t.Fatalf("committed/aborted = %d/%d", rep.Committed, rep.Aborted)
	}
	txns := rep.Txns()
	if len(txns) != 1 {
		t.Fatalf("got %d txns", len(txns))
	}
	res := txns[0].Resources
	want := map[string]time.Duration{
		ResLockWait:       10 * time.Millisecond,
		ResStoreQueue:     5 * time.Millisecond,
		ResDataFlush:      20 * time.Millisecond,
		ResPrepareForce:   10 * time.Millisecond,
		ResCoordLog:       15 * time.Millisecond,
		ResPhase2Apply:    18 * time.Millisecond,
		ResNetworkTransit: 12 * time.Millisecond, // 10ms prepare + 2ms phase2
		ResCoordQueue:     10 * time.Millisecond,
		ResUnattributed:   0,
	}
	for name, w := range want {
		if res[name] != w {
			t.Fatalf("%s = %v, want %v (all: %v)", name, res[name], w, res)
		}
	}
	if rep.AttributedFraction != 1 || rep.MinTxnAttributed != 1 {
		t.Fatalf("attributed %.3f min %.3f, want 1/1", rep.AttributedFraction, rep.MinTxnAttributed)
	}
}

// TestChargesAfterTxnEndDropped: what arrives after TxnEnd - a read-only
// transaction's background release, an asynchronous phase two - is not
// part of the latency, so the report is the one taken at TxnEnd.
func TestChargesAfterTxnEndDropped(t *testing.T) {
	p := NewProfiler()
	p.TxnBegin("t1", at(0))
	p.Window("t1", WinOp, 16*time.Millisecond)
	p.TxnEnd("t1", at(16*time.Millisecond), true)
	before, _ := p.Report().MarshalJSON()
	p.Window("t1", WinPrepare, 16*time.Millisecond)
	p.Charge("t1", ResOnePhaseApply, 4*time.Millisecond)
	if after, _ := p.Report().MarshalJSON(); !bytes.Equal(before, after) {
		t.Fatalf("report moved after TxnEnd:\n%s\n%s", before, after)
	}
}

// TestAttributionResidualAndAborts: unclaimed time lands in
// unattributed, aborted transactions count but do not pollute resource
// totals, and per-txn over-claim is capped.
func TestAttributionResidualAndAborts(t *testing.T) {
	p := NewProfiler()
	p.TxnBegin("slow", at(0))
	p.Window("slow", WinCommit, 30*time.Millisecond)
	p.Charge("slow", ResCoordLog, 30*time.Millisecond)
	p.TxnEnd("slow", at(100*time.Millisecond), true) // 70ms nobody claims

	p.TxnBegin("dead", at(0))
	p.Charge("dead", ResLockWait, 50*time.Millisecond)
	p.TxnEnd("dead", at(50*time.Millisecond), false)

	// Parallel fan-out can make leaf charges exceed the wall span.
	p.TxnBegin("fan", at(0))
	p.Window("fan", WinCommit, 10*time.Millisecond)
	p.Charge("fan", ResDataFlush, 40*time.Millisecond)
	p.TxnEnd("fan", at(10*time.Millisecond), true)

	rep := p.Report()
	if rep.Committed != 2 || rep.Aborted != 1 {
		t.Fatalf("committed/aborted = %d/%d, want 2/1", rep.Committed, rep.Aborted)
	}
	var slow TxnAttribution
	for _, tx := range rep.Txns() {
		if tx.Txid == "slow" {
			slow = tx
		}
	}
	if got := slow.Resources[ResUnattributed]; got != 70*time.Millisecond {
		t.Fatalf("slow unattributed = %v, want 70ms", got)
	}
	if rep.MinTxnAttributed > 0.31 {
		t.Fatalf("min attributed %.3f, want ~0.30 from the slow txn", rep.MinTxnAttributed)
	}
	for _, tx := range rep.Txns() {
		if tx.Txid == "fan" && tx.Attributed != 1 {
			t.Fatalf("fan attributed %.3f, want capped at 1", tx.Attributed)
		}
	}
	// Aborted lock time must not appear in committed resource totals.
	for _, rs := range rep.Resources {
		if rs.Resource == ResLockWait && rs.TotalNS != 0 {
			t.Fatalf("aborted lock wait leaked into totals: %d", rs.TotalNS)
		}
	}
}

// TestReportDeterministicJSON: equal profiles render byte-identical
// reports with resources sorted by name.
func TestReportDeterministicJSON(t *testing.T) {
	build := func() *ProfileReport {
		p := NewProfiler()
		for _, id := range []string{"b", "a", "c"} {
			p.TxnBegin(id, at(0))
			p.Window(id, WinCommit, 40*time.Millisecond)
			p.Charge(id, ResCoordLog, 25*time.Millisecond)
			p.TxnEnd(id, at(40*time.Millisecond), true)
		}
		return p.Report()
	}
	b1, err := build().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := build().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("reports differ:\n%s\n%s", b1, b2)
	}
	if !strings.Contains(string(b1), `"dominant":"coord_log"`) {
		t.Fatalf("missing dominant resource: %s", b1)
	}
	s := build().Summary()
	if !strings.Contains(s, "coord_log") || !strings.Contains(s, "100.0%") {
		t.Fatalf("summary missing content:\n%s", s)
	}
}
