package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"repro/internal/vtime"
)

// spanKind names the call into core a span brackets.  spanTxn is the
// parent of every other span of the same transaction.
type spanKind uint8

const (
	spanTxn spanKind = iota
	spanBegin
	spanLock
	spanRead
	spanWrite
	spanCommit
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"txn", "core.begin", "core.lock", "core.read", "core.write", "core.commit"}

// span is one timed call on both clocks.  A span's transaction is
// (client, txn index); its parent is that transaction's spanTxn span.
type span struct {
	kind               spanKind
	txn                uint32
	simStart, simEnd   int64 // ns of virtual time since the clock was made
	hostStart, hostEnd int64 // ns since the log was created
}

// spanLog is one client's in-memory span buffer for a traced run.  It is
// sized before the measured window so recording never allocates.  Every
// method is a no-op on a nil log: the untraced run pays one nil check per
// call.
type spanLog struct {
	base  time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{base: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(kind spanKind, txn int, clk *vtime.Virtual) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{
		kind: kind, txn: uint32(txn),
		simStart:  int64(clk.Elapsed()),
		hostStart: int64(time.Since(l.base)),
	})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int, clk *vtime.Virtual) {
	if l == nil {
		return
	}
	l.spans[i].simEnd = int64(clk.Elapsed())
	l.spans[i].hostEnd = int64(time.Since(l.base))
}

// spanTotals accumulates, per call name, how many calls the windows of a
// run made and the simulated and host time they took.
type spanTotals struct {
	n, sim, host [numSpanKinds]float64
}

func (t *spanTotals) add(logs []*spanLog) {
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			t.n[s.kind]++
			t.sim[s.kind] += float64(s.simEnd - s.simStart)
			t.host[s.kind] += float64(s.hostEnd - s.hostStart)
		}
	}
}

// metrics reports the mean simulated and host time of one call: which call
// a transaction's time sits in on each clock.
func (t *spanTotals) metrics(m map[string]float64) {
	for k := spanBegin; k < numSpanKinds; k++ {
		m[spanNames[k]+"_sim_ms"], m[spanNames[k]+"_host_us"] = 0, 0
		if t.n[k] > 0 {
			m[spanNames[k]+"_sim_ms"] = t.sim[k] / t.n[k] / 1e6
			m[spanNames[k]+"_host_us"] = t.host[k] / t.n[k] / 1e3
		}
	}
}

// writeSpans dumps every span as CSV, one line per span.
func writeSpans(w io.Writer, logs []*spanLog) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "client,txn,name,parent,sim_start_ns,sim_end_ns,host_start_ns,host_end_ns")
	for c, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			parent := "txn"
			if s.kind == spanTxn {
				parent = ""
			}
			fmt.Fprintf(bw, "%d,%d,%s,%s,%d,%d,%d,%d\n", c, s.txn, spanNames[s.kind], parent,
				s.simStart, s.simEnd, s.hostStart, s.hostEnd)
		}
	}
	return bw.Flush()
}
