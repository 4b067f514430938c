package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/trace"
)

// traced attaches a fresh collector to both endpoints of a pair network.
func traced(t *testing.T, cfg Config) (*Network, *Endpoint, *Endpoint, *trace.Collector) {
	t.Helper()
	n, a, b := pairNet(t, cfg, nil)
	col := trace.NewCollector(0)
	a.SetTracer(col.Site(int(a.ID())))
	b.SetTracer(col.Site(int(b.ID())))
	return n, a, b, col
}

// assertLamport checks the clock condition on every message event: a
// receive's merged clock is strictly greater than the send stamp it
// carries in Arg, and per-site clocks never decrease in sequence order.
func assertLamport(t *testing.T, evs []trace.Event) (recvs int) {
	t.Helper()
	lastClock := map[int]uint64{}
	lastSeq := map[int]uint64{}
	for _, ev := range evs {
		switch ev.Type {
		case trace.MsgRecv:
			recvs++
			if ev.Arg <= 0 {
				t.Fatalf("MsgRecv %q carries no send stamp: %+v", ev.Object, ev)
			}
			if ev.Clock <= uint64(ev.Arg) {
				t.Fatalf("MsgRecv clock %d not > send stamp %d: %+v", ev.Clock, ev.Arg, ev)
			}
		case trace.MsgSend:
			if ev.Clock == 0 {
				t.Fatalf("MsgSend with zero clock: %+v", ev)
			}
		}
		if seq, ok := lastSeq[ev.Site]; ok && ev.Seq > seq && ev.Clock < lastClock[ev.Site] {
			t.Fatalf("site %d clock went backwards: %d after %d", ev.Site, ev.Clock, lastClock[ev.Site])
		}
		lastSeq[ev.Site] = ev.Seq
		lastClock[ev.Site] = ev.Clock
	}
	return recvs
}

func TestLamportClockAcrossLatencySpike(t *testing.T) {
	n, a, b, col := traced(t, Config{Latency: 200 * time.Microsecond})
	b.Handle("ping", func(from SiteID, req any) (any, error) { return req, nil })

	for i := 0; i < 3; i++ {
		if _, err := a.Call(2, "ping", i); err != nil {
			t.Fatal(err)
		}
	}
	// Latency spike mid-run: stamps must keep advancing regardless of
	// transit time.
	n.SetLatency(2 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if _, err := a.Call(2, "ping", i); err != nil {
			t.Fatal(err)
		}
	}
	n.SetLatency(0)
	if _, err := a.Call(2, "ping", 6); err != nil {
		t.Fatal(err)
	}

	// 7 calls, each a request receive at b and a response receive at a.
	if recvs := assertLamport(t, col.Events()); recvs != 14 {
		t.Fatalf("MsgRecv events = %d, want 14", recvs)
	}
}

func TestLamportClockUnderDuplicateDelivery(t *testing.T) {
	n, a, b, col := traced(t, Config{})
	n.SetDupRate(0.95)
	handled := 0
	b.Handle("note", func(from SiteID, req any) (any, error) {
		handled++
		return nil, nil
	})

	const sends = 20
	for i := 0; i < sends; i++ {
		if _, err := a.Call(2, "note", i); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate runs inline, before its call returns.
	if handled <= sends {
		t.Fatalf("no duplicate delivery after %d calls (handled %d)", sends, handled)
	}

	evs := col.Events()
	assertLamport(t, evs)
	reqRecvs := 0
	for _, ev := range evs {
		if ev.Type == trace.MsgRecv && ev.Site == 2 {
			reqRecvs++
		}
	}
	if reqRecvs <= sends {
		t.Fatalf("request MsgRecv events = %d, want > %d (duplicates stamped too)", reqRecvs, sends)
	}
	// Every receive, duplicate or not, must credit a send stamp of the
	// other site: stamps come only from recorded sends.
	type stamp struct {
		site  int
		clock int64
	}
	sent := map[stamp]bool{}
	for _, ev := range evs {
		if ev.Type == trace.MsgSend {
			sent[stamp{ev.Site, int64(ev.Clock)}] = true
		}
	}
	for _, ev := range evs {
		if ev.Type == trace.MsgRecv && !sent[stamp{3 - ev.Site, ev.Arg}] {
			t.Fatalf("MsgRecv stamp %d at site %d matches no recorded send", ev.Arg, ev.Site)
		}
	}
}

func TestLamportClockAcrossPartition(t *testing.T) {
	n, a, b, col := traced(t, Config{})
	b.Handle("ping", func(from SiteID, req any) (any, error) { return req, nil })

	if _, err := a.Call(2, "ping", 0); err != nil {
		t.Fatal(err)
	}
	n.Partition(2)
	if _, err := a.Call(2, "ping", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned call err = %v, want ErrUnreachable", err)
	}
	n.Heal()
	if _, err := a.Call(2, "ping", 2); err != nil {
		t.Fatal(err)
	}

	evs := col.Events()
	// Two successful calls; the unreachable one sends nothing.
	if recvs := assertLamport(t, evs); recvs != 4 {
		t.Fatalf("MsgRecv events = %d, want 4", recvs)
	}
	// The post-heal exchange must causally follow the pre-partition one:
	// b's second request receive carries a larger clock than its first.
	var reqClocks []uint64
	for _, ev := range evs {
		if ev.Type == trace.MsgRecv && ev.Site == 2 {
			reqClocks = append(reqClocks, ev.Clock)
		}
	}
	if len(reqClocks) != 2 || reqClocks[1] <= reqClocks[0] {
		t.Fatalf("request receive clocks = %v, want strictly increasing pair", reqClocks)
	}
}
