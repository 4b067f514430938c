package stats

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	s := NewSet()
	if got := s.Get(DiskWrites); got != 0 {
		t.Fatalf("fresh set DiskWrites = %d, want 0", got)
	}
	s.Inc(DiskWrites)
	s.Add(DiskWrites, 4)
	if got := s.Get(DiskWrites); got != 5 {
		t.Fatalf("DiskWrites = %d, want 5", got)
	}
	s.Add(Instructions, 750)
	snap := s.Snapshot()
	if snap.Get(Instructions) != 750 || snap.Get(DiskWrites) != 5 {
		t.Fatalf("snapshot = %v", snap)
	}
	s.Reset()
	if !s.Snapshot().IsZero() {
		t.Fatalf("after Reset snapshot = %v, want zero", s.Snapshot())
	}
}

func TestNilSetIsSafe(t *testing.T) {
	var s *Set
	s.Inc(DiskReads)
	s.Add(Instructions, 10)
	s.Reset()
	if got := s.Get(DiskReads); got != 0 {
		t.Fatalf("nil set Get = %d, want 0", got)
	}
	if !s.Snapshot().IsZero() {
		t.Fatal("nil set snapshot not zero")
	}
}

func TestSnapshotSubAdd(t *testing.T) {
	s := NewSet()
	s.Add(MsgsSent, 3)
	before := s.Snapshot()
	s.Add(MsgsSent, 7)
	s.Inc(RPCs)
	after := s.Snapshot()
	d := after.Sub(before)
	if d.Get(MsgsSent) != 7 || d.Get(RPCs) != 1 {
		t.Fatalf("diff = %v", d)
	}
	sum := before.Add(d)
	if sum != after {
		t.Fatalf("before+diff = %v, want %v", sum, after)
	}
}

func TestSnapshotString(t *testing.T) {
	var zero Snapshot
	if got := zero.String(); got != "(no events)" {
		t.Fatalf("zero snapshot String = %q", got)
	}
	s := NewSet()
	s.Add(DiskWrites, 5)
	s.Add(DiskReads, 2)
	out := s.Snapshot().String()
	if !strings.Contains(out, "disk_writes=5") || !strings.Contains(out, "disk_reads=2") {
		t.Fatalf("String = %q", out)
	}
	// Sorted by name: disk_reads before disk_writes.
	if strings.Index(out, "disk_reads") > strings.Index(out, "disk_writes") {
		t.Fatalf("String not sorted: %q", out)
	}
}

func TestCounterString(t *testing.T) {
	for c := Counter(0); c < Counter(NumCounters()); c++ {
		name := c.String()
		if name == "" || strings.HasPrefix(name, "counter(") {
			t.Fatalf("counter %d has no name", int(c))
		}
	}
	if got := Counter(-1).String(); !strings.HasPrefix(got, "counter(") {
		t.Fatalf("out-of-range counter String = %q", got)
	}
}

func TestConcurrentCounting(t *testing.T) {
	s := NewSet()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.Inc(LockAcquires)
				s.Add(Instructions, 3)
			}
		}()
	}
	wg.Wait()
	if got := s.Get(LockAcquires); got != workers*each {
		t.Fatalf("LockAcquires = %d, want %d", got, workers*each)
	}
	if got := s.Get(Instructions); got != workers*each*3 {
		t.Fatalf("Instructions = %d, want %d", got, workers*each*3)
	}
}

// Property: Sub and Add are inverses, and Sub(self) is zero.
func TestSnapshotAlgebraProperty(t *testing.T) {
	f := func(a, b Snapshot) bool {
		if !a.Sub(a).IsZero() {
			return false
		}
		return a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCounterByName(t *testing.T) {
	for i := 0; i < NumCounters(); i++ {
		c := Counter(i)
		got, ok := CounterByName(c.String())
		if !ok || got != c {
			t.Fatalf("CounterByName(%q) = %v, %v; want %v, true", c.String(), got, ok, c)
		}
	}
	if _, ok := CounterByName("no_such_counter"); ok {
		t.Fatal("CounterByName accepted an unknown name")
	}
}

func TestSnapshotMarshalJSON(t *testing.T) {
	s := NewSet()
	s.Add(DiskWrites, 7)
	s.Inc(TxnCommits)
	snap := s.Snapshot()

	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]int64
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("invalid JSON %s: %v", raw, err)
	}
	if len(m) != NumCounters() {
		t.Fatalf("marshalled %d counters, want all %d", len(m), NumCounters())
	}
	if m["disk_writes"] != 7 || m["txn_commits"] != 1 || m["rpcs"] != 0 {
		t.Fatalf("bad values in %s", raw)
	}
	// Canonical: equal snapshots marshal identically.
	raw2, err := json.Marshal(s.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Fatalf("non-canonical JSON:\n%s\n%s", raw, raw2)
	}
	// Keys must be sorted for byte-stable trace artifacts.
	if !sort.StringsAreSorted(jsonKeysInOrder(t, raw)) {
		t.Fatalf("keys not sorted: %s", raw)
	}
}

// jsonKeysInOrder extracts top-level object keys in their byte order.
func jsonKeysInOrder(t *testing.T, raw []byte) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		if _, err := dec.Token(); err != nil { // value
			t.Fatal(err)
		}
	}
	return keys
}
