package lockmgr

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/stats"
	"repro/internal/trace"
)

// raceBuild is set in race-detector builds (race_test.go).
var raceBuild bool

// TestTryLockRefusalIsCountedAndFree pins the placement quiesce's probe: a
// refused TryLock counts and traces exactly the denial a no-wait Lock
// does, charges the same instructions, and allocates nothing.
func TestTryLockRefusalIsCountedAndFree(t *testing.T) {
	st := stats.NewSet()
	fl := NewFileLocks("v1/f", nil, st)
	tr := trace.NewTracer(1, 64)
	fl.SetTracer(tr)
	mustLock(t, fl, txnA, ModeShared, 0, 10)
	if !fl.GrantLease(2, ModeShared, 20, 10) {
		t.Fatal("lease not granted")
	}
	probe := Request{Holder: procP, Group: procP.Group(), Mode: ModeExclusive, Len: 1 << 40}

	// The same refusal through Lock, for the reference counts.
	before := st.Snapshot()
	if _, err := fl.Lock(probe); !errors.Is(err, ErrConflict) {
		t.Fatalf("no-wait Lock: %v", err)
	}
	viaLock := st.Snapshot().Sub(before)

	before = st.Snapshot()
	if _, ok := fl.TryLock(probe); ok {
		t.Fatal("TryLock granted over a shared lock and a lease")
	}
	viaTry := st.Snapshot().Sub(before)
	if viaTry != viaLock {
		t.Fatalf("TryLock's refusal counts %v, Lock's %v", viaTry, viaLock)
	}
	if n := viaTry.Get(stats.LockDenials); n != 1 {
		t.Fatalf("a refusal counts %d denials, want 1", n)
	}
	want := costmodel.InstrLockRequest + 2*2*costmodel.InstrLockListScanEntry // decision + recount of two entries
	if n := viaTry.Get(stats.Instructions); n != int64(want) {
		t.Fatalf("a refusal charges %d instructions, want %d", n, want)
	}
	var types []trace.EventType
	for _, ev := range tr.Events() {
		types = append(types, ev.Type)
	}
	wantTypes := []trace.EventType{
		trace.LockRequest, trace.LockGrant, // mustLock
		trace.LockRequest, trace.LockDeny, // Lock
		trace.LockRequest, trace.LockDeny, // TryLock
	}
	if !reflect.DeepEqual(types, wantTypes) {
		t.Fatalf("trace %v, want %v", types, wantTypes)
	}

	if raceBuild {
		return // the detector allocates on its own account
	}
	fl.SetTracer(nil) // recording an event allocates it
	if n := testing.AllocsPerRun(100, func() { fl.TryLock(probe) }); n != 0 {
		t.Fatalf("a refused TryLock allocates %.1f times, want 0", n)
	}
}

// TestTryLockGrantMatchesLock: a granted TryLock installs what Lock
// installs, AtEOF resolution and the absorption of the group's own
// entries included.
func TestTryLockGrantMatchesLock(t *testing.T) {
	reqs := []Request{
		{Holder: txnA, Mode: ModeShared, Off: 0, Len: 10},
		{Holder: txnA, Mode: ModeExclusive, Off: 5, Len: 10},
		{Holder: txnB, Mode: ModeShared, Off: 40, Len: 4},
		{Holder: procP, Mode: ModeExclusive, AtEOF: true, Len: 8},
		{Holder: procP, Mode: ModeShared, Off: 100, Len: 8, NonTxn: true},
	}
	viaLock, viaTry := fileLocks(64), fileLocks(64)
	for _, req := range reqs {
		res, err := viaLock.Lock(req)
		if err != nil {
			t.Fatalf("Lock %+v: %v", req, err)
		}
		got, ok := viaTry.TryLock(req)
		if !ok || got != res {
			t.Fatalf("TryLock %+v = %+v, %v; Lock gave %+v", req, got, ok, res)
		}
	}
	if a, b := viaLock.Entries(), viaTry.Entries(); !reflect.DeepEqual(a, b) {
		t.Fatalf("entries differ:\nLock    %+v\nTryLock %+v", a, b)
	}
	if _, ok := viaTry.TryLock(Request{Holder: txnB, Mode: ModeExclusive, Off: 0, Len: 0}); ok {
		t.Fatal("TryLock granted an empty range")
	}
}
