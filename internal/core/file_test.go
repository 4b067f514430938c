package core

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

func TestFilePointerReadWrite(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/seq")

	// Sequential writes advance the pointer.
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if pos, _ := f.Seek(0, io.SeekCurrent); pos != 11 {
		t.Fatalf("pos = %d", pos)
	}
	// Rewind and read it back sequentially.
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 6)
	if n, err := f.Read(buf); err != nil || n != 6 {
		t.Fatalf("read = %d, %v", n, err)
	}
	if string(buf) != "hello " {
		t.Fatalf("buf = %q", buf)
	}
	if n, err := f.Read(buf); err != nil || n != 5 {
		t.Fatalf("read2 = %d, %v", n, err)
	}
	if string(buf[:5]) != "world" {
		t.Fatalf("buf2 = %q", buf[:5])
	}
	// End of file.
	if _, err := f.Read(buf); err != io.EOF {
		t.Fatalf("read at EOF = %v, want io.EOF", err)
	}
	// SeekEnd.
	if pos, err := f.Seek(-5, io.SeekEnd); err != nil || pos != 6 {
		t.Fatalf("SeekEnd = %d, %v", pos, err)
	}
	if _, err := f.Seek(0, 9); err == nil {
		t.Fatal("bad whence accepted")
	}
	// Negative positions clamp to zero.
	if pos, _ := f.Seek(-100, io.SeekStart); pos != 0 {
		t.Fatalf("negative seek pos = %d", pos)
	}
}

func TestFileCloseIdempotentAndSyncInTxn(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// Sync inside a transaction is refused: the data commits with the
	// transaction, not before.
	if err := f.Sync(); err == nil {
		t.Fatal("Sync inside a transaction succeeded")
	}
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal("double close errored")
	}
}

func TestOpenMissingAndCreateDuplicate(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	if _, err := p.Open("va/ghost"); err == nil {
		t.Fatal("open of missing file succeeded")
	}
	mustCreate(t, p, "va/dup")
	if _, err := p.Create("va/dup"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := p.Open("noexist/f"); err == nil {
		t.Fatal("open on unknown volume succeeded")
	}
}

func TestLockAtCurrentPointer(t *testing.T) {
	// The paper's interface: position the file pointer, then
	// Lock(length, mode).
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := f.WriteAt(make([]byte, 100), 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(40, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	off, err := f.Lock(10, Exclusive)
	if err != nil {
		t.Fatal(err)
	}
	if off != 40 {
		t.Fatalf("locked at %d, want 40", off)
	}
	// Another process conflicts exactly on [40,50).
	q := mustProcess(t, sys, 2)
	fq, err := q.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fq.LockRange(40, 10, Shared, LockOpts{NoWait: true}); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict expected: %v", err)
	}
	if err := fq.LockRange(50, 10, Shared, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("adjacent range: %v", err)
	}
}

func TestDeadlockDetectorService(t *testing.T) {
	// The background detector (Start/Stop) resolves a deadlock without
	// manual stepping.
	sys := newSystem(t)
	sys.StartDeadlockDetector(10 * time.Millisecond)
	sys.StartDeadlockDetector(10 * time.Millisecond) // idempotent
	defer sys.StopDeadlockDetector()

	pa := mustProcess(t, sys, 1)
	pb := mustProcess(t, sys, 2)
	fa := mustCreate(t, pa, "va/d1")
	fb := mustCreate(t, pa, "va/d2")
	fa2, err := pb.Open("va/d1")
	if err != nil {
		t.Fatal(err)
	}
	fb2, err := pb.Open("va/d2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if err := fa.LockRange(0, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := fb2.LockRange(0, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	resA := make(chan error, 1)
	resB := make(chan error, 1)
	go func() { resA <- fb.LockRange(0, 1, Exclusive) }()
	go func() { resB <- fa2.LockRange(0, 1, Exclusive) }()

	errA, errB := <-resA, <-resB
	// Exactly one side survives; the other is the victim.
	if (errA == nil) == (errB == nil) {
		t.Fatalf("deadlock not resolved asymmetrically: A=%v B=%v", errA, errB)
	}
	if errA == nil {
		if err := pa.EndTrans(); err != nil {
			t.Fatal(err)
		}
	} else if err := pb.EndTrans(); err != nil {
		t.Fatal(err)
	}
	sys.StopDeadlockDetector()
	sys.StopDeadlockDetector() // double stop safe
}

func TestRecoveryLoopDrivesMissedPhase2(t *testing.T) {
	// Async phase two: a participant that misses every try of the first
	// commit message receives it from the coordinating site's recovery
	// loop, with nobody calling RetryPending.
	sys := NewSystem(cluster.Config{
		SyncPhase2: false,
		Net:        simnet.Config{CallTimeout: 100 * time.Millisecond},
	})
	for _, id := range []simnet.SiteID{1, 2} {
		sys.AddSite(id)
	}
	if err := sys.AddVolume(1, "va"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddVolume(2, "vb"); err != nil {
		t.Fatal(err)
	}
	p := mustProcess(t, sys, 2)
	f := mustCreate(t, p, "va/f")
	if _, err := p.BeginTrans(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("async"), 0); err != nil {
		t.Fatal(err)
	}
	var dropped atomic.Int32
	sys.Cluster().Net().SetFaultFilter(func(_, to simnet.SiteID, op string) bool {
		return op == "commit2" && to == 1 && dropped.Add(1) <= 4 // the first delivery's four tries
	})
	if err := p.EndTrans(); err != nil {
		t.Fatal(err)
	}
	// Commit point durable; phase 2 async.  Poll until the data is
	// committed at the participant and the coordinator log is clear.
	coord, err := sys.Cluster().Site(2).Coordinator()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(3 * time.Second)
	for {
		cs, _ := f.CommittedSize()
		if cs == 5 && coord.PendingCount() == 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("async phase 2 never completed: committed=%d pending=%d", cs, coord.PendingCount())
		case <-time.After(10 * time.Millisecond):
		}
	}
	if n := dropped.Load(); n < 5 {
		t.Fatalf("%d commit2 messages sent, want the four lost tries and a later retry", n)
	}
}

func TestVolumeListing(t *testing.T) {
	sys := newSystem(t)
	p := mustProcess(t, sys, 2)
	for _, n := range []string{"va/zeta", "va/alpha"} {
		mustCreate(t, p, n)
	}
	names, err := p.kernel().List("va")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(names, ",") != "alpha,zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestLockCallUnlockMode(t *testing.T) {
	// Section 3.2: Lock(file,length,mode) accepts an unlock request as a
	// mode.
	sys := newSystem(t)
	p := mustProcess(t, sys, 1)
	f := mustCreate(t, p, "va/f")
	if _, err := f.Seek(10, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lock(5, Exclusive); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Lock(5, Unlock); err != nil {
		t.Fatal(err)
	}
	// The range is free for others now (non-transaction locks really
	// release).
	q := mustProcess(t, sys, 2)
	fq, err := q.Open("va/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := fq.LockRange(10, 5, Exclusive, LockOpts{NoWait: true}); err != nil {
		t.Fatalf("range not released by unlock mode: %v", err)
	}
}
