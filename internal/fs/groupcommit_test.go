package fs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/simdisk"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// mkReq builds a queued Put request for direct flushBatch tests.
func mkPutReq(key string, payload []byte) *logReq {
	return &logReq{key: key, kind: KindCoordinator, payload: payload, done: make(chan error, 1)}
}

func mkDelReq(key string) *logReq {
	return &logReq{key: key, del: true, done: make(chan error, 1)}
}

func TestFlushBatchOneForcedIO(t *testing.T) {
	// Five one-page records in one batch: one forced I/O, five page
	// writes.  The per-page counters are identical to five synchronous
	// Puts; only the force count shrinks.
	v := logVolume(t, 1024, 16)
	l := v.Log()
	before := v.Stats().Snapshot()
	batch := make([]*logReq, 5)
	for i := range batch {
		batch[i] = mkPutReq(fmt.Sprintf("tx%d", i), []byte("status=prepared"))
	}
	l.flushBatch(batch, &flushState{clk: vtime.Real()})
	for i, r := range batch {
		if err := <-r.done; err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	d := v.Stats().Snapshot().Sub(before)
	if got := d.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("ForcedIOs = %d, want 1", got)
	}
	if got := d.Get(stats.DiskWrites); got != 5 {
		t.Fatalf("DiskWrites = %d, want 5", got)
	}
	if got := d.Get(stats.GroupCommitBatches); got != 1 {
		t.Fatalf("GroupCommitBatches = %d, want 1", got)
	}
	if got := d.Get(stats.GroupCommitRecords); got != 5 {
		t.Fatalf("GroupCommitRecords = %d, want 5", got)
	}
	for i := range batch {
		rec, err := l.Get(fmt.Sprintf("tx%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if string(rec.Payload) != "status=prepared" {
			t.Fatalf("payload = %q", rec.Payload)
		}
	}
}

func TestFlushBatchLaterOpSupersedes(t *testing.T) {
	// Arrival order inside a batch is the serialization order: a Delete
	// after a Put of the same key leaves the key absent; a second Put
	// wins over the first.
	v := logVolume(t, 1024, 16)
	l := v.Log()
	batch := []*logReq{
		mkPutReq("gone", []byte("v1")),
		mkDelReq("gone"),
		mkPutReq("kept", []byte("v1")),
		mkPutReq("kept", []byte("v2")),
	}
	l.flushBatch(batch, &flushState{clk: vtime.Real()})
	for i, r := range batch {
		if err := <-r.done; err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	if _, err := l.Get("gone"); !errors.Is(err, ErrLogNotFound) {
		t.Fatalf("Get(gone) = %v, want ErrLogNotFound", err)
	}
	rec, err := l.Get("kept")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Payload) != "v2" {
		t.Fatalf("kept payload = %q, want v2", rec.Payload)
	}
}

func TestFlushBatchTornLosesWholeRecords(t *testing.T) {
	// A crash that tears a batch mid-flush loses whole records, never a
	// partial one: the first two one-page records land, the rest vanish,
	// and recovery sees intact payloads only.
	v := logVolume(t, 1024, 16)
	l := v.Log()
	batch := make([]*logReq, 4)
	for i := range batch {
		batch[i] = mkPutReq(fmt.Sprintf("tx%d", i), []byte(fmt.Sprintf("payload-%d", i)))
	}
	v.Disk().CrashAfterWrites(2)
	l.flushBatch(batch, &flushState{clk: vtime.Real()})
	// Outcomes are per-record truthful: the two records ahead of the tear
	// are durable and report success; the rest report the crash.
	for i, r := range batch {
		err := <-r.done
		if i < 2 && err != nil {
			t.Fatalf("durable record %d err = %v, want nil", i, err)
		}
		if i >= 2 && !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("lost record %d err = %v, want ErrCrashed", i, err)
		}
	}

	v.Invalidate()
	v.Disk().Restart()
	v2, err := Load("vol0", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	recs, err := v2.Log().Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(recs))
	}
	for _, rec := range recs {
		want := []byte("payload-" + rec.Key[2:])
		if !bytes.Equal(rec.Payload, want) {
			t.Fatalf("record %q payload = %q, want %q", rec.Key, rec.Payload, want)
		}
	}
}

func TestFlushBatchTornMidRecordLosesIt(t *testing.T) {
	// A multi-page record torn between its continuation page and its
	// header must disappear entirely on recovery: the header is written
	// last, so a torn record has no valid header.
	ps := 1024
	v := logVolume(t, ps, 16)
	l := v.Log()
	big := bytes.Repeat([]byte("x"), 2*ps) // needs a continuation page
	batch := []*logReq{
		mkPutReq("small", []byte("ok")),          // 1 page
		mkPutReq("big", big),                     // 3 pages: 2 cont + header
		mkPutReq("after", []byte("never-lands")), // 1 page
	}
	// Tear after small's header + big's two continuation pages: big has
	// no header on stable storage.
	v.Disk().CrashAfterWrites(3)
	l.flushBatch(batch, &flushState{clk: vtime.Real()})
	for i, r := range batch {
		err := <-r.done
		if i == 0 && err != nil {
			t.Fatalf("durable record %d err = %v, want nil", i, err)
		}
		if i > 0 && !errors.Is(err, simdisk.ErrCrashed) {
			t.Fatalf("lost record %d err = %v, want ErrCrashed", i, err)
		}
	}

	v.Invalidate()
	v.Disk().Restart()
	v2, err := Load("vol0", v.Disk())
	if err != nil {
		t.Fatal(err)
	}
	keys := v2.Log().Keys()
	if len(keys) != 1 || keys[0] != "small" {
		t.Fatalf("recovered keys = %v, want [small]", keys)
	}
	rec, err := v2.Log().Get("small")
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Payload) != "ok" {
		t.Fatalf("small payload = %q", rec.Payload)
	}
}

func TestGroupCommitDaemonCoalesces(t *testing.T) {
	// Eight writers hammering the daemon: every record rides a batch,
	// everything is readable afterwards, and the per-page write counts
	// match what the synchronous path would have charged.
	v := logVolume(t, 1024, 64)
	l := v.Log()
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: 200 * time.Microsecond})
	defer l.StopGroupCommit()
	before := v.Stats().Snapshot()

	const writers, perWriter = 8, 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("tx-%d-%d", w, i)
				if err := l.Put(key, KindPrepare, []byte("payload")); err != nil {
					t.Errorf("Put(%s): %v", key, err)
				}
			}
		}(w)
	}
	wg.Wait()

	snap := v.Stats().Snapshot().Sub(before)
	total := int64(writers * perWriter)
	if got := snap.Get(stats.GroupCommitRecords); got != total {
		t.Fatalf("GroupCommitRecords = %d, want %d", got, total)
	}
	batches := snap.Get(stats.GroupCommitBatches)
	if batches < 1 || batches > total {
		t.Fatalf("GroupCommitBatches = %d, want 1..%d", batches, total)
	}
	if got := snap.Get(stats.ForcedIOs); got != batches {
		t.Fatalf("ForcedIOs = %d, want %d (one per batch)", got, batches)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if _, err := l.Get(fmt.Sprintf("tx-%d-%d", w, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestGroupCommitZeroDelayIsSynchronous(t *testing.T) {
	// MaxDelay == 0 must degrade to the paper's per-record synchronous
	// writes: identical I/O counts, no daemon, no batch counters.
	v := logVolume(t, 1024, 16)
	l := v.Log()
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: 0})
	if l.committer() != nil {
		t.Fatal("zero-delay config attached a daemon")
	}
	before := v.Stats().Snapshot()
	if err := l.Put("tx1", KindCoordinator, []byte("status=unknown")); err != nil {
		t.Fatal(err)
	}
	d := v.Stats().Snapshot().Sub(before)
	if got := d.Get(stats.DiskWrites); got != 1 {
		t.Fatalf("DiskWrites = %d, want 1", got)
	}
	if got := d.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("ForcedIOs = %d, want 1", got)
	}
	if got := d.Get(stats.GroupCommitBatches); got != 0 {
		t.Fatalf("GroupCommitBatches = %d, want 0", got)
	}
}

func TestGroupCommitStopDrainsAndFallsBack(t *testing.T) {
	v := logVolume(t, 1024, 16)
	l := v.Log()
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: time.Millisecond})
	if err := l.Put("before", KindCoordinator, []byte("v")); err != nil {
		t.Fatal(err)
	}
	l.StopGroupCommit()
	// After stop, Put takes the synchronous path and still works.
	if err := l.Put("after", KindCoordinator, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"before", "after"} {
		if _, err := l.Get(k); err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
	}
	// Invalidate with a daemon attached stops it and fences writes.
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: time.Millisecond})
	v.Invalidate()
	if err := l.Put("late", KindCoordinator, []byte("v")); !errors.Is(err, ErrStaleVolume) {
		t.Fatalf("Put after Invalidate = %v, want ErrStaleVolume", err)
	}
}

func TestLogStoreConcurrentMixedOps(t *testing.T) {
	// Put/Delete/Get/Records from many goroutines, daemon on and off.
	// Run with -race; correctness here is "no race, no corruption, no
	// deadlock" plus every key each goroutine owns resolving to its own
	// last write.
	for _, mode := range []string{"sync", "group"} {
		t.Run(mode, func(t *testing.T) {
			v := logVolume(t, 1024, 64)
			l := v.Log()
			if mode == "group" {
				l.StartGroupCommit(GroupCommitConfig{MaxBatch: 8, MaxDelay: 100 * time.Microsecond})
				defer l.StopGroupCommit()
			}
			const workers, rounds = 8, 20
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					key := fmt.Sprintf("w%d", w)
					for i := 0; i < rounds; i++ {
						payload := []byte(fmt.Sprintf("w%d-round%d", w, i))
						if err := l.Put(key, KindPrepare, payload); err != nil {
							t.Errorf("Put: %v", err)
							return
						}
						rec, err := l.Get(key)
						if err != nil {
							t.Errorf("Get: %v", err)
							return
						}
						if !bytes.Equal(rec.Payload, payload) {
							t.Errorf("Get(%s) = %q, want %q", key, rec.Payload, payload)
							return
						}
						if i%5 == 4 {
							if err := l.Delete(key); err != nil {
								t.Errorf("Delete: %v", err)
								return
							}
						}
						if i%7 == 0 {
							if _, err := l.Records(); err != nil {
								t.Errorf("Records: %v", err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}
