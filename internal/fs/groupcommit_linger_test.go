package fs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// The linger tests run on the virtual clock with a 26 ms force
// (virtualLogVolume) and a linger that differs from it, so a wait for
// company and a force cannot be mistaken for each other.
const (
	lingerForce = 26 * time.Millisecond
	lingerDelay = 7 * time.Millisecond
)

func lingerLog(t *testing.T) (*vtime.Virtual, *Volume, *LogStore) {
	t.Helper()
	clk, v := virtualLogVolume(t, 16)
	l := v.Log()
	l.StartGroupCommit(GroupCommitConfig{MaxDelay: lingerDelay, Clock: clk})
	t.Cleanup(l.StopGroupCommit)
	return clk, v, l
}

// TestGroupCommitLoneRecordForcedAtOnce: a Put reaching an idle daemon
// has no company to wait for, so it returns after one force, not after
// a linger and a force.
func TestGroupCommitLoneRecordForcedAtOnce(t *testing.T) {
	clk, v, l := lingerLog(t)
	before, start := v.Stats().Snapshot(), clk.Elapsed()
	if err := l.Put("tx1", KindPrepare, []byte("vote=yes")); err != nil {
		t.Fatal(err)
	}
	if got := clk.Elapsed() - start; got != lingerForce {
		t.Fatalf("a lone Put took %v simulated, want one force (%v)", got, lingerForce)
	}
	d := v.Stats().Snapshot().Sub(before)
	if got := d.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("ForcedIOs = %d, want 1", got)
	}
	if got := d.Get(stats.GroupCommitBatches); got != 1 {
		t.Fatalf("GroupCommitBatches = %d, want 1", got)
	}
}

// TestGroupCommitLingersAfterCompany: two records submitted at one
// instant share a force; the daemon, having seen company, lingers before
// its next non-full batch, and a record submitted during that linger
// rides the same force as the one that started it.
func TestGroupCommitLingersAfterCompany(t *testing.T) {
	clk, v, l := lingerLog(t)
	put := func(key string) func() {
		return func() {
			if err := l.Put(key, KindPrepare, []byte(key)); err != nil {
				t.Error(err)
			}
		}
	}
	start := clk.Elapsed()
	pair := vtime.NewGroup(clk)
	pair.Go(put("a"))
	pair.Go(put("b"))
	pair.Wait()
	if got := clk.Elapsed() - start; got != lingerForce {
		t.Fatalf("two same-instant Puts took %v simulated, want one shared force (%v)", got, lingerForce)
	}

	before, start := v.Stats().Snapshot(), clk.Elapsed()
	var lateDone time.Duration
	next := vtime.NewGroup(clk)
	next.Go(put("c"))
	next.Go(func() {
		clk.Sleep(lingerDelay / 2)
		put("d")()
		lateDone = clk.Elapsed() - start
	})
	next.Wait()
	if want := lingerDelay + lingerForce; clk.Elapsed()-start != want || lateDone != want {
		t.Fatalf("after a batch of 2: both Puts done at %v, the late one at %v; want %v (one linger, one force)",
			clk.Elapsed()-start, lateDone, want)
	}
	d := v.Stats().Snapshot().Sub(before)
	if got := d.Get(stats.GroupCommitBatches); got != 1 {
		t.Fatalf("GroupCommitBatches = %d, want 1: the record submitted during the linger rides its force", got)
	}
	if got := d.Get(stats.ForcedIOs); got != 1 {
		t.Fatalf("ForcedIOs = %d, want 1", got)
	}
}

// TestGroupCommitSerialStreamNeverLingers: a serial stream of Puts and
// Deletes never shows the daemon company, so each record costs exactly
// one force.
func TestGroupCommitSerialStreamNeverLingers(t *testing.T) {
	clk, v, l := lingerLog(t)
	const records = 100
	before, start := v.Stats().Snapshot(), clk.Elapsed()
	for i := 0; i < records/2; i++ {
		key := fmt.Sprintf("tx%d", i)
		if err := l.Put(key, KindPrepare, []byte(key)); err != nil {
			t.Fatal(err)
		}
		if err := l.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := clk.Elapsed()-start, records*lingerForce; got != want {
		t.Fatalf("%d serial records took %v simulated, want %v (one force each)", records, got, want)
	}
	if got := v.Stats().Snapshot().Sub(before).Get(stats.ForcedIOs); got != records {
		t.Fatalf("ForcedIOs = %d, want %d", got, records)
	}
}
