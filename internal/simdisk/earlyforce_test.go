package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/vtime"
)

// The early force (StartFlushPage): a force begun when a page is written
// and joined by the FlushPage that needs it.

const slot = 26 * time.Millisecond

// earlyDisk is a disk on a virtual clock with a slot-long sync delay whose
// page 1 holds a stable image of 0x01 bytes.
func earlyDisk(t *testing.T) (*Disk, *vtime.Virtual, *stats.Set) {
	t.Helper()
	st := stats.NewSet()
	d := New("d", 8, 64, st)
	if err := d.WritePage(1, page(d, 1), IOData, true); err != nil {
		t.Fatal(err)
	}
	clk := vtime.NewVirtual()
	d.SetClock(clk)
	d.SetSyncDelay(slot)
	return d, clk, st
}

// stableIs fails the test unless page 1's stable image is all fill.
func stableIs(t *testing.T, d *Disk, fill byte) {
	t.Helper()
	got, err := readStable(d)(1, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(d, fill)) {
		t.Fatalf("page 1's stable image is %#x..., want all %#x", got[0], fill)
	}
}

// counts fails the test unless the forces and data page writes since
// base are as given.
func counts(t *testing.T, st *stats.Set, base stats.Snapshot, forces, writes int64) {
	t.Helper()
	d := st.Snapshot().Sub(base)
	if d.Get(stats.ForcedIOs) != forces || d.Get(stats.DataPageWrites) != writes {
		t.Fatalf("%d forces and %d data page writes, want %d and %d", d.Get(stats.ForcedIOs), d.Get(stats.DataPageWrites), forces, writes)
	}
}

// A FlushPage inside the slot parks until the slot's end and charges no
// second force; a second StartFlushPage inside it joins too.
func TestEarlyForceJoinChargesNoSecondForce(t *testing.T) {
	d, clk, st := earlyDisk(t)
	base, t0 := st.Snapshot(), clk.Now()
	if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
		t.Fatal(err)
	}
	d.StartFlushPage(1, IOData)
	if clk.Now() != t0 {
		t.Fatal("StartFlushPage parked its caller")
	}
	counts(t, st, base, 1, 0)
	clk.Sleep(16 * time.Millisecond)
	d.StartFlushPage(1, IOData)
	if err := d.FlushPage(1, IOData); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(t0); got != slot {
		t.Fatalf("FlushPage returned %v after the write, want %v (the slot's end)", got, slot)
	}
	counts(t, st, base, 1, 1)
	stableIs(t, d, 2)
}

// A write inside the slot lands with the force; a write after the slot's
// end dirties the page again, and its FlushPage forces a second time.
func TestEarlyForceWritesInAndAfterTheSlot(t *testing.T) {
	d, clk, st := earlyDisk(t)
	base := st.Snapshot()
	if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
		t.Fatal(err)
	}
	d.StartFlushPage(1, IOData)
	clk.Sleep(10 * time.Millisecond)
	if err := d.WritePage(1, page(d, 3), IOData, false); err != nil {
		t.Fatal(err)
	}
	if err := d.FlushPage(1, IOData); err != nil {
		t.Fatal(err)
	}
	counts(t, st, base, 1, 1)
	stableIs(t, d, 3)

	base = st.Snapshot()
	if err := d.WritePage(1, page(d, 4), IOData, false); err != nil {
		t.Fatal(err)
	}
	d.StartFlushPage(1, IOData)
	clk.Sleep(30 * time.Millisecond)
	if err := d.WritePage(1, page(d, 5), IOData, false); err != nil {
		t.Fatal(err)
	}
	counts(t, st, base, 1, 1) // the force landed 0x04 at its slot's end
	stableIs(t, d, 4)
	t1 := clk.Now()
	if err := d.FlushPage(1, IOData); err != nil {
		t.Fatal(err)
	}
	if got := clk.Now().Sub(t1); got != slot {
		t.Fatalf("the second FlushPage took %v, want a whole force of %v", got, slot)
	}
	counts(t, st, base, 2, 2)
	stableIs(t, d, 5)
}

// A crash inside the slot loses the early force: the page keeps its old
// stable image, a FlushPage parked in the slot fails, and a later flush
// of the page is charged its own force.  A crash after the slot's end
// finds the page landed.
func TestCrashLosesEarlyForceInFlight(t *testing.T) {
	for _, after := range []time.Duration{10 * time.Millisecond, 30 * time.Millisecond} {
		d, clk, st := earlyDisk(t)
		base := st.Snapshot()
		if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
			t.Fatal(err)
		}
		d.StartFlushPage(1, IOData)
		g := vtime.NewGroup(clk)
		var flushErr, againErr error
		var lost stats.Snapshot
		g.Go(func() { flushErr = d.FlushPage(1, IOData) })
		g.Go(func() {
			clk.Sleep(after)
			d.Crash()
			d.Restart()
			if after < slot {
				// The lost force is gone for good: a write after the
				// restart, still inside its slot, pays a force of its own.
				lost = st.Snapshot()
				if againErr = d.WritePage(1, page(d, 3), IOData, false); againErr == nil {
					againErr = d.FlushPage(1, IOData)
				}
			}
		})
		g.Wait()
		if after < slot {
			if !errors.Is(flushErr, ErrCrashed) {
				t.Fatalf("crash at %v: FlushPage parked in the slot returned %v, want ErrCrashed", after, flushErr)
			}
			counts(t, st, base, 2, 1)
			if againErr != nil {
				t.Fatal(againErr)
			}
			counts(t, st, lost, 1, 1)
			stableIs(t, d, 3)
			continue
		}
		if flushErr != nil {
			t.Fatalf("crash at %v: FlushPage returned %v", after, flushErr)
		}
		counts(t, st, base, 1, 1)
		stableIs(t, d, 2)
	}
}

// A crash after the slot's end with no flush in between lands the page
// before the volatile layer is lost.
func TestCrashAfterSlotLandsEarlyForce(t *testing.T) {
	d, clk, st := earlyDisk(t)
	base := st.Snapshot()
	if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
		t.Fatal(err)
	}
	d.StartFlushPage(1, IOData)
	clk.Sleep(slot)
	d.Crash()
	d.Restart()
	counts(t, st, base, 1, 1)
	stableIs(t, d, 2)
}

// On the real clock, with a zero sync delay, or on a clean page,
// StartFlushPage does nothing: no force is charged and the FlushPage that
// follows pays its own.
func TestEarlyForceNoOps(t *testing.T) {
	cases := map[string]func(d *Disk){
		"real clock": func(d *Disk) { d.SetClock(vtime.Real()) },
		"zero delay": func(d *Disk) { d.SetSyncDelay(0) },
		"clean page": func(d *Disk) {},
	}
	for name, setup := range cases {
		d, _, st := earlyDisk(t)
		setup(d)
		if name == "real clock" {
			d.SetSyncDelay(time.Microsecond)
		}
		base := st.Snapshot()
		if name != "clean page" {
			if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
				t.Fatal(err)
			}
		}
		d.StartFlushPage(1, IOData)
		if d.mu.Lock(); len(d.early) != 0 {
			t.Errorf("%s: StartFlushPage booked a slot", name)
		}
		d.mu.Unlock()
		counts(t, st, base, 0, 0)
		if err := d.FlushPage(1, IOData); err != nil {
			t.Fatal(err)
		}
		if name != "clean page" {
			counts(t, st, base, 1, 1)
		}
	}
}

// An injected crash sees the same slot rule as Crash: a synchronous write
// parked behind an early force lands that force, whose slot ended first,
// before its own page, so a fault armed to let one more stable write
// through keeps the early-forced page and fails the synchronous one.
func TestInjectedCrashLandsEarlyForceFirst(t *testing.T) {
	d, clk, _ := earlyDisk(t)
	t0 := clk.Now()
	if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
		t.Fatal(err)
	}
	d.StartFlushPage(1, IOData)
	d.CrashAfterWrites(1)
	if err := d.WritePage(3, page(d, 3), IOData, true); !errors.Is(err, ErrCrashed) {
		t.Fatalf("the synchronous write behind the early force returned %v, want ErrCrashed", err)
	}
	if got := clk.Now().Sub(t0); got != 2*slot {
		t.Fatalf("the synchronous write returned after %v, want %v (the end of its own slot)", got, 2*slot)
	}
	d.Restart()
	stableIs(t, d, 2)
	got, err := readStable(d)(3, IOData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, page(d, 0)) {
		t.Fatalf("page 3's stable image is %#x..., want the zeros of a page never written", got[0])
	}
}

// A crash frees the spindle: the slot a destroyed force had booked is
// not waited out by the first force after the restart.
func TestCrashFreesTheSpindle(t *testing.T) {
	for _, early := range []bool{false, true} {
		d, clk, _ := earlyDisk(t)
		g := vtime.NewGroup(clk)
		g.Go(func() {
			if early {
				if err := d.WritePage(1, page(d, 2), IOData, false); err != nil {
					t.Error(err)
				}
				d.StartFlushPage(1, IOData)
				return
			}
			if err := d.WritePage(1, page(d, 2), IOData, true); !errors.Is(err, ErrCrashed) {
				t.Errorf("the force the crash destroyed returned %v, want ErrCrashed", err)
			}
		})
		var took time.Duration
		g.Go(func() {
			clk.Sleep(5 * time.Millisecond)
			d.Crash()
			d.Restart()
			t0 := clk.Now()
			if err := d.WritePage(2, page(d, 3), IOData, true); err != nil {
				t.Error(err)
			}
			took = clk.Now().Sub(t0)
		})
		g.Wait()
		if took != slot {
			t.Errorf("early force %v: the first force after the restart took %v, want %v", early, took, slot)
		}
	}
}
