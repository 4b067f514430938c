package bench

import (
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/scenario"
)

// TestConcurrentVtimeSpeedup is the virtual-clock acceptance test: with
// the paper's VAX-750 disk latency charged per forced I/O, the
// fixed-seed concurrent bench must complete at least 50x faster in
// wall-clock on the virtual clock than with real sleeps, while agreeing
// exactly on committed transactions and forced I/Os - simulation
// re-prices time, it must not change what happens.
func TestConcurrentVtimeSpeedup(t *testing.T) {
	vax := costmodel.Vax750()
	// Four transactions keep the real-sleep half of the test to a
	// couple of seconds; the measured speedup still clears 50x by
	// orders of magnitude.
	const clients, txns = 2, 2

	startReal := time.Now()
	real, err := ConcurrentCommit(ConcurrentOpts{
		Clients: clients, TxnsPerClient: txns,
		Spec: scenario.Spec{Disk: vax.DiskWriteTime},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	realWall := time.Since(startReal)

	startVirt := time.Now()
	virt, err := ConcurrentCommit(ConcurrentOpts{
		Clients: clients, TxnsPerClient: txns,
		Spec: scenario.Spec{Disk: vax.DiskWriteTime, Virtual: true},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	virtWall := time.Since(startVirt)

	if real.Committed != int64(clients*txns) || real.Aborted != 0 {
		t.Fatalf("real mode: %d committed %d aborted, want %d/0", real.Committed, real.Aborted, clients*txns)
	}
	if virt.Committed != real.Committed {
		t.Fatalf("committed diverged: real %d virtual %d", real.Committed, virt.Committed)
	}
	if virt.ForcedIOs != real.ForcedIOs {
		t.Fatalf("forced I/Os diverged: real %d virtual %d", real.ForcedIOs, virt.ForcedIOs)
	}
	if virt.SimTime <= 0 || virt.TxnsPerSimSec <= 0 {
		t.Fatalf("virtual run reported no simulated time: SimTime=%v TxnsPerSimSec=%v", virt.SimTime, virt.TxnsPerSimSec)
	}
	if realWall < 50*virtWall {
		t.Fatalf("speedup %.1fx < 50x (real %v, virtual %v)", float64(realWall)/float64(virtWall), realWall, virtWall)
	}
	t.Logf("speedup %.0fx: real %v, virtual %v wall for %v simulated (%.0f txns/sim-sec)",
		float64(realWall)/float64(virtWall), realWall, virtWall, virt.SimTime, virt.TxnsPerSimSec)
}

// TestFig5CrossMode proves the two clock modes agree on every observable
// count for the Figure 5 workloads: per-category I/Os, messages, and
// forced I/Os are identical whether latency is slept or simulated.
func TestFig5CrossMode(t *testing.T) {
	base, err := Fig5(false)
	if err != nil {
		t.Fatal(err)
	}
	virt, err := Fig5On(false, scenario.Spec{}.At(costmodel.Vax750()))
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(virt) {
		t.Fatalf("row counts differ: %d vs %d", len(base), len(virt))
	}
	for i := range base {
		b, v := base[i], virt[i]
		if b != v {
			t.Errorf("%s: real %+v != virtual %+v", b.Case, b, v)
		}
	}
}
