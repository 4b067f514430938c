package chaos

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/trace"
)

// TestVtimeRun drives a full chaos run on the virtual clock: the
// 2-second fault window and the VAX-era latencies elapse in simulated
// time, the run finishes in a fraction of that wall-clock, and every
// invariant still holds.
func TestVtimeRun(t *testing.T) {
	start := time.Now()
	res, err := Run(Options{Seed: 7, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations:\n%s", res.Report(true))
	}
	if res.SimElapsed < 2*time.Second {
		t.Fatalf("SimElapsed=%v, want a virtual-clock run covering the window", res.SimElapsed)
	}
	// Set-up is four volume formats of two forces each, account files and
	// seeding; it ends where the window opens.
	if res.SimSetup <= 0 || res.SimSetup+res.SimTime > res.SimElapsed || res.SimSetup > 3*time.Second {
		t.Fatalf("SimSetup=%v with window %v of %v total, want a set-up under 3s ending where the window opens",
			res.SimSetup, res.SimTime, res.SimElapsed)
	}
	if res.Commits == 0 {
		t.Fatal("no transaction committed under the virtual clock")
	}
	t.Logf("sim=%v wall=%v commits=%d aborts=%d", res.SimElapsed, time.Since(start), res.Commits, res.Aborts)
}

// TestVtimeGroupCommit exercises the batching daemon's clock handshake
// (submit/flush wakeups, the linger sleep, stop-while-busy) and the
// commit fast paths under faults on the virtual clock.
func TestVtimeGroupCommit(t *testing.T) {
	res, err := Run(Options{
		Seed: 11, Duration: time.Second, Spec: scenario.Spec{Config: cluster.Config{GroupCommitMaxDelay: 5 * time.Millisecond, FastPaths: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations:\n%s", res.Report(true))
	}
}

// TestVtimePlacement sweeps adaptive placement under the virtual clock:
// the VAX-era latencies stretch every ownership move across the fault
// schedule (adoptions outlive RPC timeouts, moves straddle crashes), the
// regime that shook out the duplicate-adoption and abandoned-copy bugs.
func TestVtimePlacement(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		res, err := Run(Options{Seed: seed, Duration: 2 * time.Second, Spec: scenario.Spec{Config: cluster.Config{AdaptivePlacement: true, Placement: scenario.Eager}}})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d violations:\n%s", seed, res.Report(true))
		}
	}
}

// TestVtimeSweep runs a batch of seeds through both configurations.
// Sixty full chaos runs cost well under a second of wall-clock on the
// virtual clock - the breadth that shook out the clock hand-off and
// crash-epoch bugs during development.
func TestVtimeSweep(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		res, err := Run(Options{Seed: seed, Duration: 2 * time.Second})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d violations:\n%s", seed, res.Report(true))
		}
	}
	for seed := int64(1); seed <= 30; seed++ {
		res, err := Run(Options{
			Seed: seed, Duration: 2 * time.Second,
			Spec: scenario.Spec{Config: cluster.Config{GroupCommitMaxDelay: 5 * time.Millisecond, FastPaths: true}},
		})
		if err != nil {
			t.Fatalf("seed %d (gc+fp): %v", seed, err)
		}
		if !res.OK() {
			t.Errorf("seed %d (gc+fp) violations:\n%s", seed, res.Report(true))
		}
	}
}

// TestSeed87NoUnilateralAbort is the reproducer of EXPERIMENTS.md E25: a
// schedule with no disk fault in its menu that created money on about
// three runs in four while an in-doubt participant could read its
// coordinator's "still collecting votes" as an abort (and, far more
// rarely, through the other three holes E25 lists).  The seed replays the
// interleaving, so one run is the whole test.
func TestSeed87NoUnilateralAbort(t *testing.T) {
	faults, err := ParseFaults("crash,partition,block,drop,dup,latency")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Options{Seed: 87, Duration: 2 * time.Second, Faults: faults})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("violations:\n%s", res.Report(true))
	}
}

// TestConcurrentRunReplays: a multi-client virtual-clock chaos run racing
// crashes and partitions is a function of its options - the report, the
// tallies and the canonical trace come out the same on every run, bare and
// with all four optional layers on.
func TestConcurrentRunReplays(t *testing.T) {
	faults, err := ParseFaults("crash,partition")
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		spec scenario.Spec
	}{
		{"bare", scenario.Spec{}},
		{"all layers", scenario.Spec{Config: cluster.Config{GroupCommitMaxDelay: 5 * time.Millisecond, FastPaths: true, LockLeases: true, AdaptivePlacement: true, Placement: scenario.Eager}}},
	}
	for _, row := range rows {
		opts := Options{Seed: 3, Duration: 2 * time.Second, Faults: faults, Spec: row.spec}
		first := replayRun(t, opts)
		for i := 1; i < 5; i++ {
			if got := replayRun(t, opts); got != first {
				t.Fatalf("%s: run %d differs from run 0; first difference:\n%s", row.name, i, firstDifference(first, got))
			}
		}
	}
}

// replayRun renders everything a run reports: the report with its stats,
// the counter deltas and the canonical trace.
func replayRun(t *testing.T, opts Options) string {
	t.Helper()
	w, err := newWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	sc := w.scenario()
	var canonical []byte
	check := sc.Check
	sc.Check = func(e *scenario.Env, out *scenario.Outcome) {
		check(e, out)
		canonical = trace.Canonical(e.Trace.Events())
	}
	res, err := w.run(sc)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s%v\n%s", res.Report(true), res.Counters, canonical)
}

// firstDifference quotes the first line where two renderings part.
func firstDifference(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  %s\n  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("one rendering is %d lines, the other %d", len(al), len(bl))
}
