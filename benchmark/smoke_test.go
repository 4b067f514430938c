package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// smokeTxns is a workload's run at 1/1000 of its frozen size (at least two
// transactions per client, so there is a window after the warm-up).
func smokeTxns(w *workload) int {
	n := w.txnsPerSecond * defaultSeconds / 1000
	if n < 2*len(w.clients) {
		n = 2 * len(w.clients)
	}
	return n
}

// TestSmoke runs every workload, untraced and traced, at 1/1000 size and
// the layers section at a tiny duration, and checks the output against
// BENCHMARK.json: every declared metric emitted exactly once per workload
// with a finite value, nothing undeclared, and the data read back intact.
func TestSmoke(t *testing.T) {
	spec := loadSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the counts are calibrated for %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.EndToEnd) > 12 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics declared; the limits are 12 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]string{} // name -> unit
	for _, ms := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(ms.Name) {
			t.Errorf("declared metric name %q is malformed", ms.Name)
		}
		if _, dup := declared[ms.Name]; dup {
			t.Errorf("metric %q declared twice", ms.Name)
		}
		declared[ms.Name] = ms.Unit
		if got := unitOf(ms.Name); got != ms.Unit {
			t.Errorf("%s: BENCHMARK.json says unit %q, the program prints %q", ms.Name, ms.Unit, got)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}

	layers := runLayers(time.Millisecond)
	for i, ws := range spec.Workloads {
		w := workloads[i]
		if ws.Name != w.name {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q in the program", i, ws.Name, w.name)
		}
		rl, spans, err := runOnce(w, smokeTxns(w), 1, true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rl.Correct || rl.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d problems=%v", w.name, rl.Correct, rl.Failed, rl.Problems)
		}
		var csv bytes.Buffer
		if err := writeSpans(&csv, spans); err != nil || strings.Count(csv.String(), "\n") < rl.Attempted/windows {
			t.Errorf("%s: span dump has %d lines for the last window's %d transactions (err %v)", w.name, strings.Count(csv.String(), "\n"), rl.Attempted/windows, err)
		}
		emitted := map[string]int{}
		for _, m := range []map[string]float64{rl.EndToEnd, rl.PerLayer, layers} {
			for name, v := range m {
				emitted[name]++
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v)
				}
				if _, ok := declared[name]; !ok {
					t.Errorf("%s: emits undeclared metric %s", w.name, name)
				}
			}
		}
		for name := range declared {
			if emitted[name] != 1 {
				t.Errorf("%s: declared metric %s emitted %d times", w.name, name, emitted[name])
			}
		}
		for _, ms := range spec.EndToEnd {
			if rl.EndToEnd[ms.Name] == 0 {
				t.Errorf("%s: end-to-end metric %s is 0; bounds are relative, so it must never be", w.name, ms.Name)
			}
		}
		sum := func(prefix string) (s float64) {
			for name, v := range rl.PerLayer {
				if strings.HasPrefix(name, prefix) {
					s += v
				}
			}
			return s
		}
		if s := sum("sim_share."); math.Abs(s-1) > 0.01 {
			t.Errorf("%s: sim_share.* sum to %v", w.name, s)
		}
		// A run this short may draw no CPU-profile sample at all.
		if s := sum("cpu_share."); s != 0 && math.Abs(s-1) > 0.01 {
			t.Errorf("%s: cpu_share.* sum to %v", w.name, s)
		}
		if w.presetName == "PaperExact" {
			for _, name := range []string{"cluster.lease_hit_share", "tpc.one_phase_share"} {
				if rl.PerLayer[name] != 0 {
					t.Errorf("%s: %s = %v under PaperExact", w.name, name, rl.PerLayer[name])
				}
			}
		}
	}
}

// TestSameSeedSameInputs: the plans are a pure function of the seed, and a
// different seed gives different ones.
func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, _, _ := plansFor(w, 400, 7)
		b, _, _ := plansFor(w, 400, 7)
		c, _, _ := plansFor(w, 400, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different plans", w.name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same plan", w.name)
		}
	}
}

// simulatedMetrics are the end-to-end metrics read off the virtual clock
// and the system's counters; on a serial workload they are a pure function
// of the seed.
var simulatedMetrics = []string{
	"sim_txn_per_s", "sim_commit_ms_p50", "sim_commit_ms_p99",
	"forced_ios_per_txn", "msgs_and_forces_per_txn", "txn_commit_share",
}

// TestSerialWorkloadDeterministic: skew_tuned is driven by one goroutine,
// so two runs at one seed report identical simulated metrics, to the bit.
func TestSerialWorkloadDeterministic(t *testing.T) {
	w := workloadByName("skew_tuned")
	var runs [2]*runResult
	for i := range runs {
		var err error
		if runs[i], err = runWorkload(w, 600, 3, false); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range simulatedMetrics {
		if a, b := runs[0].Metrics[name], runs[1].Metrics[name]; a != b {
			t.Errorf("%s: %v then %v at the same seed", name, a, b)
		}
	}
}

// TestOtherSeedWithinBounds: a different seed changes the inputs but keeps
// the simulated end-to-end metrics inside their bounds.  On the concurrent
// workloads only the counts are checked here: their simulated times depend
// on how the Go scheduler interleaves the two clients and settle only over
// a full-length run, and host-time metrics would make a unit test flaky;
// both are compared over ten-seed sets with -compare instead.
func TestOtherSeedWithinBounds(t *testing.T) {
	spec := loadSpec(t)
	bounds := map[string]float64{}
	for _, ms := range spec.EndToEnd {
		bounds[ms.Name] = ms.Bound
	}
	for _, w := range workloads {
		n := w.txnsPerSecond * defaultSeconds / 20
		if w.serial {
			n *= 4 // below about 1,500 transactions a window the p99 is still the start-up phase
		}
		a, err := runWorkload(w, n, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(w, n, 2, false)
		if err != nil {
			t.Fatal(err)
		}
		names := simulatedMetrics
		if !w.serial {
			names = []string{"forced_ios_per_txn", "msgs_and_forces_per_txn", "txn_commit_share"}
		}
		for _, name := range names {
			va, vb := a.Metrics[name], b.Metrics[name]
			if rel := math.Abs(vb-va) / va; rel > bounds[name] {
				t.Errorf("%s %s: %v at seed 1, %v at seed 2 (%.2f%% apart, bound %.1f%%)",
					w.name, name, va, vb, 100*rel, 100*bounds[name])
			}
		}
	}
}

// TestCompare drives -compare over two result files.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rate, forces float64) string {
		led := ledger{Workloads: map[string]*workloadLedger{}}
		for _, w := range workloads {
			wl := &workloadLedger{}
			for i := 0; i < 5; i++ {
				wl.Runs = append(wl.Runs, &runLedger{EndToEnd: map[string]float64{
					"host_txn_per_s": rate * (1 + 0.001*float64(i)), "forced_ios_per_txn": forces,
				}})
			}
			led.Workloads[w.name] = wl
		}
		path := filepath.Join(dir, name)
		err := writeFile(path, func(f *os.File) error { return jsonTo(f, led) })
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("a.json", 1000, 7)
	for _, tc := range []struct {
		rate, forces float64
		worse        bool
		want         string
	}{
		{1000, 7, false, "same"},
		{1400, 7, false, "better"},
		{700, 7, true, "worse"},
		{1000, 7.2, true, "worse"},
	} {
		var out bytes.Buffer
		worse, err := compareFiles(&out, spec, base, write("b.json", tc.rate, tc.forces))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse || !strings.Contains(out.String(), tc.want) {
			t.Errorf("rate %v forces %v: worse=%v, want %v with a %q row:\n%s", tc.rate, tc.forces, worse, tc.worse, tc.want, out.String())
		}
	}
	if v := verdict(0.02, 0.15, 0.10); v != "unresolved" {
		t.Errorf("a 2%% change under a 15%% spread and a 10%% bound is %q, want unresolved", v)
	}
}
