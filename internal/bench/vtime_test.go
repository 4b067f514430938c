package bench

import "testing"

// TestFig5CrossMode proves latency re-prices time without changing what
// happens: every Figure 5 count - per-category I/Os, messages and forced
// I/Os - is identical over instantaneous devices and at VAX-750
// latencies.
func TestFig5CrossMode(t *testing.T) {
	base, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	virt, err := Fig5("vax750")
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != len(virt) {
		t.Fatalf("row counts differ: %d vs %d", len(base), len(virt))
	}
	for i := range base {
		b, v := base[i], virt[i]
		if b != v {
			t.Errorf("%s: instantaneous %+v != VAX-750 %+v", b.Case, b, v)
		}
	}
}
