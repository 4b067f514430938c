package bench

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/scenario"
)

// TestFig5CrossMode proves latency re-prices time without changing what
// happens: every Figure 5 count - per-category I/Os, messages and forced
// I/Os - is identical over instantaneous devices and at VAX-750
// latencies.
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
			t.Errorf("%s: instantaneous %+v != VAX-750 %+v", b.Case, b, v)
		}
	}
}
