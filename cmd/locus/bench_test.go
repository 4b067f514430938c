package main

import (
	"flag"
	"fmt"
	"testing"
)

// TestExperimentsSmoke runs every registered experiment once at the
// flags' defaults; each drives the real system and fails on any protocol
// error.
func TestExperimentsSmoke(t *testing.T) {
	for _, e := range newBench(flag.NewFlagSet("bench", flag.ContinueOnError)).experiments() {
		if err := e.show(false); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
	}
}

// TestCheckGate drives the baseline gate on a hand-made snapshot: values
// inside tolerance pass whichever direction is better, and a regression,
// a missing row and a malformed baseline each fail.
func TestCheckGate(t *testing.T) {
	snap := []byte(`{"schema":"locusbench/v1","mixed":[{"case":"fast-paths on","read_share":50,"forced_ios_per_txn":3.8}],
		"skew":[{"case":"zipfian placement on","local_commit_fraction":0.96}]}`)
	row := func(exp, cas, metric string, value float64, better string) string {
		return fmt.Sprintf(`{"experiment":%q,"case":%q,"metric":%q,"value":%v,"better":%q,"tolerance":0.05}`,
			exp, cas, metric, value, better)
	}
	for _, tc := range []struct {
		name, baseline string
		ok             bool
	}{
		{"within tolerance", "[" + row("mixed", "fast-paths on @50%", "forced_ios_per_txn", 3.72, "lower") + "," +
			row("skew", "zipfian placement on", "local_commit_fraction", 1, "higher") + "]", true},
		{"lower-is-better regressed", "[" + row("mixed", "fast-paths on @50%", "forced_ios_per_txn", 3.5, "lower") + "]", false},
		{"higher-is-better regressed", "[" + row("skew", "zipfian placement on", "local_commit_fraction", 1.02, "higher") + "]", false},
		{"missing row", "[" + row("repeat", "leases on", "lock_msgs_per_txn", 0.0625, "lower") + "]", false},
		{"bad direction", "[" + row("skew", "zipfian placement on", "local_commit_fraction", 1, "up") + "]", false},
		{"unknown field", `[{"experiment":"skew","weight":1}]`, false},
	} {
		if err := check([]byte(tc.baseline), snap); (err == nil) != tc.ok {
			t.Errorf("%s: check = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
