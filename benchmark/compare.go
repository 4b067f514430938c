package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// metricSpec is one end_to_end entry of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// median and quartile spread (Q3-Q1 as a share of the median) of a
// metric's values over a set of runs; quartiles as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func medianSpread(vals []float64) (median, spread float64) {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	q := func(p float64) float64 {
		if len(v) == 1 {
			return v[0]
		}
		pos := p*float64(len(v)+1) - 1
		pos = math.Max(0, math.Min(pos, float64(len(v)-1)))
		lo := int(pos)
		if lo == len(v)-1 {
			return v[lo]
		}
		return v[lo] + (pos-float64(lo))*(v[lo+1]-v[lo])
	}
	median = q(0.5)
	if median != 0 {
		spread = (q(0.75) - q(0.25)) / math.Abs(median)
	}
	return median, spread
}

// verdict classifies B against A for one metric.  worsening is B's median
// relative to A's, signed so that positive is worse; spread is the wider
// of the two sides' run-to-run spreads.  A difference inside the bound is
// "same" only when the runs resolve it: a spread wider than the bound
// makes it "unresolved" unless the difference is larger still.
func verdict(worsening, spread, bound float64) string {
	if spread > bound && math.Abs(worsening) <= spread {
		return "unresolved"
	}
	switch {
	case worsening > bound:
		return "worse"
	case worsening < -bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, end-to-end metric) of result
// file B against result file A and reports whether any row is worse.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (anyWorse bool, err error) {
	var spec benchSpec
	if err := readJSON(specPath, &spec); err != nil {
		return false, err
	}
	var a, b ledger
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (commit %s, %s)\nB: %s (commit %s, %s)\n", pathA, a.Commit, a.GoVersion, pathB, b.Commit, b.GoVersion)
	fmt.Fprintf(w, "%-16s %-24s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, ws := range spec.Workloads {
		wa, wb := a.Workloads[ws.Name], b.Workloads[ws.Name]
		if wa == nil || wb == nil {
			fmt.Fprintf(w, "%-16s missing from one side\n", ws.Name)
			continue
		}
		for _, ms := range spec.EndToEnd {
			va, vb := valuesOf(wa, ms.Name), valuesOf(wb, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-24s missing from one side\n", ws.Name, ms.Name)
				continue
			}
			ma, sa := medianSpread(va)
			mb, sb := medianSpread(vb)
			change := 0.0
			if ma != 0 {
				change = (mb - ma) / math.Abs(ma)
			}
			worsening := change
			if ms.Better == "higher" {
				worsening = -change
			}
			v := verdict(worsening, math.Max(sa, sb), ms.Bound)
			anyWorse = anyWorse || v == "worse"
			fmt.Fprintf(w, "%-16s %-24s %14.6g %14.6g %+7.2f%% %7.2f%% %5.1f%%  %s\n",
				ws.Name, ms.Name, ma, mb, 100*change, 100*math.Max(sa, sb), 100*ms.Bound, v)
		}
	}
	return anyWorse, nil
}

func valuesOf(wl *workloadLedger, metric string) []float64 {
	var vals []float64
	for _, r := range wl.Runs {
		if v, ok := r.EndToEnd[metric]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}
