package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The part of BENCHMARK.json the tools read.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specWork   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges one end-to-end metric (lower is better) of the new report
// against the old one. The change is unresolved when the old report's own
// run-to-run spread (its interquartile distance) exceeds the bound: a
// difference of that size cannot be told from noise.
func verdict(old, new summary, bound float64) string {
	if old.Value == 0 {
		return "unresolved"
	}
	ratio := new.Value / old.Value
	spread := old.spread()
	switch {
	case spread > bound:
		return "unresolved"
	case ratio > 1+bound:
		return "worse"
	case ratio < 1-bound && old.Value-new.Value > old.Q3-old.Q1:
		return "better"
	}
	return "same"
}

// exactVerdict judges a simulated result, which repeats exactly: any
// difference is real. Lower is better for all three.
func exactVerdict(old, new float64) string {
	switch {
	case new > old:
		return "worse"
	case new < old:
		return "better"
	}
	return "same"
}

// compareMain prints one row per (workload, metric) with both medians and
// quartiles, the ratio with its base, and the verdict; it exits 1 on any
// "worse". Work counts are listed when they moved, as the explanation a
// design change owes for a changed virt_ms.
func compareMain(oldPath, newPath string) int {
	var sp spec
	var old, new report
	for path, v := range map[string]any{specPath: &sp, oldPath: &old, newPath: &new} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(os.Stderr, "dsmperf:", err)
			return 2
		}
	}
	fmt.Printf("old: %s (%s, nproc %d)   new: %s (%s, nproc %d)\n",
		oldPath, old.Host.GoVersion, old.Host.CPUs, newPath, new.Host.GoVersion, new.Host.CPUs)
	fmt.Printf("%-11s %-16s %34s %34s %16s  %s\n", "workload", "metric",
		"old value [q1, q3] n", "new value [q1, q3] n", "new/old", "verdict")
	worse := false
	for _, nw := range new.Workloads {
		var ow *workloadReport
		for _, w := range old.Workloads {
			if w.Name == nw.Name {
				ow = w
			}
		}
		if ow == nil {
			fmt.Printf("%-11s only in the new report\n", nw.Name)
			continue
		}
		if ow.Seed != nw.Seed {
			fmt.Printf("%-11s seeds differ (%d, %d): simulated results are not comparable\n", nw.Name, ow.Seed, nw.Seed)
		}
		for _, m := range sp.EndToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			v := verdict(o, n, m.Bound)
			worse = worse || v == "worse"
			cell := func(s summary) string {
				return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Value, s.Q1, s.Q3, s.N)
			}
			fmt.Printf("%-11s %-16s %34s %34s %7.3f of %-7.4g %s\n",
				nw.Name, m.Name, cell(o), cell(n), n.Value/o.Value, o.Value, v)
		}
		for _, m := range exact {
			o, n := ow.Exact[m.name], nw.Exact[m.name]
			v := exactVerdict(o, n)
			worse = worse || v == "worse"
			fmt.Printf("%-11s %-16s %34v %34v %16s  %s\n", nw.Name, m.name, o, n, "exact", v)
		}
		for _, c := range countNames {
			if o, n := ow.Exact[c], nw.Exact[c]; o != n && c != hostRacy {
				fmt.Printf("%-11s %-28s %22.0f %34.0f %16s  moved\n", nw.Name, c, o, n, "count")
			}
		}
		if nw.Failed > 0 {
			worse = true
			fmt.Printf("%-11s failed_ops %d of %d attempted: worse\n", nw.Name, nw.Failed, nw.Attempted)
		}
	}
	if worse {
		return 1
	}
	return 0
}
