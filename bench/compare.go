package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchSpec is what this program reads of BENCHMARK.json, the contract it
// measures to.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one end-to-end metric of a change against its parent:
// worse when it moved the wrong way by more than the bound's share of
// the parent's value.
func verdict(parent, change, bound float64, better string) string {
	if parent == 0 {
		return "unresolved"
	}
	loss := (change - parent) / parent
	if better == "higher" {
		loss = -loss
	}
	if loss > bound {
		return "worse"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) with
// both values, their ratio and a verdict, then the exact per-layer counts
// that differ. It exits 1 when any row is worse or a workload failed
// operations it did not fail before. Two files hold one run each, so a
// row is "unresolved" only when it cannot be computed; judging a change
// takes ten such pairs (see README.md).
func compareFiles(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		b, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(b, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return 2
		}
	}
	runsB := map[string]fileRun{}
	for _, r := range files[1].Runs {
		runsB[r.Workload] = r
	}
	bad := false
	fmt.Printf("%-16s %-28s %14s %14s %8s  %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, ra := range files[0].Runs {
		rb, ok := runsB[ra.Workload]
		if !ok {
			fmt.Printf("%-16s missing from %s\n", ra.Workload, args[1])
			bad = true
			continue
		}
		for _, em := range spec.EndToEnd {
			a, b := ra.EndToEnd.Metrics[em.Name].Value, rb.EndToEnd.Metrics[em.Name].Value
			v := verdict(a, b, em.Bound, em.Better)
			bad = bad || v == "worse"
			ratio := 0.0
			if a != 0 {
				ratio = b / a
			}
			fmt.Printf("%-16s %-28s %14.4f %14.4f %8.3f  %s\n", ra.Workload, em.Name, a, b, ratio, v)
		}
		if fa, fb := ra.EndToEnd.Failed, rb.EndToEnd.Failed; fb > fa {
			fmt.Printf("%-16s %-28s %14d %14d %8s  worse\n", ra.Workload, "failed", fa, fb, "")
			bad = true
		}
		for _, lm := range spec.PerLayer {
			if lm.Unit != "count" {
				continue
			}
			if a, b := ra.PerLayer.Metrics[lm.Name].Value, rb.PerLayer.Metrics[lm.Name].Value; a != b {
				fmt.Printf("%-16s %-28s %14.4f %14.4f %8s  count differs\n", ra.Workload, lm.Name, a, b, "")
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}
