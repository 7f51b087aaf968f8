// Command bench is planarflow's benchmark: four closed-loop workloads,
// five end-to-end metrics per workload, and a traced run that times calls
// into each layer's public functions from outside. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md beside this
// file says why each is there.
//
//	bench -workload W -seed N -seconds S -trace 0|1   one run, result as the last line
//	bench [-seed N] [-seconds S]                      every workload, untraced then traced
//	bench -compare a.json b.json                      judge b against a by BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// outDir receives result files and traces; bench/.gitignore ignores it.
const outDir = "bench/out"

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and print its result as the last line (default: all of them)")
		seed    = flag.Int64("seed", 1, "seed for graph specs, endpoints, popularity ranks and op rolls")
		seconds = flag.Int("seconds", 0, "window length in seconds (default: run_seconds from BENCHMARK.json)")
		traced  = flag.Int("trace", 0, "1: the traced run (fixed operation counts, per-layer metrics)")
		compare = flag.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		return compareFiles(flag.Args())
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	window := time.Duration(*seconds) * time.Second

	// One process, as many clients as cores, never more than four: the
	// serving windows are CPU-bound and the reference box has two.
	cores := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(cores)
	// A fixed collector target: the environment's GOGC must not move the
	// numbers.
	debug.SetGCPercent(100)
	tmp, err := os.MkdirTemp(scratchRoot(), "run")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(tmp)
	e := env{clients: cores, tmp: tmp}
	ctx := context.Background()

	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		var res *result
		if *traced == 1 {
			res, err = trace(ctx, w, w.full, e, *seed, outDir)
		} else {
			res, err = measure(ctx, w, w.full, e, *seed, window, setupReps)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		printResult(res)
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
		if err != nil { // a metric that is not a number
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(line))
		if res.Failed > 0 {
			return 1
		}
		return 0
	}

	// The whole benchmark: every workload untraced, then traced, one file.
	file := resultFile{Env: stampEnv(cores), Seed: *seed, WindowSeconds: *seconds}
	failed := false
	for _, w := range workloads {
		res, err := measure(ctx, w, w.full, e, *seed, window, setupReps)
		if err == nil {
			printResult(res)
			var tres *result
			if tres, err = trace(ctx, w, w.full, e, *seed, outDir); err == nil {
				printResult(tres)
				file.Runs = append(file.Runs, fileRun{Workload: w.name, EndToEnd: res, PerLayer: tres})
				failed = failed || res.Failed > 0 || tres.Failed > 0
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-%s.json", time.Now().UTC().Format("20060102T150405Z"), file.Env.Commit))
	if err := writeJSON(path, &file); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println("results:", path)
	if failed {
		return 1
	}
	return 0
}

// scratchRoot is where sockets and spill directories go: the build
// directory at the checkout's root, reached by a relative path so a Unix
// socket's name stays short wherever the checkout lives.
func scratchRoot() string {
	const root = ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "." // MkdirTemp will report the real problem
	}
	return root
}

// printResult lists every metric by name with its unit, the sample count
// beside the percentiles.
func printResult(r *result) {
	fmt.Printf("== %s seed=%d samples=%d attempted=%d failed=%d\n", r.Workload, r.Seed, r.Samples, r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Println("   failure:", f)
	}
	all := map[string]metric{}
	for n, m := range r.Metrics {
		all[n] = m
	}
	for n, m := range r.Extra {
		all[n] = m
	}
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note := ""
		if pct, ok := map[string]int{"p50_ms": 50, "p95_ms": 95, "p99_ms": 99}[n]; ok {
			note = fmt.Sprintf("  (n=%d)", r.Samples)
			if !resolved(r.Samples, pct) {
				note = fmt.Sprintf("  (n=%d: fewer than %d samples beyond, unresolved)", r.Samples, minBeyond)
			}
		}
		fmt.Printf("   %-32s %14.4f %s%s\n", n, all[n].Value, all[n].Unit, note)
	}
}

// envStamp is where and on what a result file was measured.
type envStamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	UTC        string `json:"utc"`
}

func stampEnv(cores int) envStamp {
	st := envStamp{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: cores,
		Kernel: "unknown", UTC: time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		st.Kernel = strings.TrimSpace(string(b))
	}
	return st
}

// resultFile is what the whole benchmark writes: the environment, the
// seed and window, and per workload the untraced and the traced result
// with their sample counts.
type resultFile struct {
	Env           envStamp  `json:"env"`
	Seed          int64     `json:"seed"`
	WindowSeconds int       `json:"window_seconds"`
	Runs          []fileRun `json:"runs"`
}

type fileRun struct {
	Workload string  `json:"workload"`
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
