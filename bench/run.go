package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"planarflow/internal/store"
)

// setupReps is how many times a run sets the system up from scratch;
// setup_s is the median, and the last instance serves the window.
const setupReps = 3

// warmup is the untimed lead-in before a window: long enough for the
// serving workloads to pass through their whole stream once.
const warmup = time.Second

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Samples   int               `json:"samples"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"` // the first few, for diagnosis
	Metrics   map[string]metric `json:"metrics"`
	Extra     map[string]metric `json:"extra,omitempty"` // reported, not part of the contract
}

// pass is the outcome of driving an instance for a while.
type pass struct {
	recs      []*recorder
	attempted int
	failed    int
	failures  []string
	elapsed   time.Duration
	mem       [2]runtime.MemStats
	store     [2]store.Stats
}

// drive runs the closed loop: each client walks the stream from its own
// offset, sends one operation, waits for the reply, checks it, and only
// then sends the next. It stops at the deadline, or after count
// operations per client when count > 0. A traced pass has one client.
func drive(ctx context.Context, in *instance, p *plan, clients int, d time.Duration, count int, seq0 int) *pass {
	ps := &pass{recs: make([]*recorder, clients)}
	type tally struct {
		attempted, failed int
		failures          []string
	}
	tallies := make([]tally, clients)
	for c := range ps.recs {
		ps.recs[c] = newRecorder(1 << 16)
	}
	runtime.GC() // settle the collector so a cycle owed by set-up is not billed to the window
	runtime.ReadMemStats(&ps.mem[0])
	if in.store != nil {
		ps.store[0] = in.store.Snapshot()
	}
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rec, tl := ps.recs[c], &tallies[c]
			idx := c * len(p.Ops) / clients
			for seq := seq0; ; seq++ {
				if count > 0 {
					if seq-seq0 >= count {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				in.tr.next()
				in.tr.begin("bench.op")
				t0 := time.Now()
				r, err := in.do(ctx, call{client: c, seq: seq, idx: idx})
				lat := time.Since(t0)
				if err == nil {
					err = p.check(idx, &r)
				}
				in.tr.end()
				tl.attempted++
				if err != nil {
					tl.failed++
					if len(tl.failures) < 3 {
						tl.failures = append(tl.failures, err.Error())
					}
				}
				rec.add(lat, r.hit)
				if idx++; idx == len(p.Ops) {
					idx = 0
				}
			}
		}(c)
	}
	wg.Wait()
	ps.elapsed = time.Since(begin)
	runtime.ReadMemStats(&ps.mem[1])
	if in.store != nil {
		in.store.FlushSpills() // so snapshot_writes counts every eviction of the pass
		ps.store[1] = in.store.Snapshot()
	}
	for _, tl := range tallies {
		ps.attempted += tl.attempted
		ps.failed += tl.failed
		ps.failures = append(ps.failures, tl.failures...)
	}
	return ps
}

// ready sets the workload up setupReps times and returns the last
// instance with the median set-up time and the heap it holds.
func ready(ctx context.Context, w *workload, e env, p *plan, reps int) (*instance, float64, float64, error) {
	var in *instance
	times := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		if in != nil {
			in.close()
			in = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if in, err = w.setup(ctx, e, p); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return in, times[(len(times)-1)/2], float64(m.HeapAlloc) / (1 << 20), nil
}

// prepare generates the workload's inputs and their expected answers.
func prepare(ctx context.Context, w *workload, sh shape, seed int64) (*plan, error) {
	p, err := makePlan(w.name, sh, seed)
	if err != nil {
		return nil, err
	}
	if err := p.expect(ctx); err != nil {
		return nil, err
	}
	return p, nil
}

// measure is the untraced run: set-up, warm-up, then one window of the
// closed loop, reported as the end-to-end metrics.
func measure(ctx context.Context, w *workload, sh shape, e env, seed int64, window time.Duration, reps int) (*result, error) {
	p, err := prepare(ctx, w, sh, seed)
	if err != nil {
		return nil, err
	}
	in, setupS, heapMB, err := ready(ctx, w, e, p, reps)
	if err != nil {
		return nil, err
	}
	defer in.close()
	clients := w.clients(e)
	lead := drive(ctx, in, p, clients, min(warmup, window), 0, 0)
	ps := drive(ctx, in, p, clients, window, 0, lead.attempted)
	all := merged(ps.recs)
	res := &result{Workload: w.name, Seed: seed, Samples: len(all), Attempted: ps.attempted, Failed: ps.failed, Failures: ps.failures}
	res.Metrics = map[string]metric{
		"setup_s":       {setupS, "s"},
		"qps":           {float64(len(all)) / ps.elapsed.Seconds(), "ops/s"},
		"p50_ms":        {ms(percentile(all, 50)), "ms"},
		"p95_ms":        {ms(percentile(all, 95)), "ms"},
		"ready_heap_mb": {heapMB, "MiB"},
	}
	// p99 is reported beside the contract's metrics, and only when enough
	// samples lie beyond it: the two build-heavy workloads finish too few
	// operations in a window for it to hold still, so it cannot carry a bound.
	if resolved(len(all), 99) {
		res.Extra = map[string]metric{"p99_ms": {ms(percentile(all, 99)), "ms"}}
	}
	return res, nil
}

// trace is the traced run: an untraced and a traced single-caller pass
// over the workload's stream, then the layer probes on the workload's
// own graphs. The spans go to dir/trace-<workload>.jsonl.
func trace(ctx context.Context, w *workload, sh shape, e env, seed int64, dir string) (*result, error) {
	p, err := prepare(ctx, w, sh, seed)
	if err != nil {
		return nil, err
	}
	in, _, _, err := ready(ctx, w, e, p, 1)
	if err != nil {
		return nil, err
	}
	// Three passes over the same operations: one to fill the caches both
	// measured passes then hit, one untraced, one traced.
	n := sh.pass // a fixed count, so the counts a pass produces repeat exactly
	drive(ctx, in, p, 1, 0, n, 0)
	plain := drive(ctx, in, p, 1, 0, n, n)
	tr := newTracer()
	in.tr = tr
	traced := drive(ctx, in, p, 1, 0, n, 2*n)
	in.tr = nil
	in.close()

	m := map[string]metric{}
	passMetrics(m, plain, traced)
	if err := probeLayers(ctx, tr, e, p, m); err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	if err := tr.write(tracePath(dir, w.name)); err != nil {
		return nil, err
	}
	return &result{
		Workload: w.name, Seed: seed, Samples: n,
		Attempted: plain.attempted + traced.attempted, Failed: plain.failed + traced.failed,
		Failures: append(plain.failures, traced.failures...), Metrics: m,
	}, nil
}

func tracePath(dir, workload string) string {
	return filepath.Join(dir, "trace-"+workload+".jsonl")
}

// passMetrics derives the per-workload layer metrics from the two
// single-caller passes: the runtime's deltas from the untraced one, the
// store's counters and the hit/miss split from the traced one, and the
// tracer's own cost from their difference. A workload without a store
// reads 0 on the store rows: nothing happened there.
func passMetrics(m map[string]metric, plain, traced *pass) {
	mem0, mem1 := &plain.mem[0], &plain.mem[1]
	m["go.gc_cycles"] = metric{float64(mem1.NumGC - mem0.NumGC), "cycles"}
	m["go.gc_pause_ms_total"] = metric{float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6, "ms"}
	m["go.alloc_mb_per_s"] = metric{float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20) / plain.elapsed.Seconds(), "MiB/s"}
	m["go.heap_growth_mb"] = metric{(float64(mem1.HeapAlloc) - float64(mem0.HeapAlloc)) / (1 << 20), "MiB"}

	s0, s1 := &traced.store[0], &traced.store[1]
	hits, misses := s1.Hits-s0.Hits, s1.Misses-s0.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	m["store.hit_ratio"] = metric{ratio, "ratio"}
	m["store.evictions"] = metric{float64(s1.Evictions - s0.Evictions), "count"}
	m["store.builds"] = metric{float64(s1.Builds - s0.Builds), "count"}
	m["store.snapshot_writes"] = metric{float64(s1.SnapshotWrites - s0.SnapshotWrites), "count"}
	m["store.snapshot_restores"] = metric{float64(s1.SnapshotRestores - s0.SnapshotRestores), "count"}
	m["store.snapshot_errors"] = metric{float64(s1.SnapshotErrors - s0.SnapshotErrors), "count"}
	hit, miss := splitByHit(traced.recs)
	m["store.hit_ms_p50"] = metric{ms(percentile(hit, 50)), "ms"}
	m["store.miss_ms_p50"] = metric{ms(percentile(miss, 50)), "ms"}
	m["store.miss_ms_p95"] = metric{ms(percentile(miss, 95)), "ms"}

	base := mean(plain.recs[0].ns)
	m["bench.trace_overhead_pct"] = metric{100 * (mean(traced.recs[0].ns) - base) / base, "%"}
}
